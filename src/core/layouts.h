// Stream data layouts for the four StreamMD variants.
//
// The neighbor lists are "calculated in scalar-code and passed to the
// stream program through memory" (paper Section 3): these builders play the
// scalar-code role. Each builder turns a molecule-level half neighbor list
// into the exact streams the variant's kernel consumes, in SRF consumption
// order -- (round, body-iteration, cluster)-major, matching the
// interpreter -- including replication of central molecules, padding with
// dummy records, and (for `variable`) a simulation of the conditional-
// stream pull order so gather/scatter index streams line up with what the
// SIMD kernel will actually consume.
//
// Shared memory image conventions:
//   * positions array: (n_molecules + 2) records of 9 words; record
//     n_molecules     = dummy neighbor ("far away" molecule),
//     n_molecules + 1 = dummy central. Dummies are ~1e6 nm from the box so
//     their computed interactions are denormal-free zeros to double
//     precision, and their outputs scatter into the trash force row.
//   * forces array: (n_molecules + 1) records of 9 words; record
//     n_molecules = trash row absorbing dummy partial forces.
#pragma once

#include <cstdint>
#include <vector>

#include "src/md/neighborlist.h"
#include "src/md/system.h"
#include "src/core/streammd.h"
#include "src/sim/config.h"

namespace smd::core {

/// One strip's slice boundaries into the layout's flat arrays.
struct StripSlice {
  std::int64_t round_begin = 0;   ///< kernel rounds [begin, end)
  std::int64_t round_end = 0;
  std::int64_t neighbor_begin = 0;  ///< neighbor-slot records
  std::int64_t neighbor_end = 0;
  std::int64_t central_begin = 0;   ///< central records / blocks
  std::int64_t central_end = 0;
  std::int64_t fc_begin = 0;        ///< central-force output records
  std::int64_t fc_end = 0;
};

/// Everything the stream program needs, laid out scalar-side.
struct VariantLayout {
  Variant variant;

  /// Materialized central records, in pull/consumption order.
  /// Record width = central_record_words:
  ///   expanded:        -- (centrals are gathered; this is empty)
  ///   fixed/duplicated: 9 (pre-shifted positions)
  ///   variable:        10 (pre-shifted positions + neighbor count)
  std::vector<double> central_records;
  int central_record_words = 0;

  /// Gather indices (into the positions array) per neighbor slot, in
  /// consumption order. Dummy slots point at the dummy-neighbor record.
  std::vector<std::uint64_t> neighbor_gather_idx;

  /// expanded only: gather indices for the central of each interaction.
  std::vector<std::uint64_t> central_gather_idx;
  /// expanded only: per-interaction 9-word PBC records (per-atom shifts
  /// applied to the neighbor molecule).
  std::vector<double> pbc_records;

  /// Scatter-add indices (rows of the forces array) for neighbor partial
  /// forces (empty for duplicated) and central partial forces (empty for
  /// expanded -- its central forces scatter via central_force_scatter too).
  std::vector<std::uint64_t> force_n_scatter_idx;
  std::vector<std::uint64_t> force_c_scatter_idx;

  /// Kernel rounds (kernel::Interpreter semantics: outer rounds for
  /// blocked kernels, body iterations otherwise).
  std::int64_t rounds = 0;

  /// Strips (software-pipelined chunks; Figure 5).
  std::vector<StripSlice> strips;

  // ---- Dataset properties (paper Table 2). -------------------------------
  std::int64_t n_real_interactions = 0;    ///< half-list molecule pairs
  std::int64_t n_computed_interactions = 0;  ///< incl. dummies/duplicates
  std::int64_t n_central_blocks = 0;       ///< "repeated molecules"
  std::int64_t n_neighbor_slots = 0;       ///< "total neighbors" incl. dummies

  /// Analytic arithmetic intensity (flops per memory word) given a
  /// flops-per-interaction census, using this data set's actual counts;
  /// 0 for a layout that moves no words.
  double arithmetic_intensity(double flops_per_interaction) const;
  /// Memory words this layout moves (loads + stores + index streams).
  std::int64_t memory_words() const;
};

/// Options shared by the layout builders; the machine fields default to
/// the Table 1 machine.
struct LayoutOptions {
  int n_clusters = sim::MachineConfig{}.n_clusters;
  int fixed_list_length = kFixedListLength;  ///< L
  /// Strip length in kernel rounds; 0 = pick automatically so that three
  /// strips' buffers fit in srf_words.
  std::int64_t strip_rounds = 0;
  std::int64_t srf_words = sim::MachineConfig{}.srf_words;
};

/// Build the layout for a variant from a half neighbor list. Throws
/// std::invalid_argument when a variant that reads L gets L < 1.
VariantLayout build_layout(Variant variant, const md::WaterSystem& sys,
                           const md::NeighborList& half_list,
                           const LayoutOptions& opts = {});

/// Whether a variant's layout (build_layout) and kernel
/// (build_water_kernel) read the fixed-list length L: true for `fixed` and
/// `duplicated`. Runs of any other variant are identical at every L, so
/// the tuner simulates them once per sweep (tune::run_hash).
bool reads_fixed_list_length(Variant variant);

/// The full (directed) list used by `duplicated`, derived from a half list
/// whose rows ascend with j > i, as build_neighbor_list's do; each full
/// row then ascends too, and entry (j, i) carries the negated shift.
md::NeighborList make_full_list(const md::NeighborList& half_list);

/// Group a molecule's neighbor-list entries by identical shift vector;
/// returns (first_entry_index, count) runs after a stable partition.
/// Exposed for testing.
struct ShiftGroup {
  md::Vec3 shift;
  std::vector<std::int32_t> entries;  ///< indices into list.neighbors
};
std::vector<ShiftGroup> group_by_shift(const md::NeighborList& list, int mol);

}  // namespace smd::core
