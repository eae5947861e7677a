// Blocking-scheme trade-off model (paper Section 5.4, Figures 11-12).
//
// Molecules are grouped into cubic clusters of normalized linear size x
// (a cluster of size 1 contains exactly one molecule at liquid density).
// The cutoff sphere of radius r_c is paved with such cubes:
//   * computation rises -- every molecule in cubes intersecting the sphere
//     is interacted with, adding pairs between r_c and r_c + O(x);
//   * memory traffic falls -- positions are loaded once per cluster rather
//     than once per neighbor-list entry, and the per-interaction index
//     streams disappear, so bandwidth scales as O(1/x^3) toward a floor.
//
// Like the paper's MATLAB estimate, the model is calibrated with measured
// kernel-busy and memory-busy cycle counts from a simulated run of the
// `variable` scheme, and run time is the max of the (overlapped) kernel
// and memory times.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/check_stream.h"
#include "src/core/layouts.h"
#include "src/md/neighborlist.h"
#include "src/md/system.h"
#include "src/sim/config.h"

namespace smd::core {

struct BlockingModelParams {
  double cutoff = 1.0;            ///< r_c, nm
  double number_density = 33.33;  ///< molecules / nm^3
  /// Extra interaction-shell thickness in cluster edges: cluster pairs are
  /// culled by center distance, so the average over-computation shell is
  /// about half a cluster edge rather than the full diagonal.
  double pave_overhead = 0.5;
  double words_per_position = 9.0;
  double words_per_force = 9.0;

  // Calibration from a simulated run of the `variable` scheme.
  double variable_kernel_cycles = 1.0;
  double variable_memory_cycles = 1.0;
  double variable_words_per_interaction = 22.0;
  double interactions_per_molecule = 70.0;  ///< rho * (4/3) pi r_c^3 / 2
};

struct BlockingPoint {
  double size = 0.0;           ///< normalized cluster size x
  double molecules = 0.0;      ///< molecules per cluster (x^3)
  double kernel_rel = 0.0;     ///< kernel cycles / variable kernel cycles
  double memory_rel = 0.0;     ///< memory cycles / variable memory cycles
  double time_rel = 0.0;       ///< estimated run time / variable run time
};

class BlockingModel {
 public:
  explicit BlockingModel(const BlockingModelParams& params) : p_(params) {}

  /// Evaluate the model at one normalized cluster size x > 0. Throws
  /// std::invalid_argument when x gives a value that is not finite (x^3
  /// or the padded sphere volume overflows).
  BlockingPoint at(double size) const;

  /// Sweep x over [lo, hi] with `n` points (Figure 11/12 curves).
  std::vector<BlockingPoint> sweep(double lo, double hi, int n) const;

  /// The sweep's run-time minimum (Figure 12's marked point).
  BlockingPoint minimum(double lo = 0.4, double hi = 6.0, int n = 561) const;

  const BlockingModelParams& params() const { return p_; }

 private:
  BlockingModelParams p_;
};

// ---------------------------------------------------------------------------
// The blocking scheme as a SIMD-implementable design (the "future work"
// the paper left to simulator confirmation). 16-molecule central groups,
// cube paving with exact box-distance culling, occupancy padding, and a
// real scheduled kernel (core::build_blocked_kernel) -- confronting the
// analytical estimate above with what a 16-wide machine can actually do.
// ---------------------------------------------------------------------------

struct BlockedImplProfile {
  int cells_per_dim = 0;
  double cell_edge = 0.0;         ///< nm
  double normalized_size = 0.0;   ///< x: cell edge in one-molecule units
  double avg_occupancy = 0.0;
  int max_occupancy = 0;          ///< padded neighbor slots per cell
  int paving_cells = 0;           ///< neighbor cells per central group (k)
  std::int64_t central_groups = 0;
  std::int64_t computed_pairs = 0;   ///< incl. padding & out-of-cutoff
  std::int64_t real_pairs = 0;       ///< directed pairs within the cutoff
  double compute_inflation = 0.0;    ///< computed / real
  double words_total = 0.0;          ///< memory words moved
  double words_per_real_pair = 0.0;
  double cycles_per_computed_pair = 0.0;  ///< per cluster, scheduled
  double est_kernel_cycles = 0.0;    ///< chip level
  double est_memory_cycles = 0.0;
};

/// Characterize a blocked implementation of the given system at a cell
/// granularity of `cells_per_dim` per box edge on `cfg`. The sustained
/// `mem_words_per_cycle` is a modelling assumption, not a machine fact.
BlockedImplProfile profile_blocked_implementation(
    const md::WaterSystem& sys, const md::NeighborList& half_list,
    double cutoff, int cells_per_dim,
    const sim::MachineConfig& cfg = sim::MachineConfig::merrimac(),
    double mem_words_per_cycle = 4.0);

/// The blocking scheme's interaction *assignment*: which central-force row
/// each SIMD lane of each kernel block updates. This is the artifact the
/// scatter-add race detector (analysis::check_scatter_assignment) walks --
/// the paper's Section 4 argument that colliding force updates are safe
/// holds only while every collision goes through the scatter-add unit, so
/// the assignment records whether writeback combines and where padding
/// lanes park their dummy contributions (the trash row).
struct BlockingScheme {
  std::string name;
  int cells_per_dim = 0;
  int n_lanes = 0;                ///< SIMD clusters per central group
  std::int64_t n_molecules = 0;
  bool combining = true;          ///< writeback uses the scatter-add units
  /// blocks x lanes: force row updated by each lane (row n_molecules = the
  /// trash row absorbing padding-lane contributions).
  std::vector<std::vector<std::int64_t>> block_rows;

  std::int64_t trash_row() const { return n_molecules; }

  /// Reduce to the analysis pass's input (force rows are 9-word records
  /// starting at `force_base`, matching the shared memory-image layout).
  analysis::ScatterAssignment to_scatter_assignment(
      std::uint64_t force_base = 0) const;
};

/// Build the blocking scheme's assignment for a system: molecules are
/// binned by wrapped center into cells_per_dim^3 cells (the binning
/// profile_blocked_implementation uses) and each cell's molecules are
/// packed into groups of `n_clusters` lanes, padding the last group with
/// trash-row lanes.
BlockingScheme build_blocking_scheme(const md::WaterSystem& sys,
                                     int cells_per_dim, int n_clusters);

/// Cell granularities smdcheck lints by default (the Figure 11/12 sweep's
/// implementable range for small boxes).
std::vector<int> builtin_blocking_cells();

// ---------------------------------------------------------------------------
// Analytic pre-pass for the tuner (tune::Runner): estimate a candidate's
// kernel and memory time from the layout's traffic census and a real
// kernel schedule -- everything but the cycle-driven controller/memsys
// loop, which is ~1000x more expensive -- then drop candidates another
// candidate dominates on both axes before paying for full simulation.
// ---------------------------------------------------------------------------

struct AnalyticEstimate {
  double kernel_cycles = 0.0;  ///< scheduled kernel time for all rounds
  double memory_cycles = 0.0;  ///< layout words / peak words-per-cycle
  double time_cycles = 0.0;    ///< startup + max(kernel, memory) (Figure 5)
  double mem_words = 0.0;      ///< words moved SRF <-> memory
};

/// Estimate one variant run on `cfg` without simulating it: builds the
/// layout, schedules the kernel with cfg.sched (per call, but cheap),
/// charges cfg.kernel_startup_cycles per strip, and assumes perfectly
/// overlapped transfers at cfg's peak DRAM bandwidth.
AnalyticEstimate estimate_variant_run(const md::WaterSystem& sys,
                                      const md::NeighborList& half_list,
                                      Variant variant,
                                      const LayoutOptions& lopts,
                                      const sim::MachineConfig& cfg);

/// keep[i] is false iff some estimate j dominates i: time_cycles and
/// mem_words both at least `slack` (> 1) times better. With slack <= 1
/// everything is kept.
std::vector<bool> prune_dominated(const std::vector<AnalyticEstimate>& est,
                                  double slack);

}  // namespace smd::core
