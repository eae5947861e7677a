// Water-water interaction kernels (stream IR), one per variant.
//
// All four share the same 9-atom-pair Coulomb + O-O Lennard-Jones
// arithmetic (Equation 1 of the paper, ~230 flops with 9 divides and 9
// square roots per molecule pair -- the paper quotes 234); they differ in
// stream structure:
//
//   expanded   : body reads (cpos 9, npos 9, pbc 9), writes (fc 9, fn 9).
//   fixed      : outer_pre reads a pre-shifted central (9) and zeroes the
//                accumulator; body reads npos 9, writes fn 9 and reduces
//                the central force in the LRF; outer_post writes fc 9.
//   variable   : body conditionally pulls a 10-word central record
//                (pre-shifted positions + neighbor count) when the current
//                one is exhausted, processes one neighbor, and
//                conditionally writes the reduced central force when the
//                count strikes zero -- Merrimac's conditional streams.
//   duplicated : like fixed, but never materializes or writes neighbor
//                partial forces (each pair is computed twice instead).
#pragma once

#include "src/core/streammd.h"
#include "src/kernel/ir.h"
#include "src/md/water.h"
#include "src/sim/config.h"

namespace smd::core {

/// Stream slot order of each kernel (matching KernelDef::streams):
///   expanded:   [c_pos, n_pos, pbc, f_c, f_n]
///   fixed:      [central, n_pos, f_n, f_c]
///   variable:   [central, n_pos, f_n, f_c]
///   duplicated: [central, n_pos, f_c]
kernel::KernelDef build_water_kernel(Variant variant,
                                     const md::WaterModel& model,
                                     int fixed_list_length = kFixedListLength);

/// Solution flops per molecule-pair interaction, in the paper's counting
/// convention, as actually emitted by these kernels (the census of the
/// expanded kernel body). The paper quotes ~234 with 9 div + 9 sqrt.
kernel::FlopCensus interaction_flops(const md::WaterModel& model);

/// Deliberately inefficient twin of the expanded kernel, the fixture of the
/// verifier's waste lints (analysis/verify_ir.h): it computes the exact
/// same per-pair forces through the same stream interface
/// [c_pos, n_pos, pbc, f_c, f_n], but "computes" its immediates at runtime
/// (IR019), recomputes the first pair's distance vector (IR018), carries a
/// dead r^4 temporary (IR012) and packs the force writes through two-step
/// copy chains (IR020). smdcheck --dataflow, kernel_golden_test,
/// vm_equivalence_test and bench_native_kernels walk it with the shipped
/// kernels.
kernel::KernelDef build_expanded_naive_kernel(const md::WaterModel& model);

/// Expanded-style kernel that additionally streams out the Equation-1
/// energies (Coulomb, Lennard-Jones) per interaction -- GROMACS evaluates
/// V_nb alongside forces on energy steps. Streams:
/// [c_pos, n_pos, pbc, f_c, f_n, energy(2 words)].
kernel::KernelDef build_expanded_energy_kernel(const md::WaterModel& model);

// ---------------------------------------------------------------------------
// Section 5.4 extension: "more complex water models ... can significantly
// increase the amount of arithmetic intensity."
// ---------------------------------------------------------------------------

/// Build an expanded-style interaction kernel for an arbitrary multi-site
/// water model (TIP5P, PPC-style, ...). Site 0 carries the Lennard-Jones
/// well; site pairs whose charge product is zero and that have no LJ term
/// are skipped (e.g. TIP5P's neutral oxygen against hydrogens).
/// Streams: [c_pos (3S), n_pos (3S), shift (3), f_c (3S), f_n (3S)].
kernel::KernelDef build_multisite_kernel(const md::WaterModel& model);

/// Per-interaction characterization of a multi-site kernel on a cluster:
/// arithmetic + bandwidth + a real VLIW schedule.
struct MultisiteProfile {
  int sites = 0;
  int active_pairs = 0;             ///< site pairs actually computed
  kernel::FlopCensus census;        ///< per molecule-pair interaction
  double words_per_interaction = 0; ///< memory words incl. index streams
  double arithmetic_intensity = 0;  ///< flops / word
  double cycles_per_interaction = 0;  ///< scheduled, per cluster
  /// Projected chip-level solution GFLOPS: min(compute bound from the
  /// schedule, bandwidth bound from AI x sustained memory bandwidth).
  double projected_gflops = 0;
};

/// Projects over `cfg`'s clusters and clock; the sustained
/// `mem_words_per_cycle` is a modelling assumption, not a machine fact.
MultisiteProfile profile_multisite_kernel(
    const md::WaterModel& model,
    const sim::MachineConfig& cfg = sim::MachineConfig::merrimac(),
    double mem_words_per_cycle = 4.0);

// ---------------------------------------------------------------------------
// Section 5.4 extension: the blocking scheme as an implementable kernel.
// ---------------------------------------------------------------------------

/// The blocking-scheme interaction kernel: each cluster holds one central
/// molecule of a 16-molecule group; the neighbor cells' molecules are
/// *broadcast* to all clusters through the inter-cluster switch. The
/// kernel applies the cell-pair minimum-image shift carried in the record,
/// masks invalid pairs (dummy padding slots, self interaction) and applies
/// an explicit r^2 < r_c^2 cutoff so results match the list-based
/// reference exactly; only the central-side force is reduced
/// (duplicated-style -- every pair is computed from both sides).
///
/// Streams: [central (10 = 9 pos + molecule id),
///           neighbor (13 = 9 pos + molecule id + 3 shift, broadcast),
///           f_c (9)]
/// block_len = neighbor slots per central group (paving cells x padded
/// cell occupancy).
kernel::KernelDef build_blocked_kernel(const md::WaterModel& model,
                                       double cutoff, int block_len);

}  // namespace smd::core
