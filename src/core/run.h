// End-to-end StreamMD runs: dataset -> layout -> stream program ->
// simulation -> validation -> paper metrics.
#pragma once

#include <string>
#include <vector>

#include "src/core/layouts.h"
#include "src/core/program.h"
#include "src/md/force_ref.h"
#include "src/md/neighborlist.h"
#include "src/md/system.h"
#include "src/sim/machine.h"

namespace smd::core {

/// The experiment configuration of the paper's Section 4.1: one time-step
/// of force computation for a 900 water-molecule system.
struct ExperimentSetup {
  int n_molecules = 900;
  double cutoff = 1.0;      ///< nm
  std::uint64_t seed = 42;
  int fixed_list_length = kFixedListLength;
  /// Strip length in kernel rounds (LayoutOptions::strip_rounds); 0 picks
  /// automatically so three strips' buffers fit in the SRF. A tuning axis.
  std::int64_t strip_rounds = 0;
};

/// The layout options of a run of `setup` on `cfg`: the machine's cluster
/// count and SRF size, the setup's list length and strip length.
LayoutOptions layout_options(const ExperimentSetup& setup,
                             const sim::MachineConfig& cfg);

/// Everything measured from one variant run (Figures 8-9, Table 4).
struct VariantResult {
  Variant variant;
  std::string name;
  sim::RunStats run;

  // Dataset properties (Table 2).
  std::int64_t n_real_interactions = 0;
  std::int64_t n_computed_interactions = 0;
  std::int64_t n_central_blocks = 0;
  std::int64_t n_neighbor_slots = 0;

  // Performance (Figure 9).
  double time_ms = 0.0;
  double solution_gflops = 0.0;  ///< useful flops / time
  double all_gflops = 0.0;       ///< all executed flops / time
  std::int64_t mem_refs = 0;     ///< words moved SRF <-> memory

  // Arithmetic intensity (Table 4): flops per memory word.
  double ai_calculated = 0.0;  ///< from the layout's analytic counts
  double ai_measured = 0.0;    ///< executed flops / measured memory words

  // Locality (Figure 8): fraction of data references served per level.
  double lrf_fraction = 0.0;
  double srf_fraction = 0.0;
  double mem_fraction = 0.0;

  // Kernel schedule (Figure 10 context).
  double kernel_cycles_per_iteration = 0.0;
  double kernel_issue_rate = 0.0;

  // Validation against the reference forces.
  double max_force_rel_err = 0.0;
};

/// Precomputed problem shared by all variant runs.
struct Problem {
  ExperimentSetup setup;
  md::WaterSystem system;
  md::NeighborList half_list;
  md::ForceEnergy reference;
  double flops_per_interaction = 0.0;  ///< solution-flop census

  static Problem make(const ExperimentSetup& setup = {});
};

/// Run one variant on a machine configuration.
VariantResult run_variant(const Problem& problem, Variant variant,
                          const sim::MachineConfig& cfg =
                              sim::MachineConfig::merrimac());

/// Run all four variants (paper Figure 9 order).
std::vector<VariantResult> run_all_variants(
    const Problem& problem,
    const sim::MachineConfig& cfg = sim::MachineConfig::merrimac());

/// Expanded-variant run whose kernel additionally streams out Equation 1's
/// non-bonded energies (the quantity GROMACS reports on energy steps).
struct EnergyRunResult {
  VariantResult result;
  double e_coulomb = 0.0;
  double e_lj = 0.0;
};
EnergyRunResult run_expanded_with_energy(
    const Problem& problem,
    const sim::MachineConfig& cfg = sim::MachineConfig::merrimac());

}  // namespace smd::core
