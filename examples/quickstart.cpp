// Quickstart: simulate one StreamMD force evaluation on a Merrimac node.
//
// Builds a small water box, runs the paper's fastest variant (`variable`,
// using Merrimac's conditional streams) on the cycle-level simulator,
// validates the forces against the reference implementation, and prints
// the headline statistics. Start here; the other examples go deeper.
#include <cstdio>

#include "bench/bench_io.h"
#include "src/core/run.h"

using namespace smd;

int main(int argc, char** argv) {
  benchio::check_flags(argc, argv, "quickstart", "quickstart", {}, {});

  // 1. Describe the experiment: a 216-molecule SPC water box with a
  //    1 nm cutoff (use 900 for the paper's full dataset).
  core::ExperimentSetup setup;
  setup.n_molecules = 216;
  setup.cutoff = 0.9;

  // 2. Build the problem: system, neighbor list, reference forces.
  const core::Problem problem = core::Problem::make(setup);
  std::printf("water box: %d molecules, %.2f nm cutoff, %lld pair interactions\n",
              problem.system.n_molecules(), setup.cutoff,
              static_cast<long long>(problem.half_list.n_pairs()));

  // 3. Run the `variable` variant on the default Merrimac configuration.
  const core::VariantResult r =
      core::run_variant(problem, core::Variant::kVariable);

  // 4. Report.
  std::printf("\nsimulated one force-evaluation time step on Merrimac:\n");
  std::printf("  cycles                : %llu (%.3f ms at 1 GHz)\n",
              static_cast<unsigned long long>(r.run.cycles), r.time_ms);
  std::printf("  solution GFLOPS       : %.2f\n", r.solution_gflops);
  std::printf("  memory words moved    : %lld\n", static_cast<long long>(r.mem_refs));
  std::printf("  arithmetic intensity  : %.1f flops/word\n", r.ai_measured);
  std::printf("  LRF / SRF / MEM refs  : %.1f%% / %.1f%% / %.1f%%\n",
              100 * r.lrf_fraction, 100 * r.srf_fraction, 100 * r.mem_fraction);
  std::printf("  kernel launches       : %d (software-pipelined strips)\n",
              r.run.n_kernel_launches);
  std::printf("  max force error       : %.2e (vs double-precision reference)\n",
              r.max_force_rel_err);

  return r.max_force_rel_err < 1e-9 ? 0 : 1;
}
