// Reproduces paper Figure 9: performance of the StreamMD implementations
// (solution GFLOPS, all-ops GFLOPS, memory references) next to the
// hand-optimized GROMACS baseline on a 2.4 GHz Pentium 4, plus the
// Section 5.1 "optimal" bound and sustained fractions.
#include <cstdio>

#include "bench/bench_io.h"
#include "src/baseline/p4model.h"
#include "src/core/kernels.h"
#include "src/core/report.h"
#include "src/core/run.h"
#include "src/kernel/cost.h"

using namespace smd;

namespace {

/// The Section 5.1 "optimal": every FPU slot busy with required work,
/// divides/square-roots paying their full iterative slot cost.
double optimal_solution_gflops(const core::Problem& problem,
                               const sim::MachineConfig& cfg) {
  const kernel::KernelDef def = core::build_water_kernel(
      core::Variant::kExpanded, problem.system.model());
  std::int64_t slots = 0;
  for (const auto& in : def.body) slots += kernel::op_cost(in.op).fpu_slots;
  const double chip_slots_per_cycle = cfg.n_clusters * cfg.sched.n_fpus;
  const double interactions_per_second =
      chip_slots_per_cycle / static_cast<double>(slots) * cfg.clock_ghz * 1e9;
  return interactions_per_second * problem.flops_per_interaction / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  static const char* kUsage = "bench_fig9_performance [--json path]";
  benchio::check_flags(argc, argv, "bench_fig9_performance", kUsage,
                       {"--json"}, {});
  benchio::JsonOut jout(argc, argv, "bench_fig9_performance");
  const core::Problem problem = core::Problem::make({});
  const sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  const auto results = core::run_all_variants(problem, cfg);

  const baseline::P4Model p4;
  const kernel::FlopCensus census = core::interaction_flops(problem.system.model());
  const double p4_gflops = p4.solution_gflops(census);
  const double optimal = optimal_solution_gflops(problem, cfg);

  std::printf("== Figure 9: performance of the StreamMD implementations ==\n%s\n",
              core::format_performance_table(results, p4_gflops, optimal).c_str());

  const core::VariantResult* variable = nullptr;
  const core::VariantResult* expanded = nullptr;
  const core::VariantResult* fixed = nullptr;
  const core::VariantResult* duplicated = nullptr;
  for (const auto& r : results) {
    switch (r.variant) {
      case core::Variant::kVariable: variable = &r; break;
      case core::Variant::kExpanded: expanded = &r; break;
      case core::Variant::kFixed: fixed = &r; break;
      case core::Variant::kDuplicated: duplicated = &r; break;
    }
  }
  std::printf("headline comparisons (paper: +84%% vs expanded, +26%% vs fixed,\n"
              " fixed +46%% vs expanded, ~2-3x vs Pentium 4):\n");
  std::printf("  variable vs expanded   : %+.0f%%\n",
              100.0 * (variable->solution_gflops / expanded->solution_gflops - 1));
  std::printf("  variable vs fixed      : %+.0f%%\n",
              100.0 * (variable->solution_gflops / fixed->solution_gflops - 1));
  std::printf("  variable vs duplicated : %+.0f%%\n",
              100.0 * (variable->solution_gflops / duplicated->solution_gflops - 1));
  std::printf("  fixed vs expanded      : %+.0f%%\n",
              100.0 * (fixed->solution_gflops / expanded->solution_gflops - 1));
  std::printf("  variable vs Pentium 4  : %.1fx\n",
              variable->solution_gflops / p4_gflops);
  std::printf("  variable sustains %.0f%% of optimal, %.0f%% of the %.0f GFLOPS peak\n",
              100.0 * variable->solution_gflops / optimal,
              100.0 * variable->all_gflops / cfg.peak_gflops(), cfg.peak_gflops());
  std::printf("  max force error vs reference: %.2e (all variants validated)\n",
              variable->max_force_rel_err);

  jout.set_record(core::bench_record("bench_fig9_performance", cfg, results));
  obs::Json baselines = obs::Json::object();
  baselines.set("p4_solution_gflops", p4_gflops)
      .set("optimal_solution_gflops", optimal)
      .set("peak_gflops", cfg.peak_gflops());
  jout.root().set("baselines", std::move(baselines));
  return jout.finish(0);
}
