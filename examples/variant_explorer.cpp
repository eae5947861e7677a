// Variant explorer: the paper's Section 3 trade-off study as a runnable
// tour. Runs all four StreamMD variants on the same dataset and shows how
// each maps the variable-length neighbor lists onto the SIMD cluster
// array -- replication, padding, duplication, conditional streams -- and
// what that does to arithmetic intensity, locality and run time.
// Optional argument: number of molecules (default 900, the paper dataset);
// a malformed count or one below 1 exits 2.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_io.h"
#include "src/core/report.h"
#include "src/core/run.h"

using namespace smd;

int main(int argc, char** argv) {
  static const char* kTool = "variant_explorer";
  static const char* kUsage = "variant_explorer [molecules]";
  const std::vector<std::string> args =
      benchio::check_flags(argc, argv, kTool, kUsage, {}, {}, 1);
  core::ExperimentSetup setup;
  if (!args.empty()) {
    setup.n_molecules = benchio::count_or_exit(
        kTool, "molecules",
        benchio::int_or_exit(kTool, "molecules", args.front(), kUsage),
        benchio::kMolecules, kUsage);
  }

  const core::Problem problem = core::Problem::make(setup);
  std::printf("dataset: %d molecules, %lld interactions (mean degree %.1f)\n\n",
              problem.system.n_molecules(),
              static_cast<long long>(problem.half_list.n_pairs()),
              problem.half_list.mean_degree());

  const auto results = core::run_all_variants(problem);

  std::printf("how each variant shapes the work:\n");
  for (const auto& r : results) {
    // A box with no interaction pair computes none: 0% useful.
    const double useful =
        r.n_computed_interactions == 0
            ? 0.0
            : 100.0 * static_cast<double>(r.n_real_interactions) *
                  (r.variant == core::Variant::kDuplicated ? 2.0 : 1.0) /
                  static_cast<double>(r.n_computed_interactions);
    std::printf("  %-10s %s\n", r.name.c_str(), core::variant_description(r.variant));
    std::printf("             central blocks: %lld, neighbor slots: %lld, "
                "computed interactions: %lld (%.0f%% useful)\n",
                static_cast<long long>(r.n_central_blocks),
                static_cast<long long>(r.n_neighbor_slots),
                static_cast<long long>(r.n_computed_interactions), useful);
  }

  std::printf("\narithmetic intensity:\n%s",
              core::format_arithmetic_intensity_table(results).c_str());
  std::printf("\nlocality:\n%s",
              core::format_locality_table(results).c_str());
  std::printf("\nperformance:\n%s",
              core::format_performance_table(results, 0.0, 0.0).c_str());

  for (const auto& r : results) {
    if (r.max_force_rel_err > 1e-9) {
      std::printf("VALIDATION FAILED for %s\n", r.name.c_str());
      return 1;
    }
  }
  std::printf("\nall variants validated against the reference forces.\n");
  return 0;
}
