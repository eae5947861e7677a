// Reproduces paper Table 4: arithmetic intensity (flops per memory word)
// of the StreamMD variants -- calculated analytically from the data-set
// counts and measured from the simulated run.
#include <cstdio>

#include "bench/bench_io.h"
#include "src/core/report.h"
#include "src/core/run.h"

using namespace smd;

int main(int argc, char** argv) {
  static const char* kUsage = "bench_table4_arithmetic_intensity [--json path]";
  benchio::check_flags(argc, argv, "bench_table4_arithmetic_intensity", kUsage,
                       {"--json"}, {});
  benchio::JsonOut jout(argc, argv, "bench_table4_arithmetic_intensity");
  const core::Problem problem = core::Problem::make({});
  const sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  const auto results = core::run_all_variants(problem, cfg);
  std::printf("== Table 4: arithmetic intensity ==\n%s\n",
              core::format_arithmetic_intensity_table(results).c_str());
  std::printf(
      "(flops per interaction in the paper's convention: %.0f, of which\n"
      " 9 divides and 9 square roots; the paper quotes ~234)\n",
      problem.flops_per_interaction);
  jout.set_record(
      core::bench_record("bench_table4_arithmetic_intensity", cfg, results));
  jout.root().set("flops_per_interaction", problem.flops_per_interaction);
  return jout.finish(0);
}
