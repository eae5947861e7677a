// Reproduces paper Figure 8: locality of the variants -- the percentage of
// data references served by each level of the register hierarchy (LRF,
// SRF, memory). The paper reports 89/93/95/96% LRF for expanded / fixed /
// variable / duplicated.
#include <cstdio>

#include "bench/bench_io.h"
#include "src/core/report.h"
#include "src/core/run.h"

using namespace smd;

int main(int argc, char** argv) {
  static const char* kUsage = "bench_fig8_locality [--json path]";
  benchio::check_flags(argc, argv, "bench_fig8_locality", kUsage,
                       {"--json"}, {});
  benchio::JsonOut jout(argc, argv, "bench_fig8_locality");
  const core::Problem problem = core::Problem::make({});
  const sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  const auto results = core::run_all_variants(problem, cfg);
  std::printf("== Figure 8: locality of the implementations ==\n%s\n",
              core::format_locality_table(results).c_str());
  for (const auto& r : results) {
    const int width = 50;
    const int lrf = static_cast<int>(r.lrf_fraction * width + 0.5);
    const int srf = static_cast<int>(r.srf_fraction * width + 0.5);
    std::printf("%-10s |%s%s%s|\n", r.name.c_str(),
                std::string(static_cast<std::size_t>(lrf), 'L').c_str(),
                std::string(static_cast<std::size_t>(srf), 's').c_str(),
                std::string(static_cast<std::size_t>(width - lrf - srf), '.')
                    .c_str());
  }
  std::printf("(L = LRF, s = SRF, . = memory)\n");
  jout.set_record(core::bench_record("bench_fig8_locality", cfg, results));
  return jout.finish(0);
}
