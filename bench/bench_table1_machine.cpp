// Reproduces paper Table 1: parameters of the simulated Merrimac node.
#include <cstdio>

#include "bench/bench_io.h"
#include "src/core/report.h"
#include "src/sim/config.h"

int main(int argc, char** argv) {
  static const char* kUsage = "bench_table1_machine [--json path]";
  smd::benchio::check_flags(argc, argv, "bench_table1_machine", kUsage,
                            {"--json"}, {});
  smd::benchio::JsonOut jout(argc, argv, "bench_table1_machine");
  const auto cfg = smd::sim::MachineConfig::merrimac();
  std::printf("== Table 1: Merrimac parameters ==\n%s\n",
              smd::core::format_machine_table(cfg).c_str());
  jout.root().set("machine", smd::core::to_json(cfg));
  return jout.finish(0);
}
