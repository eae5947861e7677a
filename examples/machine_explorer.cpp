// Machine-design ablations: how StreamMD responds when Merrimac's knobs
// move -- the kind of feedback the paper says StreamMD provided "to the
// Merrimac hardware and software development teams" (Section 5.3).
//
// Sweeps: cluster count (compute), DRAM bandwidth (memory), SDR allocation
// policy (overlap), and kernel unrolling (scheduling), all on the
// `variable` variant of a mid-size dataset.
#include <cstdio>

#include "bench/bench_io.h"
#include "src/core/run.h"
#include "src/util/table.h"

using namespace smd;

namespace {

core::VariantResult run_cfg(const core::Problem& p, sim::MachineConfig cfg) {
  return core::run_variant(p, core::Variant::kVariable, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  benchio::check_flags(argc, argv, "machine_explorer", "machine_explorer",
                       {}, {});
  core::ExperimentSetup setup;
  setup.n_molecules = 300;
  const core::Problem problem = core::Problem::make(setup);
  std::printf("dataset: %d molecules, %lld interactions\n\n",
              problem.system.n_molecules(),
              static_cast<long long>(problem.half_list.n_pairs()));

  {
    util::Table t({"clusters", "peak GFLOPS", "cycles", "solution GFLOPS",
                   "kernel-bound?"});
    for (int clusters : {4, 8, 16, 32}) {
      sim::MachineConfig cfg = sim::MachineConfig::merrimac();
      cfg.n_clusters = clusters;
      const auto r = run_cfg(problem, cfg);
      t.add_row({std::to_string(clusters), util::Table::num(cfg.peak_gflops(), 0),
                 util::Table::integer(static_cast<long long>(r.run.cycles)),
                 util::Table::num(r.solution_gflops, 2),
                 r.run.kernel_busy_cycles > r.run.mem_busy_cycles ? "yes" : "no"});
    }
    std::printf("compute scaling (cluster count):\n%s\n", t.render().c_str());
  }

  {
    util::Table t({"DRAM GB/s", "cycles", "solution GFLOPS"});
    for (double wpc : {0.15, 0.3, 0.6, 1.2}) {
      sim::MachineConfig cfg = sim::MachineConfig::merrimac();
      cfg.mem.dram.channel_words_per_cycle = wpc;
      const auto r = run_cfg(problem, cfg);
      t.add_row({util::Table::num(wpc * cfg.mem.dram.n_channels * 8, 1),
                 util::Table::integer(static_cast<long long>(r.run.cycles)),
                 util::Table::num(r.solution_gflops, 2)});
    }
    std::printf("memory-bandwidth sensitivity:\n%s\n", t.render().c_str());
  }

  {
    util::Table t({"SDR policy / count", "cycles", "memory hidden"});
    for (auto [policy, sdrs, name] :
         {std::tuple{sim::SdrPolicy::kConservative, 2, "conservative x2"},
          std::tuple{sim::SdrPolicy::kConservative, 8, "conservative x8"},
          std::tuple{sim::SdrPolicy::kTransferScoped, 8, "transfer-scoped x8"}}) {
      sim::MachineConfig cfg = sim::MachineConfig::merrimac();
      cfg.sdr_policy = policy;
      cfg.n_stream_descriptor_registers = sdrs;
      const auto r = run_cfg(problem, cfg);
      const double hidden =
          r.run.mem_busy_cycles
              ? 100.0 * static_cast<double>(r.run.overlap_cycles) /
                    static_cast<double>(r.run.mem_busy_cycles)
              : 0.0;
      t.add_row({name, util::Table::integer(static_cast<long long>(r.run.cycles)),
                 util::Table::num(hidden, 1) + "%"});
    }
    std::printf("stream-descriptor-register allocation (Figure 7's knob):\n%s\n",
                t.render().c_str());
  }

  {
    util::Table t({"unroll", "kernel cycles/iter", "issue rate", "cycles"});
    for (int unroll : {1, 2, 4}) {
      sim::MachineConfig cfg = sim::MachineConfig::merrimac();
      cfg.sched.unroll = unroll;
      const auto r = run_cfg(problem, cfg);
      t.add_row({std::to_string(unroll),
                 util::Table::num(r.kernel_cycles_per_iteration, 1),
                 util::Table::percent(r.kernel_issue_rate, 0),
                 util::Table::integer(static_cast<long long>(r.run.cycles))});
    }
    std::printf("kernel unrolling (Figure 10's knob):\n%s\n", t.render().c_str());
  }
  return 0;
}
