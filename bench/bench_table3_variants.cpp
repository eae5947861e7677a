// Reproduces paper Table 3: the StreamMD implementation variants, plus a
// scheduling column: each variant's kernel body is modulo-scheduled with
// the machine's schedule options (unroll 2, as every run schedules it) and
// the achieved II reported. A kernel that cannot be scheduled no longer
// fails silently -- the ScheduleError's structured diagnostic (kernel
// name, best-found II bound, binding conflict) lands in the JSON output.
//
// With `--molecules N[,N...]` the bench additionally runs every variant
// through the cycle-accurate simulator at each molecule count and reports
// simulated cycles plus host wall-clock per variant. Combined with
// `--engine stepped|event|lockstep` this is the engine-performance
// harness: the two engines return bit-identical statistics, so comparing
// their wall-clock at a fixed molecule count isolates simulator speed
// (EXPERIMENTS.md records the event-engine speedup measured this way).
#include <chrono>
#include <cstdio>

#include "bench/bench_io.h"
#include "src/core/kernels.h"
#include "src/core/report.h"
#include "src/core/run.h"
#include "src/core/streammd.h"
#include "src/kernel/schedule.h"
#include "src/md/water.h"
#include "src/sim/config.h"

int main(int argc, char** argv) {
  static const char* kUsage =
      "bench_table3_variants [--molecules N[,N...]] "
      "[--engine stepped|event|lockstep] "
      "[--kernel-backend interp|vm|lockstep] [--json path]";
  smd::benchio::check_flags(argc, argv, "bench_table3_variants", kUsage,
                            {"--molecules", "--engine", "--kernel-backend",
                             "--json"},
                            {});
  smd::benchio::JsonOut jout(argc, argv, "bench_table3_variants");
  // Parse (and so validate) every flag up front: a bad value must exit 2
  // before any work, and an engine/backend value even when --molecules is
  // absent and no simulation would consume it.
  const std::vector<int> counts =
      smd::benchio::flag_value(argc, argv, "molecules").empty()
          ? std::vector<int>{}
          : smd::benchio::molecules_or_exit(argc, argv, "bench_table3_variants",
                                            0, kUsage, /*list=*/true);
  const smd::sim::SimEngine engine = smd::benchio::engine_flag(argc, argv);
  const smd::kernel::KernelBackend kernel_backend =
      smd::benchio::kernel_backend_flag(argc, argv);
  std::printf("== Table 3: variants of StreamMD ==\n%s\n",
              smd::core::format_variants_table().c_str());
  smd::obs::Json variants = smd::obs::Json::array();
  for (smd::core::Variant v : smd::core::kAllVariants) {
    smd::obs::Json row = smd::obs::Json::object();
    row.set("name", smd::core::variant_name(v));
    row.set("description", smd::core::variant_description(v));
    const smd::kernel::KernelDef def =
        smd::core::build_water_kernel(v, smd::md::spc());
    try {
      const smd::kernel::Schedule s = smd::kernel::schedule_body(
          def, smd::sim::MachineConfig::merrimac().sched);
      smd::obs::Json sched = smd::obs::Json::object();
      sched.set("ii", static_cast<std::int64_t>(s.ii));
      sched.set("unroll", static_cast<std::int64_t>(s.unroll));
      sched.set("cycles_per_iteration", s.cycles_per_iteration());
      sched.set("fpu_occupancy", s.fpu_occupancy);
      row.set("schedule", std::move(sched));
      std::printf("  %-12s scheduled: II=%d (%.1f cycles/iteration)\n",
                  smd::core::variant_name(v), s.ii, s.cycles_per_iteration());
    } catch (const smd::kernel::ScheduleError& e) {
      smd::obs::Json err = smd::obs::Json::object();
      err.set("kernel", e.kernel());
      err.set("res_mii", static_cast<std::int64_t>(e.res_mii()));
      err.set("max_ii", static_cast<std::int64_t>(e.max_ii()));
      err.set("conflict", e.conflict());
      err.set("message", std::string(e.what()));
      row.set("schedule_error", std::move(err));
      std::printf("  %-12s SCHEDULE FAILED: %s\n",
                  smd::core::variant_name(v), e.what());
    }
    variants.push_back(std::move(row));
  }
  jout.root().set("variants", std::move(variants));

  if (!counts.empty()) {
    smd::obs::Json sims = smd::obs::Json::array();
    for (const int n : counts) {
      smd::core::ExperimentSetup setup;
      setup.n_molecules = n;
      const smd::core::Problem problem = smd::core::Problem::make(setup);
      smd::sim::MachineConfig cfg = smd::sim::MachineConfig::merrimac();
      cfg.engine = engine;
      cfg.kernel_backend = kernel_backend;
      std::printf("\n== simulating %d molecules (%s engine, %s kernels) ==\n",
                  n, smd::sim::engine_name(engine),
                  smd::kernel::kernel_backend_name(kernel_backend));
      const auto t0 = std::chrono::steady_clock::now();
      const auto results = smd::core::run_all_variants(problem, cfg);
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      smd::obs::Json row = smd::obs::Json::object();
      row.set("molecules", static_cast<std::int64_t>(n));
      row.set("engine", smd::sim::engine_name(engine));
      row.set("kernel_backend",
              smd::kernel::kernel_backend_name(kernel_backend));
      row.set("wall_ms", wall_ms);
      smd::obs::Json runs = smd::obs::Json::array();
      for (const auto& r : results) {
        smd::obs::Json vr = smd::obs::Json::object();
        vr.set("name", r.name);
        vr.set("cycles", static_cast<std::int64_t>(r.run.cycles));
        vr.set("time_ms", r.time_ms);
        vr.set("solution_gflops", r.solution_gflops);
        runs.push_back(std::move(vr));
        std::printf("  %-12s %12llu cycles  %8.3f ms simulated\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.run.cycles), r.time_ms);
      }
      row.set("runs", std::move(runs));
      sims.push_back(std::move(row));
      std::printf("  host wall-clock: %.1f ms for all four variants\n",
                  wall_ms);
    }
    jout.root().set("simulation", std::move(sims));
  }
  return jout.finish(0);
}
