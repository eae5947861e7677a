// Reproduces paper Figure 10: VLIW schedules of the `variable` interaction
// kernel before (plain list scheduling, no iteration overlap) and after
// optimization (unroll x2 + modulo/software-pipelined scheduling), with
// the issue-rate statistics quoted in Section 5.1.
#include <cstdio>

#include "bench/bench_io.h"
#include "src/core/kernels.h"
#include "src/kernel/schedule.h"

using namespace smd;

namespace {

obs::Json schedule_json(const kernel::Schedule& s) {
  obs::Json j = obs::Json::object();
  j.set("ii", s.ii)
      .set("unroll", s.unroll)
      .set("cycles_per_iteration", s.cycles_per_iteration())
      .set("fpu_occupancy", s.fpu_occupancy)
      .set("issue_rate", s.issue_rate);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  static const char* kUsage = "bench_fig10_schedule [--json path]";
  benchio::check_flags(argc, argv, "bench_fig10_schedule", kUsage,
                       {"--json"}, {});
  benchio::JsonOut jout(argc, argv, "bench_fig10_schedule");
  const kernel::KernelDef def =
      core::build_water_kernel(core::Variant::kVariable, md::spc());

  kernel::ScheduleOptions before_opts;
  before_opts.software_pipeline = false;
  before_opts.unroll = 1;
  const kernel::Schedule before = kernel::schedule_body(def, before_opts);

  kernel::ScheduleOptions after_opts;
  after_opts.software_pipeline = true;
  after_opts.unroll = 2;
  const kernel::Schedule after = kernel::schedule_body(def, after_opts);

  std::printf("== Figure 10: schedules of the variable interaction kernel ==\n\n");
  std::printf("(a) before optimization: list schedule, no overlap\n");
  std::printf("    cycles/iteration: %.1f   FPU occupancy: %.1f%%   issue rate: %.1f%%\n\n",
              before.cycles_per_iteration(), 100.0 * before.fpu_occupancy,
              100.0 * before.issue_rate);
  std::printf("%s\n", before.ascii(40).c_str());
  std::printf("    (first 40 of %d cycles shown)\n\n", before.ii);

  std::printf("(b) after optimization: unroll x2 + software pipelining\n");
  std::printf("    II: %d cycles for %d interactions -> %.1f cycles/iteration\n",
              after.ii, after.unroll, after.cycles_per_iteration());
  std::printf("    FPU occupancy: %.1f%%   new instruction issued on %.0f%% of cycles\n\n",
              100.0 * after.fpu_occupancy, 100.0 * after.issue_rate);
  std::printf("%s\n", after.ascii(40).c_str());
  std::printf("    (first 40 of %d cycles shown)\n\n", after.ii);

  std::printf("execution-rate improvement: %.0f%% (paper reports a double-digit\n"
              "percentage improvement from the same transformation)\n",
              100.0 * (before.cycles_per_iteration() / after.cycles_per_iteration() - 1.0));
  jout.root().set("before", schedule_json(before));
  jout.root().set("after", schedule_json(after));
  jout.root().set("rate_improvement",
                  before.cycles_per_iteration() / after.cycles_per_iteration() - 1.0);
  return jout.finish(0);
}
