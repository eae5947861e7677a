// Reproduces paper Figure 7: overlap of memory and kernel operations for
// the `duplicated` variant, before and after the fix to stream-descriptor-
// register (SDR) allocation.
//
// (a) conservative policy -- an SDR stays bound to a loaded stream until
//     the kernel consuming it retires, so later transfers serialize behind
//     compute and memory latency is not hidden;
// (b) transfer-scoped policy -- the SDR is released when the transfer
//     completes, giving (near-)perfect overlap.
//
// All occupancy numbers here are recomputed from the controller-populated
// Timeline (one begin/end interval per stream op, emitted by the
// scoreboard's tracing hooks) and cross-checked against RunStats' cycle
// counters; a disagreement fails the bench. `--trace PATH` exports the
// same timeline as a Chrome trace-event file, `--json PATH` the record.
#include <cmath>
#include <cstdio>

#include "bench/bench_io.h"
#include "src/core/report.h"
#include "src/core/run.h"
#include "src/obs/trace_event.h"
#include "src/sim/config.h"

using namespace smd;

namespace {

/// Occupancy recomputed from the timeline; `ok` is the RunStats cross-check.
struct TimelineView {
  std::uint64_t kernel_busy = 0;
  std::uint64_t mem_busy = 0;
  std::uint64_t overlap = 0;
  double mem_hidden = 0.0;
  bool ok = true;
};

TimelineView view_from_timeline(const core::VariantResult& r) {
  const auto& run = r.run;
  TimelineView v;
  v.kernel_busy = run.timeline.busy_cycles(sim::Lane::kKernel, run.cycles);
  v.mem_busy = run.timeline.busy_cycles(sim::Lane::kMemory, run.cycles);
  v.overlap = run.timeline.overlap_cycles(run.cycles);
  v.mem_hidden = v.mem_busy ? static_cast<double>(v.overlap) /
                                  static_cast<double>(v.mem_busy)
                            : 0.0;

  // Cross-checks against the scoreboard's own counters. Kernel intervals
  // are disjoint (one kernel at a time), so the union must match the
  // busy-cycle counter exactly; the memory lane unions per-op intervals
  // (issue to retire), which must cover at least the memory system's
  // active cycles and stay within the run.
  if (v.kernel_busy != run.kernel_busy_cycles) {
    std::fprintf(stderr,
                 "FAIL: timeline kernel busy %llu != RunStats %llu\n",
                 static_cast<unsigned long long>(v.kernel_busy),
                 static_cast<unsigned long long>(run.kernel_busy_cycles));
    v.ok = false;
  }
  if (v.mem_busy < run.mem_busy_cycles || v.mem_busy > run.cycles) {
    std::fprintf(stderr,
                 "FAIL: timeline mem busy %llu outside [%llu, %llu]\n",
                 static_cast<unsigned long long>(v.mem_busy),
                 static_cast<unsigned long long>(run.mem_busy_cycles),
                 static_cast<unsigned long long>(run.cycles));
    v.ok = false;
  }
  if (v.overlap != run.overlap_cycles) {
    std::fprintf(stderr, "FAIL: timeline overlap %llu != RunStats %llu\n",
                 static_cast<unsigned long long>(v.overlap),
                 static_cast<unsigned long long>(run.overlap_cycles));
    v.ok = false;
  }
  // The overlap fraction of memory time must be consistent with the cycle
  // accounting: total run time >= kernel + memory - overlap.
  const double accounted = static_cast<double>(v.kernel_busy) +
                           static_cast<double>(v.mem_busy) -
                           static_cast<double>(v.overlap);
  if (accounted > static_cast<double>(run.cycles) * 1.0001) {
    std::fprintf(stderr,
                 "FAIL: kernel+mem-overlap (%.0f) exceeds run cycles (%llu)\n",
                 accounted, static_cast<unsigned long long>(run.cycles));
    v.ok = false;
  }
  return v;
}

TimelineView report(const char* title, const core::VariantResult& r) {
  const auto& run = r.run;
  const TimelineView v = view_from_timeline(r);
  std::printf("%s\n", title);
  std::printf("  total cycles        : %llu\n",
              static_cast<unsigned long long>(run.cycles));
  std::printf("  kernel busy cycles  : %llu\n",
              static_cast<unsigned long long>(v.kernel_busy));
  std::printf("  memory busy cycles  : %llu (timeline), %llu (memsys)\n",
              static_cast<unsigned long long>(v.mem_busy),
              static_cast<unsigned long long>(run.mem_busy_cycles));
  std::printf("  overlapped cycles   : %llu (%.1f%% of memory time hidden)\n",
              static_cast<unsigned long long>(v.overlap),
              100.0 * v.mem_hidden);
  std::printf("  sdr stall cycles    : %llu\n",
              static_cast<unsigned long long>(run.sdr_stall_cycles));
  std::printf("  stream-op intervals : %zu\n\n", run.timeline.intervals().size());
  // Execution snippet, one row per horizon/24 cycles, like the paper's figure.
  std::printf("%s\n", run.timeline.ascii(run.cycles, run.cycles / 24 + 1).c_str());
  return v;
}

obs::Json overlap_json(const core::VariantResult& r, const TimelineView& v) {
  obs::Json j = core::to_json(r);
  j.set("timeline_kernel_busy_cycles", v.kernel_busy)
      .set("timeline_mem_busy_cycles", v.mem_busy)
      .set("timeline_overlap_cycles", v.overlap)
      .set("mem_hidden_fraction", v.mem_hidden)
      .set("consistent_with_runstats", v.ok);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  static const char* kUsage =
      "bench_fig7_overlap [--json path] [--trace path]";
  benchio::check_flags(argc, argv, "bench_fig7_overlap", kUsage,
                       {"--json", "--trace"}, {});
  benchio::JsonOut jout(argc, argv, "bench_fig7_overlap");
  const std::string trace_path =
      benchio::output_path_or_exit(argc, argv, "trace");
  const core::Problem problem = core::Problem::make({});

  // The flawed allocator effectively left only a strip's worth of SDRs
  // usable: combined with holding each loaded stream's SDR until its
  // consuming kernel retired, the next strip's transfers could not start
  // and memory serialized behind compute.
  sim::MachineConfig before = sim::MachineConfig::merrimac();
  before.sdr_policy = sim::SdrPolicy::kConservative;
  before.n_stream_descriptor_registers = 2;

  sim::MachineConfig after = sim::MachineConfig::merrimac();
  after.sdr_policy = sim::SdrPolicy::kTransferScoped;
  after.n_stream_descriptor_registers = 8;

  std::printf("== Figure 7: memory/kernel overlap, variant `duplicated` ==\n\n");
  const auto a = core::run_variant(problem, core::Variant::kDuplicated, before);
  const TimelineView va = report("(a) before: conservative SDR allocation", a);
  const auto b = core::run_variant(problem, core::Variant::kDuplicated, after);
  const TimelineView vb = report("(b) after: transfer-scoped SDR allocation", b);

  std::printf("fix speedup: %.2fx\n",
              static_cast<double>(a.run.cycles) / static_cast<double>(b.run.cycles));

  jout.root().set("machine_before", core::to_json(before));
  jout.root().set("machine_after", core::to_json(after));
  jout.root().set("before", overlap_json(a, va));
  jout.root().set("after", overlap_json(b, vb));
  jout.root().set("speedup", static_cast<double>(a.run.cycles) /
                                 static_cast<double>(b.run.cycles));

  if (!trace_path.empty()) {
    obs::TraceSink sink;
    sink.set_process_name(0, "fig7 (a) conservative SDR");
    a.run.timeline.append_chrome_events(sink, 0, before.clock_ghz);
    sink.set_process_name(1, "fig7 (b) transfer-scoped SDR");
    b.run.timeline.append_chrome_events(sink, 1, after.clock_ghz);
    sink.write(trace_path);
    std::printf("chrome trace written to %s (%zu events)\n", trace_path.c_str(),
                sink.size());
  }

  if (!va.ok || !vb.ok) {
    std::fprintf(stderr, "timeline/RunStats cross-check FAILED\n");
    return 1;
  }
  return jout.finish(0);
}
