#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "src/analysis/diag.h"
#include "src/core/report.h"
#include "src/kernel/ir.h"
#include "src/obs/json.h"
#include "src/util/rng.h"
#include "src/sim/config.h"
#include "src/sim/kernelexec.h"
#include "src/sim/machine.h"
#include "src/sim/srf.h"
#include "src/sim/trace.h"

namespace smd::sim {
namespace {

using Reg = kernel::KernelBuilder::Reg;

/// y = x * x elementwise.
kernel::KernelDef make_square() {
  kernel::KernelBuilder kb("square");
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("y", 1);
  const auto x = kb.read(in, 1);
  const Reg y = kb.mul(x[0], x[0]);
  kb.write(out, y, 1);
  return kb.build();
}

/// A machine config scaled down for tests.
MachineConfig test_config() {
  MachineConfig cfg = MachineConfig::merrimac();
  cfg.kernel_startup_cycles = 10;
  cfg.mem.dram.access_latency = 20;
  return cfg;
}

TEST(Config, MerrimacParametersMatchPaperTable1) {
  const MachineConfig cfg = MachineConfig::merrimac();
  EXPECT_EQ(cfg.n_clusters, 16);
  EXPECT_EQ(cfg.sched.n_fpus, 4);
  EXPECT_DOUBLE_EQ(cfg.clock_ghz, 1.0);
  EXPECT_DOUBLE_EQ(cfg.peak_gflops(), 128.0);
  EXPECT_EQ(cfg.srf_words, 131072);             // 1 MB
  EXPECT_EQ(cfg.mem.cache.total_words, 131072); // 1 MB
  EXPECT_EQ(cfg.mem.cache.n_banks, 8);
  EXPECT_EQ(cfg.mem.n_address_generators, 2);
  EXPECT_EQ(cfg.mem.scatter_add.latency, 4);
  EXPECT_EQ(cfg.mem.scatter_add.combining_entries, 8);
  // 38.4 GB/s peak DRAM.
  EXPECT_NEAR(cfg.dram_words_per_cycle() * 8.0, 38.4, 1e-9);
}

// The defaults are the Table 1 machine, schedule included: merrimac()
// adds nothing to them.
TEST(Config, DefaultConfigIsMerrimac) {
  EXPECT_EQ(core::to_json(MachineConfig{}).dump(),
            core::to_json(MachineConfig::merrimac()).dump());
}

// The scheduler's FPU count and SRF port are the machine's: a zero in
// either is reported once, by MC002 or MC007, and peak_gflops follows.
TEST(Config, ScheduleResourcesAreTheMachineFacts) {
  MachineConfig cfg;
  cfg.sched.n_fpus = 8;
  EXPECT_DOUBLE_EQ(cfg.peak_gflops(), 256.0);
  cfg.sched.n_fpus = 0;
  cfg.sched.srf_words_per_cycle = 0;
  const analysis::Diagnostics d = cfg.validate();
  EXPECT_EQ(d.errors(), 2) << d.format();
  EXPECT_EQ(d.count("MC002"), 1) << d.format();
  EXPECT_EQ(d.count("MC007"), 1) << d.format();
}

// MC016: the memory system sizes its per-bank request rings and MSHR
// tables by these capacities. A zero-word DRAM row used to kill the process
// with SIGFPE, and a zero-capacity queue or MSHR table spun until the
// deadlock detector fired; both are now rejected before simulating.
void expect_mc016(const MachineConfig& cfg, const std::string& field) {
  const analysis::Diagnostics diags = cfg.validate();
  EXPECT_EQ(diags.errors(), 1) << diags.format();
  const analysis::Diagnostic* d = diags.find("MC016");
  ASSERT_NE(d, nullptr) << diags.format();
  EXPECT_NE(d->message.find(field), std::string::npos) << d->message;

  Machine machine(cfg);
  const kernel::KernelDef def = make_square();
  StreamProgram prog;
  const StreamId s_in = prog.new_stream(16);
  const StreamId s_out = prog.new_stream(16);
  mem::MemOpDesc load;
  load.base = machine.memory().alloc(16);
  load.n_records = 16;
  prog.load(load, s_in);
  prog.kernel(&def, {s_in, s_out}, 1);
  EXPECT_THROW(machine.run(prog), analysis::CheckFailure) << field;
}

TEST(Config, Mc016RejectsZeroBankQueueDepth) {
  MachineConfig cfg = test_config();
  cfg.mem.cache.bank_queue_depth = 0;
  expect_mc016(cfg, "mem.cache.bank_queue_depth");
}

TEST(Config, Mc016RejectsZeroMshrsPerBank) {
  MachineConfig cfg = test_config();
  cfg.mem.cache.mshrs_per_bank = 0;
  expect_mc016(cfg, "mem.cache.mshrs_per_bank");
}

TEST(Config, Mc016RejectsZeroDramReadQueueDepth) {
  MachineConfig cfg = test_config();
  cfg.mem.dram.read_queue_depth = 0;
  expect_mc016(cfg, "mem.dram.read_queue_depth");
}

TEST(Config, Mc016RejectsZeroDramRowWords) {
  MachineConfig cfg = test_config();
  cfg.mem.dram.row_words = 0;
  expect_mc016(cfg, "mem.dram.row_words");
}

TEST(Config, Mc016RejectsNegativeHitLatency) {
  MachineConfig cfg = test_config();
  cfg.mem.cache.hit_latency = -1;
  expect_mc016(cfg, "mem.cache.hit_latency");
}

TEST(Config, Mc016RejectsNegativeDramAccessLatency) {
  MachineConfig cfg = test_config();
  cfg.mem.dram.access_latency = -1;
  expect_mc016(cfg, "mem.dram.access_latency");
}

TEST(Config, Mc016AcceptsUnitCapacitiesAndZeroLatencies) {
  MachineConfig cfg = test_config();
  cfg.mem.cache.bank_queue_depth = 1;
  cfg.mem.cache.mshrs_per_bank = 1;
  cfg.mem.dram.read_queue_depth = 1;
  cfg.mem.dram.row_words = 1;
  cfg.mem.cache.hit_latency = 0;
  cfg.mem.dram.access_latency = 0;
  EXPECT_EQ(cfg.validate().count("MC016"), 0) << cfg.validate().format();
}

TEST(Srf, AllocationAccounting) {
  SrfAllocator srf(100);
  EXPECT_TRUE(srf.try_alloc(60));
  EXPECT_FALSE(srf.try_alloc(50));
  EXPECT_TRUE(srf.try_alloc(40));
  EXPECT_EQ(srf.in_use(), 100);
  srf.free(60);
  EXPECT_EQ(srf.in_use(), 40);
  EXPECT_EQ(srf.peak(), 100);
}

TEST(Timeline, BusyAndOverlap) {
  Timeline tl;
  tl.add(Lane::kKernel, 0, 10, "k");
  tl.add(Lane::kMemory, 5, 15, "m");
  EXPECT_EQ(tl.busy_cycles(Lane::kKernel, 20), 10u);
  EXPECT_EQ(tl.busy_cycles(Lane::kMemory, 20), 10u);
  EXPECT_EQ(tl.overlap_cycles(20), 5u);
}

TEST(Timeline, UnionOfOverlappingIntervals) {
  Timeline tl;
  tl.add(Lane::kMemory, 0, 10, "a");
  tl.add(Lane::kMemory, 5, 12, "b");
  EXPECT_EQ(tl.busy_cycles(Lane::kMemory, 20), 12u);
}

TEST(Timeline, AsciiHasRows) {
  Timeline tl;
  tl.add(Lane::kKernel, 0, 100, "k");
  const std::string s = tl.ascii(100, 25);
  EXPECT_NE(s.find("kernel"), std::string::npos);
  EXPECT_NE(s.find('#'), std::string::npos);
}

TEST(Timeline, IntervalStraddlingHorizonIsClipped) {
  Timeline tl;
  tl.add(Lane::kKernel, 90, 120, "k");
  EXPECT_EQ(tl.busy_cycles(Lane::kKernel, 100), 10u);
  EXPECT_EQ(tl.busy_cycles(Lane::kKernel, 200), 30u);
  // A clip that lands exactly on the interval start must not create an
  // inverted or empty span in merged().
  EXPECT_TRUE(tl.merged(Lane::kKernel, 90).empty());
  EXPECT_EQ(tl.busy_cycles(Lane::kKernel, 90), 0u);
}

TEST(Timeline, ZeroLengthIntervalsDoNotPolluteOccupancy) {
  // Regression: zero-length intervals used to be silently discarded by
  // add(); they are now kept as markers but must stay invisible to every
  // occupancy quantity, including when sandwiched between real spans.
  Timeline tl;
  tl.add(Lane::kMemory, 0, 10, "a");
  tl.add(Lane::kMemory, 10, 10, "marker");
  tl.add(Lane::kMemory, 10, 20, "b");
  EXPECT_EQ(tl.intervals().size(), 3u);
  EXPECT_EQ(tl.busy_cycles(Lane::kMemory, 100), 20u);
  const auto spans = tl.merged(Lane::kMemory, 100);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (std::pair<std::uint64_t, std::uint64_t>{0, 20}));
}

TEST(Timeline, StallLaneIsIndependentOfKernelAndMemory) {
  Timeline tl;
  tl.add(Lane::kKernel, 0, 50, "k");
  tl.add(Lane::kStall, 20, 40, "sdr-stall");
  EXPECT_EQ(tl.busy_cycles(Lane::kStall, 100), 20u);
  EXPECT_EQ(tl.busy_cycles(Lane::kKernel, 100), 50u);
  // overlap_cycles() is kernel x memory only; stalls do not participate.
  EXPECT_EQ(tl.overlap_cycles(100), 0u);
}

TEST(Timeline, ChromeTraceEmitsStallTrack) {
  Timeline tl;
  tl.add(Lane::kKernel, 0, 100, "kernel interact");
  tl.add(Lane::kStall, 40, 60, "sdr-stall");
  const obs::Json doc = obs::Json::parse(tl.chrome_trace_json(1.0).dump(2));
  int stall_slices = 0;
  bool stall_track_named = false;
  for (const obs::Json& e : doc.at("traceEvents").elements()) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "X" && e.at("cat").as_string() == "stall") ++stall_slices;
    if (ph == "M" && e.at("name").as_string() == "thread_name" &&
        e.at("args").at("name").as_string() == "SDR stall") {
      stall_track_named = true;
    }
  }
  EXPECT_EQ(stall_slices, 1);
  EXPECT_TRUE(stall_track_named);
}

TEST(Timeline, IntervalEntirelyPastHorizonIgnored) {
  Timeline tl;
  tl.add(Lane::kMemory, 150, 170, "m");
  EXPECT_EQ(tl.busy_cycles(Lane::kMemory, 100), 0u);
  EXPECT_TRUE(tl.merged(Lane::kMemory, 100).empty());
  EXPECT_EQ(tl.overlap_cycles(100), 0u);
}

TEST(Timeline, EmptyTimeline) {
  Timeline tl;
  EXPECT_TRUE(tl.empty());
  EXPECT_EQ(tl.busy_cycles(Lane::kKernel, 1000), 0u);
  EXPECT_EQ(tl.overlap_cycles(1000), 0u);
  // ASCII rendering of an empty timeline must not crash and still shows
  // the header.
  const std::string s = tl.ascii(100, 25);
  EXPECT_NE(s.find("kernel"), std::string::npos);
  EXPECT_EQ(s.find('#'), std::string::npos);
}

TEST(Timeline, MergedSpansAreSortedAndDisjoint) {
  Timeline tl;
  tl.add(Lane::kMemory, 40, 60, "c");
  tl.add(Lane::kMemory, 0, 10, "a");
  tl.add(Lane::kMemory, 5, 20, "b");
  tl.add(Lane::kMemory, 60, 70, "d");  // adjacent to c: merges
  const auto spans = tl.merged(Lane::kMemory, 1000);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], (std::pair<std::uint64_t, std::uint64_t>{0, 20}));
  EXPECT_EQ(spans[1], (std::pair<std::uint64_t, std::uint64_t>{40, 70}));
}

TEST(Timeline, ChromeTraceJsonParsesBack) {
  Timeline tl;
  tl.add(Lane::kKernel, 0, 100, "kernel interact");
  tl.add(Lane::kMemory, 20, 80, "gather s1", /*track=*/1);
  const obs::Json doc = obs::Json::parse(tl.chrome_trace_json(1.0).dump(2));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ns");
  int kernel_slices = 0, memory_slices = 0;
  for (const obs::Json& e : doc.at("traceEvents").elements()) {
    if (e.at("ph").as_string() != "X") continue;
    if (e.at("cat").as_string() == "kernel") ++kernel_slices;
    if (e.at("cat").as_string() == "memory") ++memory_slices;
    // At 1 GHz one cycle is one ns; ts/dur are microseconds.
    EXPECT_GE(e.at("dur").as_double(), 0.0);
  }
  EXPECT_EQ(kernel_slices, 1);
  EXPECT_EQ(memory_slices, 1);
}

// Reference occupancy implementation: the O(horizon) bitmap the Timeline
// used before the interval-merge rewrite. The property test pits the two
// against each other on randomized interval soups.
struct BitmapOccupancy {
  std::vector<bool> kernel, memory;
  explicit BitmapOccupancy(std::uint64_t horizon)
      : kernel(horizon, false), memory(horizon, false) {}
  void add(Lane lane, std::uint64_t start, std::uint64_t end) {
    auto& bits = lane == Lane::kKernel ? kernel : memory;
    for (std::uint64_t c = start; c < end && c < bits.size(); ++c)
      bits[c] = true;
  }
  std::uint64_t busy(Lane lane) const {
    const auto& bits = lane == Lane::kKernel ? kernel : memory;
    return static_cast<std::uint64_t>(std::count(bits.begin(), bits.end(), true));
  }
  std::uint64_t overlap() const {
    std::uint64_t n = 0;
    for (std::size_t c = 0; c < kernel.size(); ++c)
      if (kernel[c] && memory[c]) ++n;
    return n;
  }
};

TEST(TimelineProperty, IntervalMergeMatchesBitmapOnRandomSoups) {
  util::Rng rng(0xf16u);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t horizon = 1 + rng.uniform_u64(512);
    Timeline tl;
    BitmapOccupancy ref(horizon);
    const int n_intervals = static_cast<int>(rng.uniform_u64(40));
    for (int i = 0; i < n_intervals; ++i) {
      const Lane lane = rng.uniform_u64(2) ? Lane::kKernel : Lane::kMemory;
      // Deliberately allow zero-length, straddling, and fully-out-of-range
      // intervals: the generator range is [0, 2*horizon).
      const std::uint64_t a = rng.uniform_u64(2 * horizon);
      const std::uint64_t b = rng.uniform_u64(2 * horizon);
      const std::uint64_t start = std::min(a, b), end = std::max(a, b);
      tl.add(lane, start, end, "iv", static_cast<int>(rng.uniform_u64(3)));
      ref.add(lane, start, end);
    }
    EXPECT_EQ(tl.busy_cycles(Lane::kKernel, horizon), ref.busy(Lane::kKernel))
        << "trial " << trial << " horizon " << horizon;
    EXPECT_EQ(tl.busy_cycles(Lane::kMemory, horizon), ref.busy(Lane::kMemory))
        << "trial " << trial << " horizon " << horizon;
    EXPECT_EQ(tl.overlap_cycles(horizon), ref.overlap())
        << "trial " << trial << " horizon " << horizon;
    // The merged spans themselves are sorted, disjoint, clipped.
    for (const Lane lane : {Lane::kKernel, Lane::kMemory}) {
      std::uint64_t prev_end = 0;
      bool first = true;
      for (const auto& [s, e] : tl.merged(lane, horizon)) {
        EXPECT_LT(s, e);
        EXPECT_LE(e, horizon);
        if (!first) {
          EXPECT_GT(s, prev_end);  // disjoint and non-adjacent
        }
        prev_end = e;
        first = false;
      }
    }
  }
}

TEST(KernelCost, BlockedKernelCostsScaleWithRounds) {
  kernel::KernelBuilder kb("blocked");
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("y", 1);
  kb.block_len(4);
  kb.section(kernel::Section::kPrologue);
  const Reg zero = kb.constant(0.0);
  kb.section(kernel::Section::kOuterPre);
  const Reg acc = kb.mov(zero);
  kb.section(kernel::Section::kBody);
  const auto x = kb.read(in, 1);
  kb.add_to(acc, acc, x[0]);
  kb.section(kernel::Section::kOuterPost);
  kb.write(out, acc, 1);
  const kernel::KernelDef def = kb.build();

  KernelCostCache cache(kernel::ScheduleOptions{});
  const KernelCost& cost = cache.get(def);
  EXPECT_TRUE(cost.has_outer);
  const auto c1 = cost.cycles_for(1);
  const auto c10 = cost.cycles_for(10);
  EXPECT_GT(c1, 0u);
  // Linear in rounds beyond the prologue.
  EXPECT_EQ(c10 - cost.cycles_for(9), (c10 - static_cast<std::uint64_t>(cost.prologue_cycles)) / 10);
}

TEST(Machine, EndToEndLoadKernelStore) {
  Machine machine(test_config());
  auto& mem = machine.memory();
  const int n = 1024;
  const auto in_base = mem.alloc(n);
  const auto out_base = mem.alloc(n);
  for (int i = 0; i < n; ++i) mem.write(in_base + static_cast<std::uint64_t>(i), i * 0.25);

  const kernel::KernelDef def = make_square();
  StreamProgram prog;
  const StreamId s_in = prog.new_stream(n);
  const StreamId s_out = prog.new_stream(n);
  mem::MemOpDesc load;
  load.kind = mem::MemOpKind::kLoadStrided;
  load.base = in_base;
  load.n_records = n;
  load.record_words = 1;
  prog.load(load, s_in);
  prog.kernel(&def, {s_in, s_out}, n / machine.config().n_clusters);
  mem::MemOpDesc store;
  store.kind = mem::MemOpKind::kStoreStrided;
  store.base = out_base;
  store.n_records = n;
  store.record_words = 1;
  prog.store(store, s_out);

  const RunStats stats = machine.run(prog);
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_EQ(stats.n_kernel_launches, 1);
  EXPECT_EQ(stats.n_memory_ops, 2);
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(mem.read(out_base + static_cast<std::uint64_t>(i)),
                     (i * 0.25) * (i * 0.25));
  }
}

TEST(Machine, StripsOverlapMemoryWithCompute) {
  // Two independent strips: the second strip's load should overlap the
  // first strip's kernel under the transfer-scoped SDR policy.
  Machine machine(test_config());
  auto& mem = machine.memory();
  const int n = 8192;
  const auto in_base = mem.alloc(2 * n);
  const auto out_base = mem.alloc(2 * n);
  const kernel::KernelDef def = make_square();

  StreamProgram prog;
  for (int strip = 0; strip < 2; ++strip) {
    const StreamId s_in = prog.new_stream(n);
    const StreamId s_out = prog.new_stream(n);
    mem::MemOpDesc load;
    load.kind = mem::MemOpKind::kLoadStrided;
    load.base = in_base + static_cast<std::uint64_t>(strip * n);
    load.n_records = n;
    load.record_words = 1;
    prog.load(load, s_in);
    prog.kernel(&def, {s_in, s_out}, n / 16);
    mem::MemOpDesc store;
    store.kind = mem::MemOpKind::kStoreStrided;
    store.base = out_base + static_cast<std::uint64_t>(strip * n);
    store.n_records = n;
    store.record_words = 1;
    prog.store(store, s_out);
  }
  const RunStats stats = machine.run(prog);
  EXPECT_GT(stats.overlap_cycles, 0u);
}

TEST(Machine, ConservativeSdrPolicySerializes) {
  // Figure 7: under the conservative SDR policy, later transfers wait for
  // the kernels consuming earlier streams, reducing memory/compute overlap
  // and stretching the run.
  // A compute-heavy kernel so kernel time ~ memory time, the regime where
  // the SDR policy decides how much memory latency hides under compute.
  static const kernel::KernelDef heavy = [] {
    kernel::KernelBuilder kb("heavy");
    const int in = kb.stream_in("x", 1);
    const int out = kb.stream_out("y", 1);
    auto x = kb.read(in, 1);
    Reg v = x[0];
    for (int i = 0; i < 6; ++i) v = kb.mul(v, v);
    v = kb.rsqrt(v);
    kb.write(out, v, 1);
    return kb.build();
  }();
  auto run_with = [&](SdrPolicy policy) {
    MachineConfig cfg = test_config();
    cfg.sdr_policy = policy;
    cfg.n_stream_descriptor_registers = 1;
    Machine machine(cfg);
    auto& mem = machine.memory();
    const int n = 4096;
    const kernel::KernelDef& def = heavy;
    const auto in_base = mem.alloc(8 * n);
    const auto out_base = mem.alloc(8 * n);
    StreamProgram prog;
    for (int strip = 0; strip < 8; ++strip) {
      const StreamId s_in = prog.new_stream(n);
      const StreamId s_out = prog.new_stream(n);
      mem::MemOpDesc load;
      load.kind = mem::MemOpKind::kLoadStrided;
      load.base = in_base + static_cast<std::uint64_t>(strip * n);
      load.n_records = n;
      load.record_words = 1;
      prog.load(load, s_in);
      prog.kernel(&def, {s_in, s_out}, n / 16);
      mem::MemOpDesc store;
      store.kind = mem::MemOpKind::kStoreStrided;
      store.base = out_base + static_cast<std::uint64_t>(strip * n);
      store.n_records = n;
      store.record_words = 1;
      prog.store(store, s_out);
    }
    return machine.run(prog);
  };
  const RunStats conservative = run_with(SdrPolicy::kConservative);
  const RunStats fixed = run_with(SdrPolicy::kTransferScoped);
  EXPECT_GT(conservative.cycles, fixed.cycles);
  // The stall lane the controller emits must agree exactly with the
  // per-cycle sdr_stall_cycles counter -- smdprof's taxonomy relies on it.
  for (const RunStats* s : {&conservative, &fixed}) {
    EXPECT_EQ(s->timeline.busy_cycles(Lane::kStall, s->cycles),
              s->sdr_stall_cycles);
  }
  EXPECT_GT(conservative.sdr_stall_cycles, 0u);
  // The fixed policy hides a larger fraction of memory time under compute.
  const double ov_fixed = static_cast<double>(fixed.overlap_cycles) /
                          static_cast<double>(fixed.mem_busy_cycles);
  const double ov_cons = static_cast<double>(conservative.overlap_cycles) /
                         static_cast<double>(conservative.mem_busy_cycles);
  EXPECT_GT(ov_fixed, ov_cons);
}

TEST(Machine, SrfBlockedOpDoesNotCountAsSdrStall) {
  // Regression for the stall-attribution bug: a load waiting while the
  // single SDR is busy used to be charged to sdr_stall_cycles even when it
  // could not have issued anyway because its SRF allocation would fail.
  // Only a cycle where an op is blocked *solely* on SDRs is an SDR stall.
  //
  // Construction: strip A = load s0(512) -> square -> store s1(512);
  // strip B = load s2(768) -> store. With srf_words = 1200, B's load is
  // SRF-blocked at every instant A's transfers hold the SDR:
  //   * during A's load: allocation is out of order (s1 not allocated);
  //   * during A's store: 688 free words < 768.
  // So the run must report zero SDR stalls despite long SDR-busy waits.
  MachineConfig cfg = test_config();
  cfg.n_stream_descriptor_registers = 1;
  cfg.srf_words = 1200;
  Machine machine(cfg);
  auto& mem = machine.memory();
  const kernel::KernelDef def = make_square();
  const auto a_base = mem.alloc(512), a_out = mem.alloc(512);
  const auto b_base = mem.alloc(768), b_out = mem.alloc(768);

  StreamProgram prog;
  const StreamId s0 = prog.new_stream(512);
  const StreamId s1 = prog.new_stream(512);
  const StreamId s2 = prog.new_stream(768);
  mem::MemOpDesc load_a;
  load_a.kind = mem::MemOpKind::kLoadStrided;
  load_a.base = a_base;
  load_a.n_records = 512;
  load_a.record_words = 1;
  prog.load(load_a, s0);
  prog.kernel(&def, {s0, s1}, 512 / 16);
  mem::MemOpDesc store_a = load_a;
  store_a.kind = mem::MemOpKind::kStoreStrided;
  store_a.base = a_out;
  prog.store(store_a, s1);
  mem::MemOpDesc load_b;
  load_b.kind = mem::MemOpKind::kLoadStrided;
  load_b.base = b_base;
  load_b.n_records = 768;
  load_b.record_words = 1;
  prog.load(load_b, s2);
  mem::MemOpDesc store_b = load_b;
  store_b.kind = mem::MemOpKind::kStoreStrided;
  store_b.base = b_out;
  prog.store(store_b, s2);

  const RunStats stats = machine.run(prog);
  EXPECT_EQ(stats.sdr_stall_cycles, 0u);
  EXPECT_EQ(stats.timeline.busy_cycles(Lane::kStall, stats.cycles), 0u);
  EXPECT_EQ(stats.n_memory_ops, 4);
}

TEST(Machine, DetectsBindingArityMismatch) {
  Machine machine(test_config());
  const kernel::KernelDef def = make_square();
  StreamProgram prog;
  const StreamId s_in = prog.new_stream(16);
  prog.kernel(&def, {s_in}, 1);  // missing the output binding
  EXPECT_THROW(machine.run(prog), std::runtime_error);
}

TEST(Machine, SrfPressureLimitsInFlightStrips) {
  // With a tiny SRF only one strip fits at a time: the run still completes
  // (capacity stalls, not deadlock) and peak SRF stays within bounds.
  MachineConfig cfg = test_config();
  cfg.srf_words = 3000;
  Machine machine(cfg);
  auto& mem = machine.memory();
  const int n = 1024;
  const auto in_base = mem.alloc(4 * n);
  const auto out_base = mem.alloc(4 * n);
  const kernel::KernelDef def = make_square();
  StreamProgram prog;
  for (int strip = 0; strip < 4; ++strip) {
    const StreamId s_in = prog.new_stream(n);
    const StreamId s_out = prog.new_stream(n);
    mem::MemOpDesc load;
    load.kind = mem::MemOpKind::kLoadStrided;
    load.base = in_base + static_cast<std::uint64_t>(strip * n);
    load.n_records = n;
    load.record_words = 1;
    prog.load(load, s_in);
    prog.kernel(&def, {s_in, s_out}, n / 16);
    mem::MemOpDesc store;
    store.kind = mem::MemOpKind::kStoreStrided;
    store.base = out_base + static_cast<std::uint64_t>(strip * n);
    store.n_records = n;
    store.record_words = 1;
    prog.store(store, s_out);
  }
  const RunStats stats = machine.run(prog);
  EXPECT_LE(stats.srf_peak_words, cfg.srf_words);
  for (int i = 0; i < 4 * n; ++i) {
    const double x = mem.read(in_base + static_cast<std::uint64_t>(i));
    EXPECT_DOUBLE_EQ(mem.read(out_base + static_cast<std::uint64_t>(i)), x * x);
  }
}

}  // namespace
}  // namespace smd::sim
