// Stream-controller scoreboard semantics: ordering (RAW/WAR/WAW through
// streams), stream lifetime/SRF accounting, multi-consumer streams, and
// failure modes -- including the split between the timing stage and the
// helper thread that applies each run's data effects.
#include <gtest/gtest.h>

#include <string>
#include <typeinfo>

#include "src/core/run.h"
#include "src/kernel/ir.h"
#include "src/kernel/schedule.h"
#include "src/obs/registry.h"
#include "src/sim/machine.h"

namespace smd::sim {
namespace {

using Reg = kernel::KernelBuilder::Reg;

MachineConfig fast_config() {
  MachineConfig cfg = MachineConfig::merrimac();
  cfg.kernel_startup_cycles = 5;
  cfg.mem.dram.access_latency = 10;
  return cfg;
}

kernel::KernelDef make_scale(double k, const char* name) {
  kernel::KernelBuilder kb(name);
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("y", 1);
  kb.section(kernel::Section::kPrologue);
  const Reg c = kb.constant(k);
  kb.section(kernel::Section::kBody);
  const auto x = kb.read(in, 1);
  kb.write(out, kb.mul(x[0], c), 1);
  return kb.build();
}

mem::MemOpDesc strided(std::uint64_t base, std::int64_t n) {
  mem::MemOpDesc d;
  d.kind = mem::MemOpKind::kLoadStrided;
  d.base = base;
  d.n_records = n;
  d.record_words = 1;
  return d;
}

mem::MemOpDesc strided_store(std::uint64_t base, std::int64_t n) {
  mem::MemOpDesc d = strided(base, n);
  d.kind = mem::MemOpKind::kStoreStrided;
  return d;
}

TEST(Controller, KernelChainPropagatesThroughSrf) {
  // load -> x2 -> x3 -> store: the intermediate stream never touches
  // memory, exactly the long-term producer-consumer locality the SRF is
  // for.
  Machine machine(fast_config());
  auto& mem = machine.memory();
  const int n = 256;
  const auto in = mem.alloc(n), out = mem.alloc(n);
  for (int i = 0; i < n; ++i) mem.write(in + static_cast<std::uint64_t>(i), i);

  const auto k2 = make_scale(2.0, "x2");
  const auto k3 = make_scale(3.0, "x3");
  StreamProgram prog;
  const StreamId s0 = prog.new_stream(n);
  const StreamId s1 = prog.new_stream(n);
  const StreamId s2 = prog.new_stream(n);
  prog.load(strided(in, n), s0);
  prog.kernel(&k2, {s0, s1}, n / 16);
  prog.kernel(&k3, {s1, s2}, n / 16);
  prog.store(strided_store(out, n), s2);
  const RunStats stats = machine.run(prog);

  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(mem.read(out + static_cast<std::uint64_t>(i)), 6.0 * i);
  }
  // Only the endpoints moved through the memory system.
  EXPECT_EQ(stats.mem_words, 2 * n);
}

TEST(Controller, MultiConsumerStreamReadTwice) {
  // One loaded stream feeding two kernels: both must see the data, and
  // its SRF buffer must stay alive until the second consumer retires.
  Machine machine(fast_config());
  auto& mem = machine.memory();
  const int n = 128;
  const auto in = mem.alloc(n), out_a = mem.alloc(n), out_b = mem.alloc(n);
  for (int i = 0; i < n; ++i) mem.write(in + static_cast<std::uint64_t>(i), i + 1);

  const auto k2 = make_scale(2.0, "x2");
  const auto k5 = make_scale(5.0, "x5");
  StreamProgram prog;
  const StreamId s_in = prog.new_stream(n);
  const StreamId s_a = prog.new_stream(n);
  const StreamId s_b = prog.new_stream(n);
  prog.load(strided(in, n), s_in);
  prog.kernel(&k2, {s_in, s_a}, n / 16);
  prog.kernel(&k5, {s_in, s_b}, n / 16);
  prog.store(strided_store(out_a, n), s_a);
  prog.store(strided_store(out_b, n), s_b);
  machine.run(prog);
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(mem.read(out_a + static_cast<std::uint64_t>(i)), 2.0 * (i + 1));
    EXPECT_DOUBLE_EQ(mem.read(out_b + static_cast<std::uint64_t>(i)), 5.0 * (i + 1));
  }
}

TEST(Controller, WawOnReusedStreamRespectsProgramOrder) {
  // The same StreamId written by two loads with an intervening consumer:
  // the second load must wait for the first reader (WAR) and the final
  // store must see the second load's data (WAW ordering).
  Machine machine(fast_config());
  auto& mem = machine.memory();
  const int n = 64;
  const auto in1 = mem.alloc(n), in2 = mem.alloc(n);
  const auto out1 = mem.alloc(n), out2 = mem.alloc(n);
  for (int i = 0; i < n; ++i) {
    mem.write(in1 + static_cast<std::uint64_t>(i), 10.0 + i);
    mem.write(in2 + static_cast<std::uint64_t>(i), 90.0 + i);
  }
  StreamProgram prog;
  const StreamId s = prog.new_stream(n);
  prog.load(strided(in1, n), s);
  prog.store(strided_store(out1, n), s);
  prog.load(strided(in2, n), s);  // WAR with the store, WAW with load 1
  prog.store(strided_store(out2, n), s);
  machine.run(prog);
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(mem.read(out1 + static_cast<std::uint64_t>(i)), 10.0 + i);
    EXPECT_DOUBLE_EQ(mem.read(out2 + static_cast<std::uint64_t>(i)), 90.0 + i);
  }
}

TEST(Controller, ScatterAddStoreAccumulatesAcrossStrips) {
  // Two strips scatter-adding into the same rows: the reduction across
  // kernel invocations is exactly how StreamMD combines partial forces.
  Machine machine(fast_config());
  auto& mem = machine.memory();
  const int n = 64;
  const auto in = mem.alloc(2 * n);
  const auto out = mem.alloc(n);
  for (int i = 0; i < 2 * n; ++i) mem.write(in + static_cast<std::uint64_t>(i), 1.0);

  const auto k2 = make_scale(2.0, "x2");
  StreamProgram prog;
  for (int strip = 0; strip < 2; ++strip) {
    const StreamId s_in = prog.new_stream(n);
    const StreamId s_out = prog.new_stream(n);
    prog.load(strided(in + static_cast<std::uint64_t>(strip * n), n), s_in);
    prog.kernel(&k2, {s_in, s_out}, n / 16);
    mem::MemOpDesc d;
    d.kind = mem::MemOpKind::kScatterAdd;
    d.base = out;
    d.n_records = n;
    d.record_words = 1;
    for (int i = 0; i < n; ++i) d.indices.push_back(static_cast<std::uint64_t>(i));
    prog.store(d, s_out);
  }
  machine.run(prog);
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(mem.read(out + static_cast<std::uint64_t>(i)), 4.0);
  }
}

TEST(Controller, EmptyProgramCompletesImmediately) {
  Machine machine(fast_config());
  StreamProgram prog;
  const RunStats stats = machine.run(prog);
  EXPECT_EQ(stats.n_kernel_launches, 0);
  EXPECT_EQ(stats.n_memory_ops, 0);
}

TEST(Controller, ZeroRoundKernelRetires) {
  Machine machine(fast_config());
  const auto k2 = make_scale(2.0, "x2");
  StreamProgram prog;
  const StreamId s_in = prog.new_stream(0);
  const StreamId s_out = prog.new_stream(0);
  prog.kernel(&k2, {s_in, s_out}, 0);
  const RunStats stats = machine.run(prog);
  EXPECT_EQ(stats.n_kernel_launches, 1);
}

TEST(Controller, ThroughputScalesWithStripCount) {
  // Doubling the strips of identical work should roughly double the run
  // (sub-linear thanks to overlap, never super-linear).
  auto run_strips = [&](int strips) {
    Machine machine(fast_config());
    auto& mem = machine.memory();
    const int n = 2048;
    const auto in = mem.alloc(static_cast<std::int64_t>(strips) * n);
    const auto out = mem.alloc(static_cast<std::int64_t>(strips) * n);
    static const auto k2 = make_scale(2.0, "x2");
    StreamProgram prog;
    for (int s = 0; s < strips; ++s) {
      const StreamId a = prog.new_stream(n);
      const StreamId b = prog.new_stream(n);
      prog.load(strided(in + static_cast<std::uint64_t>(s * n), n), a);
      prog.kernel(&k2, {a, b}, n / 16);
      prog.store(strided_store(out + static_cast<std::uint64_t>(s * n), n), b);
    }
    return machine.run(prog).cycles;
  };
  const auto c2 = run_strips(2);
  const auto c4 = run_strips(4);
  EXPECT_GT(c4, c2);
  EXPECT_LT(static_cast<double>(c4), 2.2 * static_cast<double>(c2));
  EXPECT_GT(static_cast<double>(c4), 1.5 * static_cast<double>(c2));
}

TEST(Controller, TimelineRecordsEveryStreamOpWithLabels) {
  // The scoreboard's tracing hooks must emit one interval per stream op:
  // each kernel launch on the kernel lane, each memory op on the memory
  // lane, with human-readable labels naming the kernel / op kind.
  Machine machine(fast_config());
  auto& mem = machine.memory();
  const int n = 512;
  const auto in = mem.alloc(n), out = mem.alloc(n);
  static const auto k2 = make_scale(2.0, "x2");
  StreamProgram prog;
  const StreamId a = prog.new_stream(n);
  const StreamId b = prog.new_stream(n);
  prog.load(strided(in, n), a);
  prog.kernel(&k2, {a, b}, n / 16);
  prog.store(strided_store(out, n), b);
  const RunStats stats = machine.run(prog);

  int kernel_ivs = 0, memory_ivs = 0;
  bool saw_kernel_label = false, saw_load = false, saw_store = false;
  for (const auto& iv : stats.timeline.intervals()) {
    EXPECT_LT(iv.start, iv.end);
    EXPECT_LE(iv.end, stats.cycles);
    if (iv.lane == Lane::kKernel) {
      ++kernel_ivs;
      if (iv.label.find("x2") != std::string::npos) saw_kernel_label = true;
    } else {
      ++memory_ivs;
      EXPECT_GE(iv.track, 0);
      if (iv.label.find("load") != std::string::npos) saw_load = true;
      if (iv.label.find("store") != std::string::npos) saw_store = true;
    }
  }
  EXPECT_EQ(kernel_ivs, stats.n_kernel_launches);
  EXPECT_EQ(memory_ivs, stats.n_memory_ops);
  EXPECT_TRUE(saw_kernel_label);
  EXPECT_TRUE(saw_load);
  EXPECT_TRUE(saw_store);
}

TEST(Controller, TimelineOccupancyConsistentWithRunStats) {
  // The same consistency contract bench_fig7_overlap enforces: kernel
  // intervals are disjoint (one kernel at a time) so their union equals
  // the kernel busy-cycle counter exactly; the memory-lane union covers at
  // least the memory system's busy cycles; overlap matches the counter.
  Machine machine(fast_config());
  auto& mem = machine.memory();
  const int n = 4096;
  const auto in = mem.alloc(4 * n), out = mem.alloc(4 * n);
  static const auto k2 = make_scale(2.0, "x2");
  StreamProgram prog;
  for (int s = 0; s < 4; ++s) {
    const StreamId a = prog.new_stream(n);
    const StreamId b = prog.new_stream(n);
    prog.load(strided(in + static_cast<std::uint64_t>(s * n), n), a);
    prog.kernel(&k2, {a, b}, n / 16);
    prog.store(strided_store(out + static_cast<std::uint64_t>(s * n), n), b);
  }
  const RunStats stats = machine.run(prog);

  EXPECT_EQ(stats.timeline.busy_cycles(Lane::kKernel, stats.cycles),
            stats.kernel_busy_cycles);
  EXPECT_GE(stats.timeline.busy_cycles(Lane::kMemory, stats.cycles),
            stats.mem_busy_cycles);
  EXPECT_LE(stats.timeline.busy_cycles(Lane::kMemory, stats.cycles),
            stats.cycles);
  EXPECT_EQ(stats.timeline.overlap_cycles(stats.cycles),
            stats.overlap_cycles);
}

// ---- Failures and the helper thread. --------------------------------------
// Each run's data effects (load copies, kernel runs, store writes) are
// applied on a helper thread in issue order, so a data error surfaces
// there. Controller::run must throw what a one-thread run throws at
// issue: the same exception type and message.

/// The exception a run threw: its dynamic type and message.
struct Thrown {
  std::string type;  ///< typeid name; "" if the run returned
  std::string what;
};

Thrown run_catching(Machine& machine, const StreamProgram& prog) {
  try {
    machine.run(prog);
  } catch (const std::exception& e) {
    return {typeid(e).name(), e.what()};
  }
  return {};
}

constexpr SimEngine kEngines[] = {SimEngine::kStepped, SimEngine::kEvent,
                                  SimEngine::kLockstep};

/// y = rsqrt(x^32): its FPU slots need II >= 2, so max_ii = 1 leaves it
/// unschedulable -- a failure of the timing stage alone.
kernel::KernelDef make_heavy() {
  kernel::KernelBuilder kb("heavy");
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("y", 1);
  const auto x = kb.read(in, 1);
  Reg v = x[0];
  for (int i = 0; i < 5; ++i) v = kb.mul(v, v);
  kb.write(out, kb.rsqrt(v), 1);
  return kb.build();
}

TEST(ControllerErrors, KernelInputRunningDryThrowsUnderEveryEngine) {
  const auto k2 = make_scale(2.0, "x2");
  for (const SimEngine engine : kEngines) {
    MachineConfig cfg = fast_config();
    cfg.engine = engine;
    Machine machine(cfg);
    const int n = 64;
    auto& mem = machine.memory();
    const auto in = mem.alloc(n), out = mem.alloc(n);
    StreamProgram prog;
    const StreamId s_in = prog.new_stream(n);
    const StreamId s_out = prog.new_stream(n);
    // Half the words the kernel reads: the declared capacity passes the
    // static check, the data runs out.
    prog.load(strided(in, n / 2), s_in);
    prog.kernel(&k2, {s_in, s_out}, n / 16);
    prog.store(strided_store(out, n), s_out);
    const Thrown t = run_catching(machine, prog);
    EXPECT_EQ(t.type, typeid(std::runtime_error).name())
        << engine_name(engine);
    EXPECT_EQ(t.what, "x2: input stream 'x' exhausted") << engine_name(engine);
  }
}

TEST(ControllerErrors, StoreFromShortSourceThrowsUnderEveryEngine) {
  for (const SimEngine engine : kEngines) {
    MachineConfig cfg = fast_config();
    cfg.engine = engine;
    Machine machine(cfg);
    const int n = 64;
    auto& mem = machine.memory();
    const auto in = mem.alloc(n), out = mem.alloc(n);
    StreamProgram prog;
    const StreamId s = prog.new_stream(n);
    prog.load(strided(in, n / 2), s);
    prog.store(strided_store(out, n), s);
    const Thrown t = run_catching(machine, prog);
    EXPECT_EQ(t.type, typeid(std::runtime_error).name())
        << engine_name(engine);
    EXPECT_EQ(t.what, "store source shorter than op") << engine_name(engine);
  }
}

TEST(ControllerErrors, FirstIssuedFailureWinsAcrossStages) {
  const auto k2 = make_scale(2.0, "x2");
  const auto heavy = make_heavy();
  const int n = 64;
  for (const SimEngine engine : kEngines) {
    MachineConfig cfg = fast_config();
    cfg.engine = engine;
    cfg.sched.max_ii = 1;

    // A data error issued first (x2 runs dry) wins over the timing failure
    // of the kernel that consumes its output, even if the timing stage
    // reaches that failure before the helper reaches the data error.
    {
      Machine machine(cfg);
      auto& mem = machine.memory();
      const auto in = mem.alloc(n), out = mem.alloc(n);
      StreamProgram prog;
      const StreamId a = prog.new_stream(n);
      const StreamId b = prog.new_stream(n);
      const StreamId c = prog.new_stream(n);
      prog.load(strided(in, n / 2), a);
      prog.kernel(&k2, {a, b}, n / 16);
      prog.kernel(&heavy, {b, c}, n / 16);
      prog.store(strided_store(out, n), c);
      const Thrown t = run_catching(machine, prog);
      EXPECT_EQ(t.type, typeid(std::runtime_error).name())
          << engine_name(engine);
      EXPECT_EQ(t.what, "x2: input stream 'x' exhausted")
          << engine_name(engine);
    }
    // A timing failure issued first wins over a data error after it.
    {
      Machine machine(cfg);
      auto& mem = machine.memory();
      const auto in = mem.alloc(n), out = mem.alloc(n);
      StreamProgram prog;
      const StreamId a = prog.new_stream(n);
      const StreamId b = prog.new_stream(2 * n);
      const StreamId c = prog.new_stream(2 * n);
      prog.load(strided(in, n), a);
      prog.kernel(&heavy, {a, b}, n / 16);
      prog.kernel(&k2, {b, c}, 2 * n / 16);  // reads 2n of heavy's n words
      prog.store(strided_store(out, n), c);
      const Thrown t = run_catching(machine, prog);
      EXPECT_EQ(t.type, typeid(kernel::ScheduleError).name())
          << engine_name(engine);
      EXPECT_EQ(t.what.rfind("heavy: no schedule found up to II=1", 0), 0u)
          << engine_name(engine) << ": " << t.what;
    }
  }
}

// ---- Stream-buffer lifetimes. ----------------------------------------------

TEST(ControllerBuffers, LiveFromProducerToLastReaderAndUnreadLoadsSkipped) {
  // An index-style load nobody reads (4n words) issues at cycle 0 next to
  // the strip's real load. The helper skips it and frees each buffer after
  // its last reader, so the peak is the kernel's input plus its output.
  const auto k2 = make_scale(2.0, "x2");
  for (const SimEngine engine : kEngines) {
    MachineConfig cfg = fast_config();
    cfg.engine = engine;
    Machine machine(cfg);
    auto& mem = machine.memory();
    const int n = 256;
    const auto idx = mem.alloc(4 * n), in = mem.alloc(n), out = mem.alloc(n);
    for (int i = 0; i < n; ++i) {
      mem.write(in + static_cast<std::uint64_t>(i), i);
    }
    StreamProgram prog;
    const StreamId s_idx = prog.new_stream(4 * n);
    const StreamId s_in = prog.new_stream(n);
    const StreamId s_out = prog.new_stream(n);
    prog.load(strided(idx, 4 * n), s_idx);
    prog.load(strided(in, n), s_in);
    prog.kernel(&k2, {s_in, s_out}, n / 16);
    prog.store(strided_store(out, n), s_out);

    obs::CounterRegistry reg;
    const obs::ScopedRegistryRedirect redirect(reg);
    const RunStats stats = machine.run(prog);
    EXPECT_EQ(reg.gauge("sim.stream_buffer_peak_words"), 2.0 * n)
        << engine_name(engine);
    EXPECT_GE(stats.srf_peak_words, 2 * n) << engine_name(engine);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(mem.read(out + static_cast<std::uint64_t>(i)), 2.0 * i);
    }
  }
}

TEST(ControllerBuffers, StreamMdLiveDataStaysWithinTheSrfPeak) {
  // The helper's live stream words never exceed what the modelled SRF
  // held at its peak, on every variant at two sizes.
  for (const int molecules : {256, 1800}) {
    core::ExperimentSetup setup;
    setup.n_molecules = molecules;
    const core::Problem problem = core::Problem::make(setup);
    for (const core::Variant v : core::kAllVariants) {
      obs::CounterRegistry reg;
      const obs::ScopedRegistryRedirect redirect(reg);
      const core::VariantResult r = core::run_variant(problem, v);
      const double peak = reg.gauge("sim.stream_buffer_peak_words");
      EXPECT_GT(peak, 0.0) << molecules << " " << core::variant_name(v);
      EXPECT_LE(peak, static_cast<double>(r.run.srf_peak_words))
          << molecules << " " << core::variant_name(v);
    }
  }
}

}  // namespace
}  // namespace smd::sim
