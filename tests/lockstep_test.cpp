// Stepped-vs-event engine equivalence suite.
//
// The event-driven core (DESIGN.md section 10) is only allowed to exist
// because it is bit-identical to the cycle-stepped reference: same cycle
// counts, same attribution buckets, same timeline intervals, same memory
// image. This suite enforces that claim from three directions:
//   * a property test over randomized stream programs (mixed strided /
//     gather / scatter-add traffic, RAW chains, both SDR policies, varied
//     SDR counts and SRF pressure),
//   * SimEngine::kLockstep, which re-runs every program on both engines
//     and throws on the first diverging field, and
//   * the real application: all four StreamMD variants under lockstep.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/run.h"
#include "src/core/streammd.h"
#include "src/kernel/ir.h"
#include "src/sim/config.h"
#include "src/sim/machine.h"
#include "src/util/rng.h"

namespace smd::sim {
namespace {

using Reg = kernel::KernelBuilder::Reg;

/// y = x * x elementwise.
const kernel::KernelDef& square_kernel() {
  static const kernel::KernelDef def = [] {
    kernel::KernelBuilder kb("square");
    const int in = kb.stream_in("x", 1);
    const int out = kb.stream_out("y", 1);
    const auto x = kb.read(in, 1);
    kb.write(out, kb.mul(x[0], x[0]), 1);
    return kb.build();
  }();
  return def;
}

/// c = a * b + a, a two-input kernel to build RAW chains across strips.
const kernel::KernelDef& madd_kernel() {
  static const kernel::KernelDef def = [] {
    kernel::KernelBuilder kb("madd");
    const int ia = kb.stream_in("a", 1);
    const int ib = kb.stream_in("b", 1);
    const int oc = kb.stream_out("c", 1);
    const auto a = kb.read(ia, 1);
    const auto b = kb.read(ib, 1);
    kb.write(oc, kb.add(kb.mul(a[0], b[0]), a[0]), 1);
    return kb.build();
  }();
  return def;
}

/// A heavier kernel so kernel time can dominate or trail memory time.
const kernel::KernelDef& heavy_kernel() {
  static const kernel::KernelDef def = [] {
    kernel::KernelBuilder kb("heavy");
    const int in = kb.stream_in("x", 1);
    const int out = kb.stream_out("y", 1);
    const auto x = kb.read(in, 1);
    Reg v = x[0];
    for (int i = 0; i < 5; ++i) v = kb.mul(v, v);
    kb.write(out, kb.rsqrt(v), 1);
    return kb.build();
  }();
  return def;
}

MachineConfig random_config(util::Rng& rng, SdrPolicy policy,
                            SimEngine engine) {
  MachineConfig cfg = MachineConfig::merrimac();
  cfg.kernel_startup_cycles = 10;
  cfg.mem.dram.access_latency = 20;
  cfg.sdr_policy = policy;
  cfg.engine = engine;
  const int sdr_choices[] = {1, 2, 3, 8};
  cfg.n_stream_descriptor_registers =
      sdr_choices[rng.uniform_u64(4)];
  // Occasionally shrink the SRF to force capacity stalls (but keep the
  // double-buffering floor of MC015: 4 * 16 * 16 clusters = 1024 words).
  if (rng.uniform_u64(3) == 0) {
    cfg.srf_words = 2048 + static_cast<std::int64_t>(rng.uniform_u64(4096));
  }
  return cfg;
}

/// One randomized strip-pipelined program; identical construction for both
/// machines (same rng stream consumed once, program reused).
StreamProgram random_program(util::Rng& rng, mem::GlobalMemory& mem,
                             std::vector<std::uint64_t>* out_bases,
                             std::vector<std::int64_t>* out_lens) {
  StreamProgram prog;
  const int n_strips = 1 + static_cast<int>(rng.uniform_u64(5));
  StreamId prev_out = -1;
  std::int64_t prev_len = 0;
  for (int strip = 0; strip < n_strips; ++strip) {
    const std::int64_t n = 16 * (1 + static_cast<std::int64_t>(
                                        rng.uniform_u64(24)));
    const StreamId s_in = prog.new_stream(n);
    mem::MemOpDesc load;
    load.n_records = n;
    load.record_words = 1;
    if (rng.uniform_u64(3) == 0) {
      load.kind = mem::MemOpKind::kLoadGather;
      load.base = mem.alloc(n);
      load.indices.resize(static_cast<std::size_t>(n));
      for (auto& ix : load.indices) ix = rng.uniform_u64(
          static_cast<std::uint64_t>(n));
    } else {
      load.kind = mem::MemOpKind::kLoadStrided;
      const std::int64_t stride =
          1 + static_cast<std::int64_t>(rng.uniform_u64(3));
      load.stride_words = stride > 1 ? stride : 0;
      load.base = mem.alloc(n * stride);
    }
    prog.load(load, s_in);

    const StreamId s_out = prog.new_stream(n);
    // Chain to the previous strip's output sometimes: a RAW dependence the
    // scoreboard must respect on both engines.
    if (prev_out >= 0 && prev_len == n && rng.uniform_u64(2) == 0) {
      prog.kernel(&madd_kernel(), {s_in, prev_out, s_out}, n / 16);
    } else if (rng.uniform_u64(3) == 0) {
      prog.kernel(&heavy_kernel(), {s_in, s_out}, n / 16);
    } else {
      prog.kernel(&square_kernel(), {s_in, s_out}, n / 16);
    }

    mem::MemOpDesc store;
    store.n_records = n;
    store.record_words = 1;
    store.base = mem.alloc(n);
    if (rng.uniform_u64(4) == 0) {
      store.kind = mem::MemOpKind::kScatterAdd;
      store.indices.resize(static_cast<std::size_t>(n));
      // Duplicates on purpose: exercises the combining-store path.
      for (auto& ix : store.indices) ix = rng.uniform_u64(
          static_cast<std::uint64_t>(n));
    } else {
      store.kind = mem::MemOpKind::kStoreStrided;
    }
    prog.store(store, s_out);
    out_bases->push_back(store.base);
    out_lens->push_back(n);
    prev_out = s_out;
    prev_len = n;
  }
  return prog;
}

void fill_memory(mem::GlobalMemory& mem, util::Rng& rng) {
  for (std::int64_t w = 0; w < mem.size(); ++w) {
    mem.write(static_cast<std::uint64_t>(w), rng.uniform(0.5, 2.0));
  }
}

TEST(LockstepProperty, RandomProgramsBitIdenticalAcrossEngines) {
  int lockstep_runs = 0;
  for (int trial = 0; trial < 100; ++trial) {
    for (const SdrPolicy policy :
         {SdrPolicy::kTransferScoped, SdrPolicy::kConservative}) {
      const std::uint64_t seed =
          0xabcdULL + 977ULL * static_cast<std::uint64_t>(trial) +
          (policy == SdrPolicy::kConservative ? 1 : 0);

      // Two machines with identical configs (bar the engine), identical
      // allocation sequences and identical initial memory images.
      util::Rng cfg_rng(seed);
      const MachineConfig stepped_cfg =
          random_config(cfg_rng, policy, SimEngine::kStepped);
      MachineConfig event_cfg = stepped_cfg;
      event_cfg.engine = SimEngine::kEvent;

      Machine stepped(stepped_cfg);
      Machine event(event_cfg);
      std::vector<std::uint64_t> bases;
      std::vector<std::int64_t> lens;
      util::Rng prog_rng(seed ^ 0x9e3779b97f4a7c15ULL);
      const StreamProgram prog =
          random_program(prog_rng, stepped.memory(), &bases, &lens);
      {
        std::vector<std::uint64_t> b2;
        std::vector<std::int64_t> l2;
        util::Rng prog_rng2(seed ^ 0x9e3779b97f4a7c15ULL);
        (void)random_program(prog_rng2, event.memory(), &b2, &l2);
      }
      util::Rng fill_rng(seed + 1);
      fill_memory(stepped.memory(), fill_rng);
      fill_rng.reseed(seed + 1);
      fill_memory(event.memory(), fill_rng);

      const RunStats a = stepped.run(prog);
      const RunStats b = event.run(prog);
      ASSERT_EQ(diff_run_stats(a, b), "")
          << "trial " << trial << " policy "
          << (policy == SdrPolicy::kConservative ? "conservative"
                                                 : "transfer-scoped");
      ASSERT_EQ(mem::diff_memory(stepped.memory(), event.memory()), "")
          << "trial " << trial;

      // Every few trials exercise the built-in cross-check mode too: it
      // throws on any divergence.
      if (trial % 10 == 0) {
        MachineConfig lock_cfg = stepped_cfg;
        lock_cfg.engine = SimEngine::kLockstep;
        Machine lockstep(lock_cfg);
        std::vector<std::uint64_t> b3;
        std::vector<std::int64_t> l3;
        util::Rng prog_rng3(seed ^ 0x9e3779b97f4a7c15ULL);
        (void)random_program(prog_rng3, lockstep.memory(), &b3, &l3);
        fill_rng.reseed(seed + 1);
        fill_memory(lockstep.memory(), fill_rng);
        const RunStats c = lockstep.run(prog);
        EXPECT_EQ(diff_run_stats(b, c), "") << "lockstep result drifted";
        ++lockstep_runs;
      }
    }
  }
  EXPECT_GE(lockstep_runs, 20);
}

TEST(LockstepProperty, EngineRoundTripNames) {
  for (const SimEngine e :
       {SimEngine::kStepped, SimEngine::kEvent, SimEngine::kLockstep}) {
    EXPECT_EQ(parse_engine(engine_name(e)), e);
  }
  EXPECT_THROW(parse_engine("warp-speed"), std::invalid_argument);
}

TEST(Lockstep, DiffReportsFirstMismatchedField) {
  RunStats a, b;
  a.cycles = 100;
  b.cycles = 101;
  b.sdr_stall_cycles = 7;
  const std::string diff = diff_run_stats(a, b);
  EXPECT_NE(diff.find("cycles: 100 vs 101"), std::string::npos) << diff;
  EXPECT_NE(diff.find("sdr_stall_cycles: 0 vs 7"), std::string::npos) << diff;
  EXPECT_EQ(diff_run_stats(a, a), "");
}

// The gate compares whatever to_json(RunStats) emits, nested structs
// included, so no field can be left off a hand-written list.
TEST(Lockstep, DiffNamesNestedStatsField) {
  RunStats a, b;
  a.cache_stats.secondary_misses = 3;
  b.cache_stats.secondary_misses = 4;
  b.interp.executed.square_roots = 1;
  const std::string diff = diff_run_stats(a, b);
  EXPECT_NE(diff.find("cache.secondary_misses: 3 vs 4"), std::string::npos)
      << diff;
  EXPECT_NE(diff.find("interp.executed.square_roots: 0 vs 1"),
            std::string::npos)
      << diff;
}

// to_json only summarises the timeline; the gate still compares every
// interval field by field.
TEST(Lockstep, DiffNamesTimelineIntervalField) {
  RunStats a, b;
  a.timeline.add(Lane::kKernel, 0, 10, "kernel square");
  b.timeline.add(Lane::kKernel, 0, 10, "kernel square");
  a.timeline.add(Lane::kMemory, 4, 9, "gather s11", 1);
  b.timeline.add(Lane::kMemory, 4, 9, "gather s12", 1);
  const std::string diff = diff_run_stats(a, b);
  EXPECT_NE(diff.find("timeline.intervals[1].label: \"gather s11\" vs "
                      "\"gather s12\""),
            std::string::npos)
      << diff;
  EXPECT_EQ(diff.find("intervals[0]"), std::string::npos) << diff;

  b.timeline.add(Lane::kStall, 9, 12, "sdr-stall");
  EXPECT_NE(diff_run_stats(a, b).find("timeline.intervals: length 2 vs 3"),
            std::string::npos);
}

// Memory images compare by bit pattern: +0.0 == -0.0 as doubles, but a
// gate that lets the sign of zero drift is not a bit-identity gate.
TEST(Lockstep, MemoryDiffNamesSignedZeroWord) {
  mem::GlobalMemory a(8), b(8);
  a.write(5, 0.0);
  b.write(5, -0.0);
  const std::string diff = mem::diff_memory(a, b);
  EXPECT_NE(diff.find("memory word 5: 0 (0x0000000000000000) vs "
                      "-0 (0x8000000000000000)"),
            std::string::npos)
      << diff;
  EXPECT_EQ(mem::diff_memory(a, a), "");

  mem::GlobalMemory c(9);
  EXPECT_EQ(mem::diff_memory(a, c), "memory size: 8 vs 9");
}

// The real application: one small time-step per variant, both engines in
// lockstep. This is the ctest wired into scripts/check.sh.
TEST(Lockstep, StreamMdVariantsRunBitIdentical) {
  core::ExperimentSetup setup;
  setup.n_molecules = 64;
  const core::Problem problem = core::Problem::make(setup);
  for (const core::Variant v :
       {core::Variant::kExpanded, core::Variant::kFixed,
        core::Variant::kVariable, core::Variant::kDuplicated}) {
    MachineConfig cfg = MachineConfig::merrimac();
    cfg.engine = SimEngine::kLockstep;
    // kLockstep throws on the first diverging stat; completing the run IS
    // the assertion.
    const core::VariantResult r = core::run_variant(problem, v, cfg);
    EXPECT_GT(r.run.cycles, 0u) << core::variant_name(v);
  }
}

}  // namespace
}  // namespace smd::sim
