// Verified-optimizer equivalence sweep: the hard gate behind kernel/opt.h.
//
// The optimizer is only allowed to exist because its output is bit-
// identical to its input in every observable way. This suite enforces
// that claim at two levels:
//
//   * full simulation -- every Table-3 variant kernel plus the
//     deliberately naive expanded kernel runs a complete strip-mined
//     water-box time-step under SimEngine::kLockstep (which itself
//     cross-checks the stepped and event engines), baseline vs. optimized,
//     under BOTH SDR blocking policies. The final memory image (forces)
//     must match bit for bit (mem::diff_memory), and the structural run
//     statistics (memory traffic, SRF traffic, iteration counts) must be
//     unchanged. When the optimizer made zero rewrites diff_run_stats must
//     be empty: every field to_json(RunStats) emits and every interval.
//   * functional interpretation -- kernels with no stream-program builder
//     (energy, multi-site, blocked) run through the interpreter on
//     randomized inputs, baseline vs. optimized, comparing every output
//     word by bit pattern.
//
// Plus the acceptance claims of the dataflow engine itself: static peak
// LRF pressure equals the dynamic replay oracle on every built-in kernel,
// and the naive kernel collapses to the tuned kernel's scheduled cost.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/analysis/verify_ir.h"
#include "src/core/kernels.h"
#include "src/core/program.h"
#include "src/core/run.h"
#include "src/core/streammd.h"
#include "src/kernel/interp.h"
#include "src/kernel/opt.h"
#include "src/kernel/schedule.h"
#include "src/md/water.h"
#include "src/sim/config.h"
#include "src/sim/machine.h"
#include "src/util/rng.h"

namespace smd {
namespace {

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One full strip-mined simulation of `v`'s layout with an explicit kernel
/// definition (run_variant always builds its own; the sweep needs to
/// substitute the optimized twin).
struct SimOut {
  sim::RunStats run;
  mem::GlobalMemory mem;
};

SimOut simulate(const core::Problem& problem, core::Variant v,
                const kernel::KernelDef& kdef, const sim::MachineConfig& cfg) {
  const core::VariantLayout layout =
      core::build_layout(v, problem.system, problem.half_list,
                         core::layout_options(problem.setup, cfg));
  sim::Machine machine(cfg);
  const core::ProblemImage image =
      core::upload_system(machine.memory(), problem.system);
  const sim::StreamProgram program =
      core::build_program(machine.memory(), image, layout, kdef);
  SimOut out;
  out.run = machine.run(program);
  out.mem = machine.memory();
  return out;
}

/// The parts of RunStats the optimizer must never change: stream traffic
/// and iteration structure. (Cycle counts and flop tallies legitimately
/// shrink when instructions are removed.)
void expect_structural_match(const sim::RunStats& a, const sim::RunStats& b,
                             const std::string& what) {
  EXPECT_EQ(a.mem_words, b.mem_words) << what;
  EXPECT_EQ(a.interp.srf_read_words, b.interp.srf_read_words) << what;
  EXPECT_EQ(a.interp.srf_write_words, b.interp.srf_write_words) << what;
  EXPECT_EQ(a.interp.cond_accesses, b.interp.cond_accesses) << what;
  EXPECT_EQ(a.interp.cond_taken, b.interp.cond_taken) << what;
  EXPECT_EQ(a.interp.body_iterations, b.interp.body_iterations) << what;
}

// The tentpole gate: Table-3 variants + the naive kernel, both SDR
// policies, full lockstep simulation, bitwise-identical memory images.
TEST(OptEquivalence, LockstepSweepTableThreeVariantsBothPolicies) {
  core::ExperimentSetup setup;
  setup.n_molecules = 48;
  const core::Problem problem = core::Problem::make(setup);

  struct Case {
    core::Variant variant;
    kernel::KernelDef def;
  };
  std::vector<Case> cases;
  for (const core::Variant v :
       {core::Variant::kExpanded, core::Variant::kFixed,
        core::Variant::kVariable, core::Variant::kDuplicated}) {
    cases.push_back({v, core::build_water_kernel(v, problem.system.model())});
  }
  // The naive kernel shares the expanded stream interface, so it runs the
  // expanded layout; this is the case where the optimizer rewrites a lot.
  cases.push_back({core::Variant::kExpanded,
                   core::build_expanded_naive_kernel(problem.system.model())});

  for (const Case& c : cases) {
    kernel::OptReport rep;
    const kernel::KernelDef opt = kernel::optimize_kernel(c.def, &rep);
    for (const sim::SdrPolicy policy :
         {sim::SdrPolicy::kConservative, sim::SdrPolicy::kTransferScoped}) {
      sim::MachineConfig cfg = sim::MachineConfig::merrimac();
      cfg.engine = sim::SimEngine::kLockstep;
      cfg.sdr_policy = policy;
      const std::string what =
          c.def.name + (policy == sim::SdrPolicy::kConservative
                            ? " [conservative]"
                            : " [transfer-scoped]");

      const SimOut base = simulate(problem, c.variant, c.def, cfg);
      const SimOut tuned = simulate(problem, c.variant, opt, cfg);

      if (rep.total_rewrites() == 0) {
        EXPECT_EQ(sim::diff_run_stats(base.run, tuned.run), "") << what;
      }
      expect_structural_match(base.run, tuned.run, what);
      EXPECT_EQ(mem::diff_memory(base.mem, tuned.mem), "") << what;
    }
  }
}

/// Interpreter-level bit identity for kernels without a stream-program
/// builder. Inputs are randomized; outputs must match by bit pattern.
void expect_interp_bit_identical(const kernel::KernelDef& base,
                                 const kernel::KernelDef& opt,
                                 std::uint64_t seed) {
  constexpr int kClusters = 4;
  constexpr std::int64_t kRounds = 3;
  util::Rng rng(seed);

  // Generous input sizing: every section of every cluster could take every
  // conditional access on every iteration.
  const std::int64_t accesses_per_stream =
      kRounds * (base.block_len + 2) * kClusters;
  // Input data keyed by stream NAME so both runs see identical words even
  // when dead-stream elimination removed a slot and renumbered the rest.
  std::map<std::string, std::vector<double>> input_store;
  auto run_one = [&](const kernel::KernelDef& def) {
    kernel::StreamBindings b;
    std::vector<std::vector<double>> outs(def.streams.size());
    for (std::size_t s = 0; s < def.streams.size(); ++s) {
      if (def.streams[s].dir == kernel::StreamDir::kIn) {
        auto [it, fresh] = input_store.try_emplace(def.streams[s].name);
        if (fresh) {
          it->second.resize(static_cast<std::size_t>(
              accesses_per_stream * def.streams[s].record_words));
          for (double& d : it->second) d = rng.uniform(-2.0, 2.0);
        }
        b.inputs.emplace_back(it->second);
        b.outputs.push_back(nullptr);
      } else {
        b.inputs.emplace_back();
        b.outputs.push_back(&outs[s]);
      }
    }
    kernel::Interpreter interp(def, kClusters);
    interp.run(b, kRounds);
    return outs;
  };

  const auto base_out = run_one(base);
  const auto opt_out = run_one(opt);
  // Dead-stream elimination may shrink the slot count; compare the
  // surviving outputs by name.
  for (std::size_t so = 0; so < opt.streams.size(); ++so) {
    if (opt.streams[so].dir != kernel::StreamDir::kOut) continue;
    std::size_t sb = 0;
    while (sb < base.streams.size() &&
           base.streams[sb].name != opt.streams[so].name) {
      ++sb;
    }
    ASSERT_LT(sb, base.streams.size()) << opt.streams[so].name;
    ASSERT_EQ(base_out[sb].size(), opt_out[so].size()) << base.name;
    for (std::size_t w = 0; w < base_out[sb].size(); ++w) {
      ASSERT_EQ(bits_of(base_out[sb][w]), bits_of(opt_out[so][w]))
          << base.name << " stream " << opt.streams[so].name << " word " << w;
    }
  }
}

TEST(OptEquivalence, InterpSweepKernelsWithoutProgramBuilders) {
  const md::WaterModel model = md::spc();
  std::vector<kernel::KernelDef> defs;
  defs.push_back(core::build_expanded_energy_kernel(model));
  for (const md::WaterModel& m : {md::spc(), md::tip5p(), md::ppc()}) {
    defs.push_back(core::build_multisite_kernel(m));
  }
  defs.push_back(core::build_blocked_kernel(model, 1.0, 8));
  std::uint64_t seed = 0x5eed;
  for (const kernel::KernelDef& def : defs) {
    const kernel::KernelDef opt = kernel::optimize_kernel(def);
    expect_interp_bit_identical(def, opt, seed++);
  }
}

// Acceptance: the naive kernel collapses to the tuned expanded kernel's
// scheduled cost, with every pass contributing.
TEST(OptEquivalence, NaiveKernelCollapsesToTunedCost) {
  const md::WaterModel model = md::spc();
  kernel::OptReport rep;
  const kernel::KernelDef opt =
      kernel::optimize_kernel(core::build_expanded_naive_kernel(model), &rep);
  EXPECT_GT(rep.const_folded, 0);
  EXPECT_GT(rep.copies_propagated, 0);
  EXPECT_GT(rep.cse_replaced, 0);
  EXPECT_GT(rep.dce_removed, 0);
  EXPECT_FALSE(rep.reverted_schedule_regression);

  const kernel::KernelDef tuned =
      core::build_water_kernel(core::Variant::kExpanded, model);
  const kernel::ScheduleOptions sched;
  EXPECT_DOUBLE_EQ(kernel::schedule_body(opt, sched).cycles_per_iteration(),
                   kernel::schedule_body(tuned, sched).cycles_per_iteration());

  // And it re-verifies with zero errors (warnings allowed: the optimizer
  // does not reorder packing movs, so pressure-style lints may remain).
  EXPECT_EQ(analysis::verify_kernel(opt).errors(), 0);
}

// Acceptance: exact static pressure == dynamic replay oracle, every
// built-in kernel (same sweep smdcheck --dataflow gates on).
TEST(OptEquivalence, StaticPressureMatchesDynamicReplay) {
  const md::WaterModel model = md::spc();
  std::vector<kernel::KernelDef> defs;
  for (const core::Variant v :
       {core::Variant::kExpanded, core::Variant::kFixed,
        core::Variant::kVariable, core::Variant::kDuplicated}) {
    defs.push_back(core::build_water_kernel(v, model));
  }
  defs.push_back(core::build_expanded_energy_kernel(model));
  for (const md::WaterModel& m : {md::spc(), md::tip5p(), md::ppc()}) {
    defs.push_back(core::build_multisite_kernel(m));
  }
  defs.push_back(core::build_blocked_kernel(model, 1.0, 64));
  defs.push_back(core::build_expanded_naive_kernel(model));
  for (const kernel::KernelDef& def : defs) {
    const analysis::KernelDataflow dfa(def);
    EXPECT_EQ(dfa.max_live_pressure(), analysis::dynamic_lrf_pressure(def))
        << def.name;
  }
}

// Randomized property: for arbitrary generated kernels -- carrying
// deliberate dead code, duplicate expressions, foldable constants and
// wholly-unused streams -- the optimizer's output always (a) re-verifies
// with zero errors AND zero warnings, (b) is interpreter-bit-identical,
// and (c) never schedules to more cycles/iteration than the input.
TEST(OptEquivalence, RandomKernelsOptimizeCleanAndBitIdentical) {
  for (int trial = 0; trial < 60; ++trial) {
    util::Rng rng(0xbeefULL + 131ULL * static_cast<std::uint64_t>(trial));
    kernel::KernelBuilder kb("random_" + std::to_string(trial));
    const int n_in = 1 + static_cast<int>(rng.uniform_u64(3));
    const int n_out = 1 + static_cast<int>(rng.uniform_u64(2));
    std::vector<int> ins, outs;
    for (int i = 0; i < n_in; ++i) {
      ins.push_back(kb.stream_in("in" + std::to_string(i), 1));
    }
    for (int i = 0; i < n_out; ++i) {
      outs.push_back(kb.stream_out("out" + std::to_string(i), 1));
    }
    using Reg = kernel::KernelBuilder::Reg;
    std::vector<Reg> vals;
    kb.section(kernel::Section::kPrologue);
    // A couple of constants; arithmetic on them is folding fodder.
    vals.push_back(kb.constant(rng.uniform(0.5, 2.0)));
    vals.push_back(kb.add(vals[0], kb.constant(1.0)));
    kb.section(kernel::Section::kBody);
    // With some probability the LAST input's words are never consumed:
    // dead-stream-elimination fodder (all-or-nothing per stream, so the
    // cursor never desyncs).
    const bool drop_last_in = n_in > 1 && rng.uniform_u64(3) == 0;
    for (int i = 0; i < n_in; ++i) {
      const auto r = kb.read(ins[static_cast<std::size_t>(i)], 1);
      if (i + 1 < n_in || !drop_last_in) vals.push_back(r[0]);
    }
    const int n_ops = 3 + static_cast<int>(rng.uniform_u64(12));
    std::vector<std::pair<Reg, Reg>> emitted;  // duplicate-emission fodder
    for (int i = 0; i < n_ops; ++i) {
      const Reg a = vals[rng.uniform_u64(vals.size())];
      const Reg b = vals[rng.uniform_u64(vals.size())];
      Reg r;
      switch (rng.uniform_u64(5)) {
        case 0: r = kb.add(a, b); break;
        case 1: r = kb.sub(a, b); break;
        case 2: r = kb.mul(a, b); break;
        case 3: r = kb.madd(a, b, vals[rng.uniform_u64(vals.size())]); break;
        default:
          // Exact duplicate of an earlier op: CSE fodder.
          if (!emitted.empty()) {
            const auto& e = emitted[rng.uniform_u64(emitted.size())];
            r = kb.mul(e.first, e.second);
          } else {
            r = kb.mul(a, b);
          }
          break;
      }
      emitted.emplace_back(a, b);
      vals.push_back(r);  // unconsumed tail values are DCE fodder
    }
    for (int i = 0; i < n_out; ++i) {
      kb.write(outs[static_cast<std::size_t>(i)],
               vals[vals.size() - 1 - static_cast<std::size_t>(i)], 1);
    }
    const kernel::KernelDef def = kb.build();

    kernel::OptReport rep;
    const kernel::KernelDef opt = kernel::optimize_kernel(def, &rep);
    const analysis::Diagnostics d = analysis::verify_kernel(opt);
    EXPECT_EQ(d.errors(), 0) << def.name << "\n" << d.format();
    EXPECT_EQ(d.warnings(), 0) << def.name << "\n" << d.format();
    EXPECT_FALSE(rep.reverted_schedule_regression) << def.name;
    EXPECT_LE(rep.cycles_per_iteration_after, rep.cycles_per_iteration_before)
        << def.name;
    expect_interp_bit_identical(def, opt, 0xf00dULL + trial);
  }
}

// Dead-stream elimination: an input stream whose every read lands in
// registers nobody consumes disappears entirely -- reads, declaration and
// slot renumbering -- and the surviving outputs are bit-identical.
TEST(OptEquivalence, DeadStreamEliminationDropsWholeStream) {
  kernel::KernelBuilder kb("dead_stream_demo");
  const int s_x = kb.stream_in("x", 2);
  const int s_junk = kb.stream_in("junk", 3);
  const int s_y = kb.stream_out("y", 1);
  kb.section(kernel::Section::kBody);
  const auto x = kb.read(s_x, 2);
  const auto j = kb.read(s_junk, 3);
  (void)j;  // never consumed
  kb.write(s_y, kb.madd(x[0], x[0], x[1]), 1);
  const kernel::KernelDef def = kb.build();

  kernel::OptReport rep;
  const kernel::KernelDef opt = kernel::optimize_kernel(def, &rep);
  EXPECT_EQ(rep.dead_streams_removed, 1);
  EXPECT_EQ(rep.dead_stream_reads_removed, 1);
  ASSERT_EQ(opt.streams.size(), 2u);
  EXPECT_EQ(opt.streams[0].name, "x");
  EXPECT_EQ(opt.streams[1].name, "y");
  expect_interp_bit_identical(def, opt, 0xdead);
}

}  // namespace
}  // namespace smd
