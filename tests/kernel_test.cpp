#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "src/analysis/diag.h"
#include "src/analysis/verify_ir.h"
#include "src/kernel/cost.h"
#include "src/kernel/interp.h"
#include "src/kernel/ir.h"
#include "src/kernel/schedule.h"
#include "src/kernel/vm.h"

namespace smd::kernel {
namespace {

using Reg = KernelBuilder::Reg;

/// y = a*x + b elementwise over an input stream.
KernelDef make_axpb(double a, double b) {
  KernelBuilder kb("axpb");
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("y", 1);
  kb.section(Section::kPrologue);
  const Reg ra = kb.constant(a);
  const Reg rb = kb.constant(b);
  kb.section(Section::kBody);
  const auto x = kb.read(in, 1);
  const Reg y = kb.madd(ra, x[0], rb);
  kb.write(out, y, 1);
  return kb.build();
}

TEST(Ir, BuilderProducesValidKernel) {
  const KernelDef k = make_axpb(2.0, 1.0);
  EXPECT_EQ(k.streams.size(), 2u);
  EXPECT_EQ(k.body.size(), 3u);
  EXPECT_EQ(analysis::verify_kernel(k).errors(), 0);
}

TEST(Ir, VerifierCatchesBadStreamDirection) {
  KernelDef k = make_axpb(1.0, 0.0);
  // Flip the read to target the output stream.
  for (auto& in : k.body) {
    if (in.op == Opcode::kRead) in.stream = 1;
  }
  const analysis::Diagnostics d = analysis::verify_kernel(k);
  EXPECT_NE(d.find("IR005"), nullptr) << d.format();
}

TEST(Ir, VerifierCatchesRegisterOverflow) {
  KernelDef k = make_axpb(1.0, 0.0);
  k.n_regs = 1;
  const analysis::Diagnostics d = analysis::verify_kernel(k);
  EXPECT_NE(d.find("IR001"), nullptr) << d.format();
}

TEST(Ir, BuildThrowsTheVerifierErrors) {
  KernelBuilder kb("bad");
  const int out = kb.stream_out("y", 1);
  kb.read(out, 1);  // read of an output stream
  try {
    kb.build();
    ADD_FAILURE() << "build() accepted a read of an output stream";
  } catch (const analysis::CheckFailure& e) {
    EXPECT_NE(e.diagnostics().find("IR005"), nullptr)
        << e.diagnostics().format();
  }
}

// ---------------------------------------------------------------------------
// The opcode table and the operand rule against execution. Each opcode
// runs as the middle of a three-instruction body: read every register, run
// it, write every register out. Registers the rule does not list as read
// must not affect any output; registers it does not list as written must
// keep their value. The compiled VM, which lowers each opcode from the
// table, must match the interpreter word for word and in every census
// field, so a wrong row names its opcode.
// ---------------------------------------------------------------------------

constexpr int kRuleRegs = 8;

/// `op` with every operand field set (dst 1, a 2, b 3, c 4; stream ops
/// move 2 words of slot 2), so an unlisted field the interpreter did read
/// would show.
Instr rule_instr(Opcode op) {
  Instr in{op, /*dst=*/1, /*a=*/2, /*b=*/3, /*c=*/4};
  in.imm = 7.0;
  if (is_stream_op(op)) {
    in.stream = 2;
    in.count = 2;
  }
  return in;
}

/// What one backend produced for a rule kernel.
struct RuleRun {
  std::vector<double> words;  ///< registers written out, then stored words
  InterpStats stats;
};

/// Runs `op` on `n_clusters` clusters, each starting from LRF contents
/// `regs`; words come out cluster by cluster.
RuleRun run_rule_instr(const Instr& op, const std::vector<double>& regs,
                       KernelBackend backend, int n_clusters) {
  KernelDef k;
  k.name = "rule";
  k.n_regs = kRuleRegs;
  k.streams.push_back({"regs_in", StreamDir::kIn, kRuleRegs, false});
  k.streams.push_back({"regs_out", StreamDir::kOut, kRuleRegs, false});
  k.body.push_back({Opcode::kRead, /*dst=*/0, -1, -1, -1, 0, kRuleRegs});
  k.body.push_back(op);
  k.body.push_back({Opcode::kWrite, -1, /*a=*/0, -1, -1, 1, kRuleRegs});
  std::vector<double> lrfs, loaded;
  for (int c = 0; c < n_clusters; ++c) {
    lrfs.insert(lrfs.end(), regs.begin(), regs.end());
    loaded.insert(loaded.end(), {100.5 + c, 200.25 + c});
  }
  std::vector<double> stored;
  RuleRun run;
  StreamBindings b;
  b.inputs = {std::span<const double>(lrfs), {}};
  b.outputs = {nullptr, &run.words};
  if (is_stream_op(op.op)) {
    const bool read = is_stream_read(op.op);
    k.streams.push_back({"s", read ? StreamDir::kIn : StreamDir::kOut,
                         op.count, is_conditional_stream_op(op.op)});
    b.inputs.push_back(read ? std::span<const double>(loaded)
                            : std::span<const double>());
    b.outputs.push_back(read ? nullptr : &stored);
  }
  KernelExec exec(k, n_clusters, backend);
  run.stats = exec.run(b, 1);
  run.words.insert(run.words.end(), stored.begin(), stored.end());
  return run;
}

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& words) {
  std::vector<std::uint64_t> bits;
  for (const double w : words) bits.push_back(std::bit_cast<std::uint64_t>(w));
  return bits;
}

TEST(Ir, OperandRuleMatchesInterpreter) {
  for (const OpInfo& row : kOpTable) {
    const Instr op = rule_instr(row.op);
    const RegOperands rule = reg_operands(op);
    std::vector<bool> read(kRuleRegs, false), written(kRuleRegs, false);
    rule.for_each_read(
        [&](int r) { read[static_cast<std::size_t>(r)] = true; });
    for (int r : rule.defs) written[static_cast<std::size_t>(r)] = true;
    // Register 4 is c: a conditional access's predicate, kSel's selector.
    for (double pred : {0.0, 1.0}) {
      SCOPED_TRACE(std::string(opcode_name(op.op)) + " with r4 = " +
                   std::to_string(pred));
      std::vector<double> regs(kRuleRegs);
      for (int r = 0; r < kRuleRegs; ++r) {
        regs[static_cast<std::size_t>(r)] = 1.5 + r;
      }
      regs[4] = pred;
      // Two clusters, so that a broadcast read differs from a plain one.
      const RuleRun interp =
          run_rule_instr(op, regs, KernelBackend::kInterp, 2);
      const RuleRun vm = run_rule_instr(op, regs, KernelBackend::kVm, 2);
      EXPECT_EQ(bit_patterns(vm.words), bit_patterns(interp.words));
      EXPECT_EQ(diff_interp_stats(interp.stats, vm.stats), "");
      const std::vector<double> base =
          run_rule_instr(op, regs, KernelBackend::kInterp, 1).words;
      for (int r = 0; r < kRuleRegs; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        if (!written[ri]) {
          EXPECT_EQ(base[ri], regs[ri]) << "unlisted write of r" << r;
        }
      }
      for (int r = 0; r < kRuleRegs; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        if (read[ri]) continue;
        std::vector<double> changed = regs;
        changed[ri] += 1000.0;
        const std::vector<double> got =
            run_rule_instr(op, changed, KernelBackend::kInterp, 1).words;
        ASSERT_EQ(got.size(), base.size());
        for (std::size_t w = 0; w < got.size(); ++w) {
          // Only r's own copy may move, and only if it is not written.
          if (w == ri && !written[ri]) continue;
          EXPECT_EQ(got[w], base[w]) << "unlisted read of r" << r
                                     << " moved output word " << w;
        }
      }
    }
  }
}

TEST(Ir, CensusCountsMaddAsTwoFlops) {
  const KernelDef k = make_axpb(2.0, 1.0);
  const FlopCensus c = k.body_census();
  EXPECT_EQ(c.flops, 2);
  EXPECT_EQ(c.fpu_ops, 1);
  EXPECT_EQ(c.words_read, 1);
  EXPECT_EQ(c.words_written, 1);
}

TEST(Ir, RsqrtCountsAsDividePlusSqrt) {
  KernelBuilder kb("r");
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("y", 1);
  const auto x = kb.read(in, 1);
  const Reg y = kb.rsqrt(x[0]);
  kb.write(out, y, 1);
  const FlopCensus c = kb.build().body_census();
  EXPECT_EQ(c.divides, 1);
  EXPECT_EQ(c.square_roots, 1);
  EXPECT_EQ(c.flops, 2);
}

TEST(Interp, AxpbComputesCorrectValues) {
  const KernelDef k = make_axpb(2.0, 1.0);
  Interpreter interp(k, 4);
  std::vector<double> x(32);
  std::iota(x.begin(), x.end(), 0.0);
  std::vector<double> y;
  StreamBindings b;
  b.inputs = {std::span<const double>(x), {}};
  b.outputs = {nullptr, &y};
  interp.run(b, 8);  // 8 rounds x 4 clusters = 32 elements
  ASSERT_EQ(y.size(), 32u);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_DOUBLE_EQ(y[i], 2.0 * static_cast<double>(i) + 1.0);
  }
}

TEST(Interp, ThrowsOnExhaustedInput) {
  const KernelDef k = make_axpb(1.0, 0.0);
  Interpreter interp(k, 4);
  std::vector<double> x(3);  // too short for one round of 4 clusters
  std::vector<double> y;
  StreamBindings b;
  b.inputs = {std::span<const double>(x), {}};
  b.outputs = {nullptr, &y};
  EXPECT_THROW(interp.run(b, 1), std::runtime_error);
}

TEST(Interp, StatsCountExecutedOps) {
  const KernelDef k = make_axpb(1.0, 0.0);
  Interpreter interp(k, 4);
  std::vector<double> x(16, 1.0);
  std::vector<double> y;
  StreamBindings b;
  b.inputs = {std::span<const double>(x), {}};
  b.outputs = {nullptr, &y};
  const InterpStats s = interp.run(b, 4);
  EXPECT_EQ(s.body_iterations, 16);
  EXPECT_EQ(s.executed.flops, 2 * 16);  // one MADD per element
  EXPECT_EQ(s.srf_read_words, 16);
  EXPECT_EQ(s.srf_write_words, 16);
}

/// Sum-reduction kernel using a loop-carried accumulator and a blocked
/// outer section: per block of L inputs, writes one partial sum.
KernelDef make_block_sum(int L) {
  KernelBuilder kb("block_sum");
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("sum", 1);
  kb.block_len(L);
  kb.section(Section::kPrologue);
  const Reg zero = kb.constant(0.0);
  kb.section(Section::kOuterPre);
  // acc must be a stable register across iterations: allocate it up front.
  // (Allocate in prologue scope by moving zero into a fresh register.)
  const Reg acc = kb.mov(zero);
  kb.section(Section::kBody);
  const auto x = kb.read(in, 1);
  kb.add_to(acc, acc, x[0]);
  kb.section(Section::kOuterPost);
  kb.write(out, acc, 1);
  return kb.build();
}

TEST(Interp, BlockedReductionSumsPerBlock) {
  const int L = 4;
  const KernelDef k = make_block_sum(L);
  Interpreter interp(k, 2);  // 2 clusters
  // 2 clusters x 3 rounds x L inputs = 24 values. Values are consumed in
  // (round, iteration, cluster) order.
  std::vector<double> x(24);
  std::iota(x.begin(), x.end(), 1.0);
  std::vector<double> sums;
  StreamBindings b;
  b.inputs = {std::span<const double>(x), {}};
  b.outputs = {nullptr, &sums};
  interp.run(b, 3);
  ASSERT_EQ(sums.size(), 6u);  // 3 rounds x 2 clusters
  // Round 0: cluster 0 gets x[0],x[2],x[4],x[6]; cluster 1 gets x[1],...
  EXPECT_DOUBLE_EQ(sums[0], 1 + 3 + 5 + 7);
  EXPECT_DOUBLE_EQ(sums[1], 2 + 4 + 6 + 8);
  const double total = std::accumulate(sums.begin(), sums.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 24.0 * 25.0 / 2.0);
}

/// Kernel with a conditional read: consumes a value from the `select`
/// stream only when the control word is non-zero, else reuses the last.
KernelDef make_cond_reader() {
  KernelBuilder kb("cond_reader");
  const int ctrl = kb.stream_in("ctrl", 1);
  const int data = kb.stream_in("data", 1, /*conditional=*/true);
  const int out = kb.stream_out("y", 1);
  kb.section(Section::kPrologue);
  const Reg cur = kb.constant(-1.0);  // stable register, persists
  kb.section(Section::kBody);
  const auto c = kb.read(ctrl, 1);
  kb.read_cond_to(data, cur, 1, c[0]);
  kb.write(out, cur, 1);
  return kb.build();
}

TEST(Interp, ConditionalReadCompactsAcrossClusters) {
  const KernelDef k = make_cond_reader();
  Interpreter interp(k, 2);
  // Round-major control: iteration 0 -> clusters {1,0}: only cluster 1
  // pulls; iteration 1 -> both pull.
  const std::vector<double> ctrl = {0, 1, 1, 1};
  const std::vector<double> data = {10, 20, 30};
  std::vector<double> y;
  StreamBindings b;
  b.inputs = {std::span<const double>(ctrl), std::span<const double>(data), {}};
  b.outputs = {nullptr, nullptr, &y};
  const InterpStats s = interp.run(b, 2);
  ASSERT_EQ(y.size(), 4u);
  // iter 0: cluster0 keeps -1, cluster1 pulls 10.
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0);
  // iter 1: cluster0 pulls 20, cluster1 pulls 30 (cluster order).
  EXPECT_DOUBLE_EQ(y[2], 20.0);
  EXPECT_DOUBLE_EQ(y[3], 30.0);
  EXPECT_EQ(s.cond_accesses, 4);
  EXPECT_EQ(s.cond_taken, 3);
}

TEST(Interp, SelAndCmpSemantics) {
  KernelBuilder kb("selcmp");
  const int in = kb.stream_in("x", 2);
  const int out = kb.stream_out("y", 1);
  const auto x = kb.read(in, 2);
  const Reg lt = kb.cmp_lt(x[0], x[1]);
  const Reg y = kb.sel(lt, x[0], x[1]);  // min(x0, x1)
  kb.write(out, y, 1);
  const KernelDef k = kb.build();
  Interpreter interp(k, 1);
  const std::vector<double> x_data = {3, 7, 9, 2};
  std::vector<double> y_data;
  StreamBindings b;
  b.inputs = {std::span<const double>(x_data), {}};
  b.outputs = {nullptr, &y_data};
  interp.run(b, 2);
  ASSERT_EQ(y_data.size(), 2u);
  EXPECT_DOUBLE_EQ(y_data[0], 3.0);
  EXPECT_DOUBLE_EQ(y_data[1], 2.0);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TEST(Schedule, ResourceBoundRespected) {
  const KernelDef k = make_axpb(2.0, 1.0);
  ScheduleOptions opts;
  const Schedule s = schedule_body(k, opts);
  // 1 FPU op and 2 stream words per iteration: II is tiny but >= 1.
  EXPECT_GE(s.ii, 1);
  EXPECT_LE(s.fpu_occupancy, 1.0 + 1e-9);
}

TEST(Schedule, IterativeOpsOccupyConsecutiveSlots) {
  KernelBuilder kb("divs");
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("y", 1);
  const auto x = kb.read(in, 1);
  const Reg one = kb.constant(1.0);
  const Reg y = kb.div(one, x[0]);
  kb.write(out, y, 1);
  const KernelDef k = kb.build();
  const Schedule s = schedule_body(k, {});
  // A divide needs 8 consecutive slots on one FPU: II >= 8.
  EXPECT_GE(s.ii, op_cost(Opcode::kDiv).fpu_slots);
}

TEST(Schedule, DependenceLatencyRespected) {
  // Chain of dependent adds: the list schedule must be at least
  // chain-length x latency deep.
  KernelBuilder kb("chain");
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("y", 1);
  auto x = kb.read(in, 1);
  Reg v = x[0];
  const int chain = 6;
  for (int i = 0; i < chain; ++i) v = kb.add(v, v);
  kb.write(out, v, 1);
  const KernelDef k = kb.build();
  ScheduleOptions opts;
  opts.software_pipeline = false;
  const Schedule s = schedule_body(k, opts);
  EXPECT_GE(s.depth, chain * op_cost(Opcode::kAdd).latency);
}

TEST(Schedule, PipeliningBeatsListScheduleOnDeepKernels) {
  // Many independent multiply chains: the modulo schedule should be
  // issue-bound while the plain list schedule pays the full depth.
  KernelBuilder kb("deep");
  const int in = kb.stream_in("x", 4);
  const int out = kb.stream_out("y", 4);
  auto x = kb.read(in, 4);
  std::vector<Reg> ys;
  for (int c = 0; c < 4; ++c) {
    Reg v = x[static_cast<std::size_t>(c)];
    for (int i = 0; i < 5; ++i) v = kb.mul(v, v);
    ys.push_back(v);
  }
  // Move results into a contiguous block for the stream write.
  const auto block = kb.alloc_n(4);
  for (int c = 0; c < 4; ++c) kb.mov_to(block[static_cast<std::size_t>(c)], ys[static_cast<std::size_t>(c)]);
  kb.write(out, block[0], 4);
  const KernelDef k = kb.build();

  ScheduleOptions nosp;
  nosp.software_pipeline = false;
  const Schedule before = schedule_body(k, nosp);
  ScheduleOptions sp;
  sp.software_pipeline = true;
  const Schedule after = schedule_body(k, sp);
  EXPECT_LT(after.cycles_per_iteration(), before.cycles_per_iteration());
}

TEST(Schedule, UnrollHalvesPerIterationCost) {
  const KernelDef k = make_axpb(2.0, 1.0);
  ScheduleOptions u1;
  u1.unroll = 1;
  ScheduleOptions u2;
  u2.unroll = 2;
  const Schedule s1 = schedule_body(k, u1);
  const Schedule s2 = schedule_body(k, u2);
  // Unrolling amortizes: per-iteration cost must not grow.
  EXPECT_LE(s2.cycles_per_iteration(), s1.cycles_per_iteration() + 1e-9);
}

TEST(Schedule, LoopCarriedAccumulatorBoundsII) {
  // acc += x every iteration: recurrence forces II >= ADD latency.
  KernelBuilder kb("accum");
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("y", 1);
  kb.section(Section::kPrologue);
  const Reg acc = kb.constant(0.0);
  kb.section(Section::kBody);
  const auto x = kb.read(in, 1);
  kb.add_to(acc, acc, x[0]);
  kb.write(out, acc, 1);
  const KernelDef k = kb.build();
  const Schedule s = schedule_body(k, {});
  EXPECT_GE(s.ii, op_cost(Opcode::kAdd).latency);
}

TEST(Schedule, NoFpuOversubscription) {
  // Property: in any schedule, no more than n_fpus slot-reservations per
  // cycle. Verified by reconstructing the modulo reservation table.
  KernelBuilder kb("many");
  const int in = kb.stream_in("x", 8);
  const int out = kb.stream_out("y", 8);
  auto x = kb.read(in, 8);
  const auto y = kb.alloc_n(8);
  for (int i = 0; i < 8; ++i) {
    kb.mov_to(y[static_cast<std::size_t>(i)],
              kb.madd(x[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)],
                      x[static_cast<std::size_t>((i + 1) % 8)]));
  }
  kb.write(out, y[0], 8);
  const KernelDef k = kb.build();
  ScheduleOptions opts;
  const Schedule s = schedule_body(k, opts);
  std::vector<std::vector<int>> usage(static_cast<std::size_t>(s.ii),
                                      std::vector<int>(4, 0));
  for (const auto& op : s.ops) {
    if (op.fpu < 0) continue;
    const OpCost c = op_cost(op.op);
    for (int kslot = 0; kslot < c.fpu_slots; ++kslot) {
      ++usage[static_cast<std::size_t>((op.cycle + kslot) % s.ii)]
             [static_cast<std::size_t>(op.fpu)];
    }
  }
  for (const auto& row : usage) {
    for (int count : row) EXPECT_LE(count, 1);
  }
}

TEST(Schedule, AsciiRendersGrid) {
  const KernelDef k = make_axpb(2.0, 1.0);
  const Schedule s = schedule_body(k, {});
  const std::string a = s.ascii();
  EXPECT_NE(a.find("FPU0"), std::string::npos);
  EXPECT_NE(a.find("MADD"), std::string::npos);
}

TEST(Schedule, StraightlineCyclesPositive) {
  const KernelDef k = make_axpb(1.0, 1.0);
  EXPECT_GT(straightline_cycles(k.body, {}), 0);
  EXPECT_EQ(straightline_cycles({}, {}), 0);
}

// ---------------------------------------------------------------------------
// Runtime backstops -- shared goldens between the interpreter (which hits
// them at run time, behind the static pre-flight) and the compiled VM
// (which hits them at lowering time, before the pre-flight). Same check
// IDs, same exception types, same messages.
// ---------------------------------------------------------------------------

/// Valid axpb bindings: one round of 4 clusters.
struct AxpbRun {
  std::vector<double> x = std::vector<double>(16, 1.0);
  std::vector<double> y;
  StreamBindings b;
  AxpbRun() {
    b.inputs = {std::span<const double>(x), {}};
    b.outputs = {nullptr, &y};
  }
};

TEST(Backstop, InterpRegisterOutOfRangeIsIR001) {
  KernelDef k = make_axpb(1.0, 0.0);
  Interpreter interp(k, 4);  // verifies the (still valid) kernel
  // Corrupt an operand AFTER construction: the static pre-flight already
  // passed, so only the runtime backstop stands between this and UB.
  for (auto& in : k.body) {
    if (in.op == Opcode::kMadd) in.dst = 99;
  }
  AxpbRun r;
  try {
    interp.run(r.b, 1);
    FAIL() << "expected CheckFailure";
  } catch (const analysis::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("IR001"), std::string::npos)
        << e.what();
  }
}

TEST(Backstop, InterpStreamSlotOutOfRangeIsIR002) {
  KernelDef k = make_axpb(1.0, 0.0);
  Interpreter interp(k, 4);
  for (auto& in : k.body) {
    if (in.op == Opcode::kWrite) in.stream = 7;
  }
  AxpbRun r;
  try {
    interp.run(r.b, 1);
    FAIL() << "expected CheckFailure";
  } catch (const analysis::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("IR002"), std::string::npos)
        << e.what();
  }
}

TEST(Backstop, VmRegisterOutOfRangeIsIR001AtCompile) {
  KernelDef k = make_axpb(1.0, 0.0);
  for (auto& in : k.body) {
    if (in.op == Opcode::kMadd) in.dst = 99;
  }
  // The VM range-checks during lowering, BEFORE the full verifier, so the
  // backstop is what fires -- same ID the interpreter raises at run time.
  try {
    CompiledKernel vm(k, 4);
    FAIL() << "expected CheckFailure";
  } catch (const analysis::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("IR001"), std::string::npos)
        << e.what();
  }
}

TEST(Backstop, VmStreamSlotOutOfRangeIsIR002AtCompile) {
  KernelDef k = make_axpb(1.0, 0.0);
  for (auto& in : k.body) {
    if (in.op == Opcode::kWrite) in.stream = 7;
  }
  try {
    CompiledKernel vm(k, 4);
    FAIL() << "expected CheckFailure";
  } catch (const analysis::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("IR002"), std::string::npos)
        << e.what();
  }
}

/// Capture the what() of a std::runtime_error thrown by `fn`.
template <typename F>
std::string thrown_message(F&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Backstop, ExhaustedInputMessageIdenticalAcrossBackends) {
  const KernelDef k = make_axpb(1.0, 0.0);
  std::vector<double> x(3);  // too short for one round of 4 clusters
  std::vector<double> y;
  StreamBindings b;
  b.inputs = {std::span<const double>(x), {}};
  b.outputs = {nullptr, &y};
  Interpreter interp(k, 4);
  CompiledKernel vm(k, 4);
  const std::string mi = thrown_message([&] { interp.run(b, 1); });
  const std::string mv = thrown_message([&] { vm.run(b, 1); });
  EXPECT_NE(mi.find("input stream 'x' exhausted"), std::string::npos) << mi;
  EXPECT_EQ(mi, mv);
}

TEST(Backstop, BindingArityMismatchIdenticalAcrossBackends) {
  const KernelDef k = make_axpb(1.0, 0.0);
  StreamBindings b;  // empty: wrong arity for a two-stream kernel
  Interpreter interp(k, 4);
  CompiledKernel vm(k, 4);
  const std::string mi = thrown_message([&] { interp.run(b, 1); });
  const std::string mv = thrown_message([&] { vm.run(b, 1); });
  EXPECT_NE(mi.find("binding arity mismatch"), std::string::npos) << mi;
  EXPECT_EQ(mi, mv);
}

TEST(Backstop, UnboundOutputSinkThrowsBeforePredicate) {
  // A conditional write whose predicate NEVER fires must still report the
  // unbound sink: the bind check is hoisted before the predicate test in
  // both backends (the kWriteCond determinism fix).
  KernelBuilder kb("cond_unbound");
  const int in = kb.stream_in("x", 1);
  const int out = kb.stream_out("y", 1, /*conditional=*/true);
  kb.section(Section::kPrologue);
  const Reg zero = kb.constant(0.0);
  kb.section(Section::kBody);
  const auto x = kb.read(in, 1);
  kb.write_cond(out, x[0], 1, zero);  // predicate always false
  const KernelDef k = kb.build();

  std::vector<double> x_data(8, 1.0);
  StreamBindings b;
  b.inputs = {std::span<const double>(x_data), {}};
  b.outputs = {nullptr, nullptr};  // output sink deliberately unbound

  Interpreter interp(k, 4);
  CompiledKernel vm(k, 4);
  const std::string mi = thrown_message([&] { interp.run(b, 1); });
  const std::string mv = thrown_message([&] { vm.run(b, 1); });
  EXPECT_NE(mi.find("output stream not bound"), std::string::npos) << mi;
  EXPECT_EQ(mi, mv);
}

}  // namespace
}  // namespace smd::kernel
