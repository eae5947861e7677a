// Tests for the static-analysis passes (src/analysis/): golden diagnostics
// for hand-built malformed IR and stream programs -- each asserting the
// stable check ID and location -- plus property tests that every built-in
// kernel variant, stream program and blocking scheme is lint-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/check_stream.h"
#include "src/analysis/dataflow.h"
#include "src/analysis/diag.h"
#include "src/analysis/verify_ir.h"
#include "src/core/blocking.h"
#include "src/core/kernels.h"
#include "src/core/layouts.h"
#include "src/core/program.h"
#include "src/core/run.h"
#include "src/md/water.h"
#include "src/mem/memsys.h"
#include "src/sim/config.h"
#include "src/sim/streamop.h"
#include "tests/malformed_kernels.h"

namespace smd {
namespace {

using analysis::CheckFailure;
using analysis::Diagnostic;
using analysis::Diagnostics;
using analysis::Severity;
using kernel::Instr;
using kernel::KernelDef;
using kernel::Opcode;

// ---------------------------------------------------------------------------
// Golden malformed-IR cases: one kernel per defect (tests/malformed_kernels.h).
// ---------------------------------------------------------------------------

using malformed::skeleton;

/// The one diagnostic with the given ID, asserting it exists.
const Diagnostic* expect_diag(const Diagnostics& d, const std::string& id) {
  const Diagnostic* found = d.find(id);
  EXPECT_NE(found, nullptr) << "expected " << id << " in:\n" << d.format();
  return found;
}

TEST(VerifyIr, UseBeforeDefOfNeverDefinedRegisterIsIR003) {
  const KernelDef k = malformed::undefined_source();
  const Diagnostics d = analysis::verify_kernel(k);
  const Diagnostic* g = expect_diag(d, "IR003");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
  EXPECT_EQ(g->loc.unit, "malformed");
  EXPECT_EQ(g->loc.section, "body");
  EXPECT_EQ(g->loc.index, 1);
  EXPECT_THROW(analysis::require_valid_kernel(k), CheckFailure);
}

TEST(VerifyIr, RegisterOutOfRangeIsIR001) {
  const Diagnostics d =
      analysis::verify_kernel(malformed::register_out_of_range());
  const Diagnostic* g = expect_diag(d, "IR001");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
  EXPECT_EQ(g->loc.str(), "malformed:body[1]");
}

TEST(VerifyIr, StreamSlotOutOfRangeIsIR002) {
  const Diagnostics d =
      analysis::verify_kernel(malformed::stream_slot_out_of_range());
  const Diagnostic* g = expect_diag(d, "IR002");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
  EXPECT_EQ(g->loc.str(), "malformed:body[0]");
}

TEST(VerifyIr, ReadOfOutputStreamIsDirectionMismatchIR005) {
  const Diagnostics d =
      analysis::verify_kernel(malformed::read_of_output_stream());
  const Diagnostic* g = expect_diag(d, "IR005");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
  EXPECT_EQ(g->loc.index, 0);
}

TEST(VerifyIr, CountRecordWordsMismatchIsIR006) {
  const Diagnostics d = analysis::verify_kernel(malformed::count_mismatch());
  const Diagnostic* g = expect_diag(d, "IR006");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
  EXPECT_EQ(g->loc.str(), "malformed:body[0]");
}

TEST(VerifyIr, ConditionalAccessOfNonConditionalDeclIsIR007) {
  const Diagnostics d =
      analysis::verify_kernel(malformed::conditional_access_of_plain_decl());
  const Diagnostic* g = expect_diag(d, "IR007");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
  EXPECT_EQ(g->loc.section, "body");
}

TEST(VerifyIr, PlainAccessOfConditionalDeclIsIR008) {
  const Diagnostics d =
      analysis::verify_kernel(malformed::plain_access_of_conditional_decl());
  const Diagnostic* g = expect_diag(d, "IR008");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
}

TEST(VerifyIr, UndefinedPredicateOnConditionalAccessIsIR009) {
  const Diagnostics d =
      analysis::verify_kernel(malformed::undefined_predicate());
  const Diagnostic* g = expect_diag(d, "IR009");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
  EXPECT_EQ(g->loc.str(), "malformed:body[0]");
}

TEST(VerifyIr, DoubleBroadcastOfOneStreamIsIR010) {
  const Diagnostics d = analysis::verify_kernel(malformed::double_broadcast());
  const Diagnostic* g = expect_diag(d, "IR010");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
}

TEST(VerifyIr, NonPositiveStreamCountIsIR011) {
  const Diagnostics d = analysis::verify_kernel(malformed::zero_count());
  const Diagnostic* g = expect_diag(d, "IR011");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
}

TEST(VerifyIr, DeadWriteIsIR012Warning) {
  const KernelDef k = malformed::dead_write();
  const Diagnostics d = analysis::verify_kernel(k);
  const Diagnostic* g = expect_diag(d, "IR012");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kWarning);
  EXPECT_EQ(d.errors(), 0);  // lint only -- pre-flight must not throw
  EXPECT_NO_THROW(analysis::require_valid_kernel(k));
}

TEST(VerifyIr, UnusedStreamDeclIsIR013Warning) {
  const Diagnostics d = analysis::verify_kernel(malformed::unused_stream());
  const Diagnostic* g = expect_diag(d, "IR013");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kWarning);
  EXPECT_EQ(g->loc.index, -1);  // about the unit, not an instruction
}

TEST(VerifyIr, NonPositiveBlockLenIsIR014) {
  const Diagnostics d = analysis::verify_kernel(malformed::zero_block_len());
  const Diagnostic* g = expect_diag(d, "IR014");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
}

TEST(VerifyIr, LrfPressureBeyondCapacityIsIR015) {
  analysis::VerifyOptions opts;
  opts.lrf_words = malformed::kTinyLrfWords;
  const Diagnostics d =
      analysis::verify_kernel(malformed::six_live_sums(), opts);
  const Diagnostic* g = expect_diag(d, "IR015");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kWarning);
  EXPECT_NE(d.find("IR016"), nullptr);  // pressure report always present
}

// ---------------------------------------------------------------------------
// Golden cases for the dataflow-backed semantic checks IR017-IR024.
// ---------------------------------------------------------------------------

TEST(VerifyIr, DeadOverwrittenDefinitionIsIR017) {
  const Diagnostics d =
      analysis::verify_kernel(malformed::overwritten_definition());
  const Diagnostic* g = expect_diag(d, "IR017");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kWarning);
  EXPECT_EQ(g->loc.str(), "malformed:body[1]");
}

TEST(VerifyIr, RedundantRecomputationIsIR018) {
  const Diagnostics d = analysis::verify_kernel(malformed::recomputation());
  const Diagnostic* g = expect_diag(d, "IR018");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kWarning);  // costs an FPU slot
  EXPECT_EQ(g->loc.str(), "malformed:body[2]");
  // The message names the register still holding the value.
  EXPECT_NE(g->message.find("register 2"), std::string::npos) << g->message;
}

TEST(VerifyIr, ConstantFoldableOpIsIR019) {
  const Diagnostics d = analysis::verify_kernel(malformed::foldable_add());
  const Diagnostic* g = expect_diag(d, "IR019");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kWarning);  // in the body: paid per iter
  EXPECT_EQ(g->loc.str(), "malformed:body[2]");
}

TEST(VerifyIr, CopyOfCopyIsIR020) {
  const Diagnostics d = analysis::verify_kernel(malformed::copy_of_copy());
  const Diagnostic* g = expect_diag(d, "IR020");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kNote);
  EXPECT_EQ(g->loc.str(), "malformed:body[2]");
  EXPECT_EQ(d.warnings(), 0) << d.format();  // note-only lint
}

TEST(VerifyIr, StreamReadWhoseWordsAreNeverUsedIsIR021) {
  const Diagnostics d = analysis::verify_kernel(malformed::unused_read());
  const Diagnostic* g = expect_diag(d, "IR021");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kWarning);
  EXPECT_EQ(g->loc.str(), "malformed:body[1]");
}

TEST(VerifyIr, ExactLivenessPressureBeyondLrfIsIR022) {
  // The IR015 interval-pressure kernel: the exact-liveness count must
  // agree that six sums live at once overflow a 4-word bound.
  analysis::VerifyOptions opts;
  opts.lrf_words = malformed::kTinyLrfWords;
  const Diagnostics d =
      analysis::verify_kernel(malformed::six_live_sums(), opts);
  const Diagnostic* g = expect_diag(d, "IR022");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kWarning);
}

TEST(VerifyIr, ConditionalReadOverwritingItsOwnPredicateIsIR023) {
  const Diagnostics d =
      analysis::verify_kernel(malformed::self_overwriting_read());
  const Diagnostic* g = expect_diag(d, "IR023");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kWarning);
  EXPECT_EQ(g->loc.str(), "malformed:body[0]");
}

TEST(VerifyIr, ProvablyConstantPredicateIsIR024) {
  const Diagnostics d =
      analysis::verify_kernel(malformed::constant_predicate());
  const Diagnostic* g = expect_diag(d, "IR024");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kWarning);
  EXPECT_NE(g->message.find("always"), std::string::npos) << g->message;
}

// ---------------------------------------------------------------------------
// Dataflow engine unit tests: the semantics the checks above rely on.
// ---------------------------------------------------------------------------

TEST(Dataflow, RegistersStartAsConstantZero) {
  // r3 is never defined anywhere; the interpreter zero-initializes, so the
  // lattice must carry it as the constant 0.0 in every section.
  KernelDef k = skeleton();
  const analysis::KernelDataflow dfa(k);
  for (const kernel::Section s : analysis::kSectionOrder) {
    const analysis::ConstEnv& env = dfa.const_env_at_entry(s);
    ASSERT_TRUE(env[3].has_value());
    EXPECT_EQ(*env[3], 0.0);
  }
}

TEST(Dataflow, ConditionalReadIsAPartialKill) {
  KernelDef k = skeleton();
  k.streams[0].conditional = true;
  k.prologue.push_back({Opcode::kConst, /*dst=*/4});
  k.prologue.push_back({Opcode::kConst, /*dst=*/0});  // prior def of r0
  k.body[0] = {Opcode::kReadCond, /*dst=*/0, -1, -1, /*c=*/4, /*stream=*/0, 1};
  const analysis::KernelDataflow dfa(k);
  // Both the prologue kConst and the conditional read reach the write at
  // body[1]: untaken clusters keep the old value.
  const auto defs =
      dfa.reaching_defs(kernel::Section::kBody, /*idx=*/1, /*reg=*/0);
  EXPECT_GE(defs.size(), 2u);
  // And the read's destination must be live BEFORE the read (merge use).
  EXPECT_TRUE(dfa.live_before(kernel::Section::kBody, 0).test(0));
}

TEST(Dataflow, RoundsBackEdgeDefeatsBodyConstants) {
  // r2 = r2 + 1 in the body: constant 1.0 on the first iteration, but the
  // back edge (body -> outer_post -> outer_pre -> body) feeds the sum back
  // around, so the lattice must NOT call it constant.
  KernelDef k = skeleton();
  Instr one{Opcode::kConst, /*dst=*/1};
  one.imm = 1.0;
  k.prologue.push_back(one);
  k.body.insert(k.body.begin() + 1,
                Instr{Opcode::kAdd, /*dst=*/2, /*a=*/2, /*b=*/1});
  k.body.back().a = 2;
  const analysis::KernelDataflow dfa(k);
  analysis::ConstEnv env = dfa.const_env_at_entry(kernel::Section::kBody);
  EXPECT_FALSE(env[2].has_value());
  const Diagnostics d = analysis::verify_kernel(k);
  EXPECT_EQ(d.find("IR019"), nullptr) << d.format();
}

TEST(Dataflow, LiveRangesAndPressureOnAStraightLineBody) {
  // read r0; r1 = r0+r0; r2 = r1+r0; write r2 -- peak 2 live registers
  // (r0+r1 between the adds).
  KernelDef k = skeleton();
  k.body.insert(k.body.begin() + 1,
                Instr{Opcode::kAdd, /*dst=*/1, /*a=*/0, /*b=*/0});
  k.body.insert(k.body.begin() + 2,
                Instr{Opcode::kAdd, /*dst=*/2, /*a=*/1, /*b=*/0});
  k.body.back().a = 2;
  const analysis::KernelDataflow dfa(k);
  EXPECT_EQ(dfa.max_live_pressure(), 2);
  EXPECT_EQ(dfa.max_live_pressure(), analysis::dynamic_lrf_pressure(k));
  const auto ranges = dfa.live_ranges();
  // Exactly r0, r1, r2 are ever live.
  EXPECT_EQ(ranges.size(), 3u);
}

// Exact static pressure == dynamic replay oracle, every built-in kernel
// (same sweep smdcheck --dataflow gates on).
TEST(Dataflow, StaticPressureMatchesDynamicReplay) {
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

// ---------------------------------------------------------------------------
// Deterministic diagnostics ordering (golden).
// ---------------------------------------------------------------------------

TEST(Diag, RenderOrderIsDeterministicRegardlessOfInsertion) {
  Diagnostics d;
  // Inserted deliberately out of (unit, section, index, id) order.
  d.warn("IR018", {"zeta", "body", 4}, "later unit");
  d.error("IR003", {"alpha", "body", 2}, "alpha body two");
  d.note("IR016", {"alpha", "prologue", 0}, "alpha prologue");
  d.warn("IR012", {"alpha", "body", 2}, "alpha body two, lower id");
  // Ties on (unit, section, index) break on the check ID's lexicographic
  // order: IR003 < IR012.
  const std::string golden =
      "error IR003 at alpha:body[2]: alpha body two\n"
      "warning IR012 at alpha:body[2]: alpha body two, lower id\n"
      "note IR016 at alpha:prologue[0]: alpha prologue\n"
      "warning IR018 at zeta:body[4]: later unit\n";
  EXPECT_EQ(d.format(), golden);
  // all() preserves insertion order for pass-order consumers.
  EXPECT_EQ(d.all().front().id, "IR018");
  // JSON rendering uses the same deterministic order.
  const std::string j = d.to_json().dump();
  EXPECT_LT(j.find("IR003"), j.find("IR012"));
  EXPECT_LT(j.find("IR012"), j.find("IR016"));
  EXPECT_LT(j.find("IR016"), j.find("IR018"));
}

// ---------------------------------------------------------------------------
// Doc-drift guard: the DESIGN.md check catalogue and known_check_ids()
// must match one-to-one.
// ---------------------------------------------------------------------------

TEST(Diag, EveryCheckIdAppearsExactlyOnceInDesignCatalogue) {
  const std::string path = std::string(SMD_SOURCE_DIR) + "/DESIGN.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::map<std::string, int> seen;  // catalogue-row IDs -> occurrences
  std::string line;
  while (std::getline(in, line)) {
    // Catalogue rows are Markdown table rows of the form "| IR001 | ...".
    if (line.rfind("| ", 0) != 0) continue;
    const std::string cell = line.substr(2, line.find(" |", 2) - 2);
    if (cell.size() < 5) continue;
    const std::string prefix = cell.substr(0, 2);
    if (prefix != "IR" && prefix != "SP" && prefix != "MC") continue;
    if (!std::all_of(cell.begin() + 2, cell.end(),
                     [](unsigned char ch) { return std::isdigit(ch); })) {
      continue;
    }
    ++seen[cell];
  }
  for (const std::string& id : analysis::known_check_ids()) {
    EXPECT_EQ(seen[id], 1) << id << " must appear exactly once in the "
                           << "DESIGN.md catalogue";
    seen.erase(id);
  }
  for (const auto& [id, n] : seen) {
    ADD_FAILURE() << "DESIGN.md catalogues " << id << " (" << n
                  << "x) but known_check_ids() does not list it";
  }
}

// ---------------------------------------------------------------------------
// Stream-program checker golden cases.
// ---------------------------------------------------------------------------

/// Copy kernel over 1-word records, slot 0 -> slot 1.
KernelDef copy_kernel() { return skeleton(); }

mem::MemOpDesc strided(mem::MemOpKind kind, std::uint64_t base,
                       std::int64_t n_records, int record_words = 1) {
  mem::MemOpDesc d;
  d.kind = kind;
  d.base = base;
  d.n_records = n_records;
  d.record_words = record_words;
  return d;
}

TEST(CheckStream, ReadOfNeverProducedSlotIsSP002) {
  const KernelDef k = copy_kernel();
  sim::StreamProgram prog;
  const sim::StreamId s_in = prog.new_stream(64);
  const sim::StreamId s_out = prog.new_stream(64);
  prog.kernel(&k, {s_in, s_out}, /*rounds=*/1);  // nothing loaded s_in
  analysis::StreamCheckOptions opts;
  opts.program_name = "orphan_read";
  opts.n_clusters = 1;
  const Diagnostics d = analysis::check_stream_program(prog, opts);
  const Diagnostic* g = expect_diag(d, "SP002");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
  EXPECT_EQ(g->loc.unit, "orphan_read");
  EXPECT_EQ(g->loc.index, 0);
  EXPECT_THROW(analysis::require_valid_stream_program(prog, opts),
               CheckFailure);
}

TEST(CheckStream, SlotOutOfRangeIsSP001) {
  sim::StreamProgram prog;
  prog.new_stream(16);
  prog.load(strided(mem::MemOpKind::kLoadStrided, 0, 8), /*dst=*/5);
  const Diagnostics d = analysis::check_stream_program(prog);
  const Diagnostic* g = expect_diag(d, "SP001");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
}

TEST(CheckStream, TransferBeyondSlotCapacityIsSP007) {
  sim::StreamProgram prog;
  const sim::StreamId s = prog.new_stream(4);
  prog.load(strided(mem::MemOpKind::kLoadStrided, 0, 8), s);  // 8 words into 4
  const Diagnostics d = analysis::check_stream_program(prog);
  const Diagnostic* g = expect_diag(d, "SP007");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
}

TEST(CheckStream, TransferBeyondMemoryExtentIsSP008) {
  sim::StreamProgram prog;
  const sim::StreamId s = prog.new_stream(64);
  prog.load(strided(mem::MemOpKind::kLoadStrided, /*base=*/90, 8), s);
  analysis::StreamCheckOptions opts;
  opts.memory_words = 64;
  const Diagnostics d = analysis::check_stream_program(prog, opts);
  const Diagnostic* g = expect_diag(d, "SP008");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
}

TEST(CheckStream, DuplicateRecordInOnePlainScatterIsSP010) {
  sim::StreamProgram prog;
  const sim::StreamId s = prog.new_stream(16);
  prog.load(strided(mem::MemOpKind::kLoadStrided, 0, 4), s);
  mem::MemOpDesc scatter = strided(mem::MemOpKind::kStoreScatter, 100, 4);
  scatter.indices = {0, 1, 1, 3};  // record 1 stored twice: lost update
  prog.store(scatter, s);
  const Diagnostics d = analysis::check_stream_program(prog);
  const Diagnostic* g = expect_diag(d, "SP010");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
}

TEST(CheckStream, IndexStreamLengthMismatchIsSP009) {
  sim::StreamProgram prog;
  const sim::StreamId s = prog.new_stream(16);
  mem::MemOpDesc gather = strided(mem::MemOpKind::kLoadGather, 0, 4);
  gather.indices = {0, 1};  // 2 indices for 4 records
  prog.load(gather, s);
  const Diagnostics d = analysis::check_stream_program(prog);
  const Diagnostic* g = expect_diag(d, "SP009");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
}

TEST(CheckStream, ConcurrentOverlappingPlainStoresAreSP011) {
  // Two store chains with no dependence path between them target the same
  // words: the controller may issue them concurrently in either order.
  sim::StreamProgram prog;
  const sim::StreamId a = prog.new_stream(16);
  const sim::StreamId b = prog.new_stream(16);
  prog.load(strided(mem::MemOpKind::kLoadStrided, 0, 8), a);
  prog.load(strided(mem::MemOpKind::kLoadStrided, 16, 8), b);
  prog.store(strided(mem::MemOpKind::kStoreStrided, 100, 8), a);
  prog.store(strided(mem::MemOpKind::kStoreStrided, 104, 8), b);  // overlaps
  const Diagnostics d = analysis::check_stream_program(prog);
  const Diagnostic* g = expect_diag(d, "SP011");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
  // The message names the concrete colliding word address (first overlap
  // at word 104).
  EXPECT_NE(g->message.find("104"), std::string::npos) << g->message;
}

/// Two plain scatters of 2-word records from base 100 with no dependence
/// between them: the first targets `a`, the second `b`.
sim::StreamProgram unordered_scatters(std::vector<std::uint64_t> a,
                                      std::vector<std::uint64_t> b) {
  sim::StreamProgram prog;
  const sim::StreamId sa = prog.new_stream(16);
  const sim::StreamId sb = prog.new_stream(16);
  prog.load(strided(mem::MemOpKind::kLoadStrided, 0, 8), sa);
  prog.load(strided(mem::MemOpKind::kLoadStrided, 16, 8), sb);
  mem::MemOpDesc da = strided(mem::MemOpKind::kStoreScatter, 100, 4, 2);
  da.indices = std::move(a);
  mem::MemOpDesc db = strided(mem::MemOpKind::kStoreScatter, 100, 4, 2);
  db.indices = std::move(b);
  prog.store(da, sa);
  prog.store(db, sb);
  return prog;
}

TEST(CheckStream, InterleavedScattersWithOverlappingBoundsAreNotSP011) {
  // Words [100, 114) and [102, 116): the bounds overlap, the records
  // interleave, and no word is written by both.
  const Diagnostics d =
      analysis::check_stream_program(unordered_scatters({0, 2, 4, 6},
                                                        {1, 3, 5, 7}));
  EXPECT_EQ(d.find("SP011"), nullptr) << d.format();
  EXPECT_EQ(d.errors(), 0) << d.format();
}

TEST(CheckStream, InterleavedScattersSharingOneRecordAreSP011) {
  const Diagnostics d =
      analysis::check_stream_program(unordered_scatters({6, 0, 4, 2},
                                                        {7, 3, 4, 1}));
  const Diagnostic* g = expect_diag(d, "SP011");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->loc.index, 3);
  EXPECT_EQ(g->message,
            "potentially concurrent scatter (op 2) and scatter (op 3) both "
            "write word address 108 outside the scatter-add combining "
            "guarantee");
}

TEST(CheckStream, GatherWrappingPastTwoToThe64IsSP008) {
  // Records 2 and 3 start past 2^64 and wrap to words 0 and 2.
  sim::StreamProgram prog;
  const sim::StreamId s = prog.new_stream(16);
  mem::MemOpDesc gather =
      strided(mem::MemOpKind::kLoadGather, ~std::uint64_t{0} - 3, 4, 2);
  gather.indices = {0, 1, 2, 3};
  prog.load(gather, s);
  analysis::StreamCheckOptions opts;
  opts.memory_words = 64;
  const Diagnostics d = analysis::check_stream_program(prog, opts);
  const Diagnostic* g = expect_diag(d, "SP008");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->message,
            "gather touches word address 18446744073709551613, beyond the "
            "memory extent of 64 words");
}

TEST(CheckStream, ConcurrentScatterAddsAreExemptFromSP011) {
  // Same shape as above but both stores combine in the scatter-add units:
  // the paper's Section 4 guarantee makes the collision safe.
  sim::StreamProgram prog;
  const sim::StreamId a = prog.new_stream(16);
  const sim::StreamId b = prog.new_stream(16);
  prog.load(strided(mem::MemOpKind::kLoadStrided, 0, 8), a);
  prog.load(strided(mem::MemOpKind::kLoadStrided, 16, 8), b);
  mem::MemOpDesc sa = strided(mem::MemOpKind::kScatterAdd, 100, 8);
  sa.indices = {0, 1, 2, 3, 4, 5, 6, 7};
  mem::MemOpDesc sb = strided(mem::MemOpKind::kScatterAdd, 104, 8);
  sb.indices = {0, 1, 2, 3, 4, 5, 6, 7};
  prog.store(sa, a);
  prog.store(sb, b);
  const Diagnostics d = analysis::check_stream_program(prog);
  EXPECT_EQ(d.find("SP011"), nullptr) << d.format();
  EXPECT_EQ(d.errors(), 0) << d.format();
}

TEST(CheckStream, ConcurrentReadWriteOverlapIsSP012) {
  sim::StreamProgram prog;
  const sim::StreamId a = prog.new_stream(16);
  const sim::StreamId b = prog.new_stream(16);
  prog.load(strided(mem::MemOpKind::kLoadStrided, 0, 8), a);
  prog.load(strided(mem::MemOpKind::kLoadStrided, 100, 8), b);  // reads 100..
  prog.store(strided(mem::MemOpKind::kStoreStrided, 100, 8), a);  // writes 100..
  const Diagnostics d = analysis::check_stream_program(prog);
  const Diagnostic* g = expect_diag(d, "SP012");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
}

// ---------------------------------------------------------------------------
// Scatter-assignment race detection (blocking schemes).
// ---------------------------------------------------------------------------

analysis::ScatterAssignment hazardous_assignment(bool combining) {
  analysis::ScatterAssignment a;
  a.name = "hazard";
  a.n_rows = 9;  // rows 0..7 + trash row 8
  a.trash_row = 8;
  a.combining = combining;
  a.base = 1000;
  a.record_words = 9;
  a.block_rows = {
      {0, 1, 2, 3},
      {4, 5, 5, 6},  // lanes 1 and 2 collide on row 5
      {7, 8, 8, 8},  // trash-row padding: never a collision
  };
  return a;
}

TEST(CheckScatter, CollisionWithoutCombiningIsSP013NamingBlockAndAddress) {
  const Diagnostics d =
      analysis::check_scatter_assignment(hazardous_assignment(false));
  const Diagnostic* g = expect_diag(d, "SP013");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
  EXPECT_EQ(g->loc.index, 1);  // the colliding block
  // Concrete colliding pair: block, both lanes, row, word address
  // (base 1000 + row 5 * 9 words = 1045).
  EXPECT_NE(g->message.find("block 1"), std::string::npos) << g->message;
  EXPECT_NE(g->message.find("lanes 1 and 2"), std::string::npos) << g->message;
  EXPECT_NE(g->message.find("1045"), std::string::npos) << g->message;
}

TEST(CheckScatter, CollisionUnderCombiningIsSP014Note) {
  const Diagnostics d =
      analysis::check_scatter_assignment(hazardous_assignment(true));
  EXPECT_EQ(d.find("SP013"), nullptr) << d.format();
  EXPECT_EQ(d.errors(), 0) << d.format();
  const Diagnostic* g = expect_diag(d, "SP014");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kNote);
}

TEST(CheckScatter, RowOutOfRangeIsSP016) {
  analysis::ScatterAssignment a = hazardous_assignment(true);
  a.block_rows[0][0] = 42;  // beyond n_rows
  const Diagnostics d = analysis::check_scatter_assignment(a);
  const Diagnostic* g = expect_diag(d, "SP016");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
}

// ---------------------------------------------------------------------------
// Property tests: everything the repo ships is lint-clean.
// ---------------------------------------------------------------------------

TEST(Property, EveryBuiltinKernelVariantIsLintClean) {
  const md::WaterModel& model = md::spc();
  std::vector<KernelDef> defs;
  for (core::Variant v :
       {core::Variant::kExpanded, core::Variant::kFixed,
        core::Variant::kVariable, core::Variant::kDuplicated}) {
    defs.push_back(core::build_water_kernel(v, model));
  }
  defs.push_back(core::build_expanded_energy_kernel(model));
  for (const md::WaterModel* m : {&md::spc(), &md::tip5p(), &md::ppc()}) {
    defs.push_back(core::build_multisite_kernel(*m));
  }
  defs.push_back(core::build_blocked_kernel(model, 1.0, 64));
  for (const KernelDef& def : defs) {
    const Diagnostics d = analysis::verify_kernel(def);
    EXPECT_EQ(d.errors(), 0) << def.name << ":\n" << d.format();
    EXPECT_EQ(d.warnings(), 0) << def.name << ":\n" << d.format();
  }
}

TEST(Property, EveryVariantStreamProgramIsLintClean) {
  core::ExperimentSetup setup;
  setup.n_molecules = 48;
  const core::Problem problem = core::Problem::make(setup);
  const sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  for (core::Variant v :
       {core::Variant::kExpanded, core::Variant::kFixed,
        core::Variant::kVariable, core::Variant::kDuplicated}) {
    const core::VariantLayout layout =
        core::build_layout(v, problem.system, problem.half_list,
                           core::layout_options(setup, cfg));
    const KernelDef kdef =
        core::build_water_kernel(v, problem.system.model());
    mem::GlobalMemory memory;
    const core::ProblemImage image =
        core::upload_system(memory, problem.system);
    const sim::StreamProgram program =
        core::build_program(memory, image, layout, kdef);
    analysis::StreamCheckOptions opts;
    opts.program_name = core::variant_name(v);
    opts.n_clusters = cfg.n_clusters;
    opts.srf_words = cfg.srf_words;
    opts.memory_words = memory.size();
    const Diagnostics d = analysis::check_stream_program(program, opts);
    EXPECT_EQ(d.errors(), 0) << core::variant_name(v) << ":\n" << d.format();
    EXPECT_EQ(d.warnings(), 0) << core::variant_name(v) << ":\n" << d.format();
  }
}

TEST(Property, EveryBuiltinBlockingSchemeIsCollisionFree) {
  core::ExperimentSetup setup;
  setup.n_molecules = 48;
  const core::Problem problem = core::Problem::make(setup);
  const sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  for (int cells : core::builtin_blocking_cells()) {
    const core::BlockingScheme scheme =
        core::build_blocking_scheme(problem.system, cells, cfg.n_clusters);
    const Diagnostics d =
        analysis::check_scatter_assignment(scheme.to_scatter_assignment());
    EXPECT_EQ(d.errors(), 0) << scheme.name << ":\n" << d.format();
    EXPECT_EQ(d.warnings(), 0) << scheme.name << ":\n" << d.format();
  }
}

}  // namespace
}  // namespace smd
