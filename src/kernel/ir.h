// Stream-kernel intermediate representation.
//
// Merrimac kernels are VLIW programs running in SIMD lockstep on 16
// arithmetic clusters, reading/writing sequential streams held in the SRF.
// We model a kernel as a small register-machine program over per-cluster
// registers (the LRF) with explicit stream accesses, in four sections:
//
//   prologue   -- once per kernel invocation (constants, accumulator init)
//   outer_pre  -- once per block of `block_len` iterations (e.g. read a new
//                 central molecule in the `fixed` variant)
//   body       -- once per iteration (the interaction computation)
//   outer_post -- once per block, after its last body iteration (e.g. write
//                 the reduced central force)
//
// Every per-opcode fact (mnemonic, sources, stream access, FPU cost, flop
// census) is one row of kOpTable below; everything that asks about an
// opcode reads it. Only code that executes an opcode switches on it: the
// interpreter (the oracle), the VM's dispatch handlers and dataflow's
// constant folding and transfer, which copy the interpreter's arithmetic.
//
// The same instruction list is executed and analysed:
//   * the functional interpreter (interp.h) and the compiled VM (vm.h)
//     execute it per cluster and produce bit-accurate double-precision
//     results, including conditional stream semantics;
//   * everything else reads it through one operand rule, reg_operands()
//     below: the verifier (analysis/verify_ir.h, which KernelBuilder::build
//     runs), the dataflow engine (analysis/dataflow.h), and the VLIW
//     scheduler (schedule.h), which builds its dependence graph from it
//     and derives cycles/iteration, slot occupancy and issue rate.
//
// Conditional stream accesses (READ_COND/WRITE_COND) model Merrimac's
// conditional-streams mechanism: every cluster issues the access on every
// iteration (SIMD-legal) but only clusters whose predicate is non-zero
// consume/produce an element; the inter-cluster switch compacts the stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/obs/json.h"

namespace smd::kernel {

enum class Opcode : std::uint8_t {
  kConst,     // dst = imm
  kMov,       // dst = a
  kAdd,       // dst = a + b
  kSub,       // dst = a - b
  kMul,       // dst = a * b
  kMadd,      // dst = a * b + c
  kMsub,      // dst = a * b - c
  kDiv,       // dst = a / b        (iterative on the MADD units)
  kSqrt,      // dst = sqrt(a)      (iterative)
  kRsqrt,     // dst = 1/sqrt(a)    (iterative; counts as div+sqrt flops)
  kCmpEq,     // dst = (a == b) ? 1.0 : 0.0
  kCmpLt,     // dst = (a < b)  ? 1.0 : 0.0
  kSel,       // dst = (c != 0) ? a : b
  kRead,      // regs[dst..dst+count) = next `count` words of stream
  kReadCond,  // as kRead but only when (c != 0); else dst regs unchanged
  kReadBcast, // all clusters read the SAME next record (inter-cluster
              // switch broadcast); the cursor advances once per iteration
  kWrite,     // append regs[a..a+count) to stream
  kWriteCond, // as kWrite but only when (c != 0)
  kLast = kWriteCond,  // keep on the last opcode: kOpTable's row count
};

/// How an opcode moves words between its stream slot and the LRF.
enum class StreamAccess : std::uint8_t {
  kNone,       ///< no stream access
  kRead,       ///< `count` words of the slot into regs[dst..dst+count)
  kBcastRead,  ///< as kRead, one record fanned out to every cluster
  kWrite,      ///< regs[a..a+count) appended to the slot
};

/// Issue cost of one operation on a cluster's MADD FPUs (cost.h).
struct OpCost {
  int fpu_slots;  ///< consecutive issue slots on one FPU (0 = no FPU use)
  int latency;    ///< cycles until the result may be consumed
};

/// One row of kOpTable.
struct OpInfo {
  Opcode op;
  const char* name;     ///< mnemonic in diagnostics and schedules
  int n_srcs;           ///< plain register sources: a, b, c in that order
  StreamAccess stream;
  bool conditional;     ///< the access happens only when register c != 0
  OpCost cost;
  int flops;            ///< solution flops, in the paper's convention
  int divides;
  int square_roots;
};

/// Every per-opcode fact, one row per Opcode in enum order. The FPU costs
/// follow the cluster model in cost.h. The compares and SEL take an FPU
/// slot but are not solution flops; instr_census counts every instruction
/// with an FPU slot in FlopCensus::fpu_ops.
inline constexpr OpInfo kOpTable[] = {
    // op, name, srcs, stream, conditional, {fpu_slots, latency}, flops,
    // divides, square_roots
    {Opcode::kConst,     "CONST",  0, StreamAccess::kNone,      false, {0, 1},   0, 0, 0},
    {Opcode::kMov,       "MOV",    1, StreamAccess::kNone,      false, {0, 1},   0, 0, 0},
    {Opcode::kAdd,       "ADD",    2, StreamAccess::kNone,      false, {1, 4},   1, 0, 0},
    {Opcode::kSub,       "SUB",    2, StreamAccess::kNone,      false, {1, 4},   1, 0, 0},
    {Opcode::kMul,       "MUL",    2, StreamAccess::kNone,      false, {1, 4},   1, 0, 0},
    {Opcode::kMadd,      "MADD",   3, StreamAccess::kNone,      false, {1, 4},   2, 0, 0},
    {Opcode::kMsub,      "MSUB",   3, StreamAccess::kNone,      false, {1, 4},   2, 0, 0},
    // Newton-Raphson reciprocal: seed + 4 iterations (the MADD datapath
    // has no wide seed table) + rounding fix-up.
    {Opcode::kDiv,       "DIV",    2, StreamAccess::kNone,      false, {14, 20}, 1, 1, 0},
    // Reciprocal square root: seed + 4 iterations of 3 fused ops +
    // correction. RSQRT counts as 1 divide + 1 square root (the paper).
    {Opcode::kSqrt,      "SQRT",   1, StreamAccess::kNone,      false, {16, 24}, 1, 0, 1},
    {Opcode::kRsqrt,     "RSQRT",  1, StreamAccess::kNone,      false, {16, 24}, 2, 1, 1},
    {Opcode::kCmpEq,     "CMPEQ",  2, StreamAccess::kNone,      false, {1, 2},   0, 0, 0},
    {Opcode::kCmpLt,     "CMPLT",  2, StreamAccess::kNone,      false, {1, 2},   0, 0, 0},
    {Opcode::kSel,       "SEL",    3, StreamAccess::kNone,      false, {1, 1},   0, 0, 0},
    // SRF accesses; the scheduler models their bandwidth. A broadcast
    // also crosses the inter-cluster switch.
    {Opcode::kRead,      "READ",   0, StreamAccess::kRead,      false, {0, 3},   0, 0, 0},
    {Opcode::kReadCond,  "READC",  0, StreamAccess::kRead,      true,  {0, 3},   0, 0, 0},
    {Opcode::kReadBcast, "READB",  0, StreamAccess::kBcastRead, false, {0, 4},   0, 0, 0},
    {Opcode::kWrite,     "WRITE",  0, StreamAccess::kWrite,     false, {0, 1},   0, 0, 0},
    {Opcode::kWriteCond, "WRITEC", 0, StreamAccess::kWrite,     true,  {0, 1},   0, 0, 0},
};

constexpr bool op_table_matches_enum() {
  for (std::size_t i = 0; i < std::size(kOpTable); ++i) {
    if (kOpTable[i].op != static_cast<Opcode>(i)) return false;
  }
  return std::size(kOpTable) == static_cast<std::size_t>(Opcode::kLast) + 1;
}
static_assert(op_table_matches_enum(),
              "kOpTable needs one row per Opcode, in enum order");

constexpr const OpInfo& op_info(Opcode op) {
  return kOpTable[static_cast<std::size_t>(op)];
}

constexpr const char* opcode_name(Opcode op) { return op_info(op).name; }

/// One IR instruction. Field use depends on the opcode; unused fields -1/0.
struct Instr {
  Opcode op;
  int dst = -1;     ///< destination register (base register for kRead*)
  int a = -1;       ///< source register (base register for kWrite*)
  int b = -1;       ///< second source
  int c = -1;       ///< third source / predicate register
  int stream = -1;  ///< stream slot for stream ops
  int count = 0;    ///< word count for stream ops
  double imm = 0.0; ///< immediate for kConst
};

/// Which registers one instruction reads and writes, in the interpreter's
/// semantics: the one operand rule every analysis derives from. Stream
/// words are the `count` consecutive registers from the base register.
struct RegOperands {
  std::vector<int> srcs;  ///< plain sources: a, b, c in that order, or the
                          ///< words a kWrite* stores
  int pred = -1;          ///< predicate of a conditional access, else -1
  std::vector<int> kept;  ///< words a kReadCond keeps when not taken: both
                          ///< read and written
  std::vector<int> defs;  ///< registers written (a kReadCond's are `kept`)

  /// Calls f on every register read: pred, then srcs, then kept.
  template <typename F>
  void for_each_read(F&& f) const {
    if (pred >= 0) f(pred);
    for (const int r : srcs) f(r);
    for (const int r : kept) f(r);
  }
};

RegOperands reg_operands(const Instr& in);

/// Direction of a stream slot as seen by the kernel.
enum class StreamDir : std::uint8_t { kIn, kOut };

/// Declaration of a stream slot referenced by the kernel.
struct StreamDecl {
  std::string name;
  StreamDir dir;
  int record_words;    ///< words accessed per (taken) access
  bool conditional;    ///< accessed via conditional-stream mechanism
};

/// Sections of a kernel program.
enum class Section : std::uint8_t { kPrologue, kOuterPre, kBody, kOuterPost };

/// Floating-point-operation census in the paper's counting convention
/// (divide = 1 flop, square root = 1 flop, rsqrt = 1 div + 1 sqrt = 2).
struct FlopCensus {
  std::int64_t flops = 0;
  std::int64_t divides = 0;
  std::int64_t square_roots = 0;
  std::int64_t fpu_ops = 0;       ///< schedulable FPU instructions
  std::int64_t words_read = 0;    ///< max stream words read (uncond + cond)
  std::int64_t words_written = 0;

  FlopCensus& operator+=(const FlopCensus& o);
};

/// Every field, for bench records and the bit-identity gates.
obs::Json to_json(const FlopCensus& c);

/// A complete kernel definition.
struct KernelDef {
  std::string name;
  int n_regs = 0;
  int block_len = 1;  ///< body iterations per outer block (L); 1 = no blocks
  std::vector<StreamDecl> streams;
  std::vector<Instr> prologue;
  std::vector<Instr> outer_pre;
  std::vector<Instr> body;
  std::vector<Instr> outer_post;

  /// Census of one body iteration (conditional accesses counted as taken).
  FlopCensus body_census() const;
};

/// Census of a single instruction.
FlopCensus instr_census(const Instr& in);

/// Builder with a tiny typed register handle, to keep kernel construction
/// readable in core/kernels.cpp.
class KernelBuilder {
 public:
  explicit KernelBuilder(std::string name);

  /// Register handle.
  struct Reg {
    int idx = -1;
  };

  /// Declare a stream slot; returns its index.
  int stream_in(const std::string& name, int record_words, bool conditional = false);
  int stream_out(const std::string& name, int record_words, bool conditional = false);

  /// Select the section subsequent emissions go to.
  void section(Section s) { section_ = s; }

  /// Set body iterations per block.
  void block_len(int l);

  Reg alloc();                      ///< allocate an uninitialized register
  std::vector<Reg> alloc_n(int n);  ///< allocate n consecutive registers

  Reg constant(double v);  ///< emits kConst into the *current* section
  Reg mov(Reg a);
  void mov_to(Reg dst, Reg a);
  Reg add(Reg a, Reg b);
  void add_to(Reg dst, Reg a, Reg b);
  Reg sub(Reg a, Reg b);
  Reg mul(Reg a, Reg b);
  Reg madd(Reg a, Reg b, Reg c);
  void madd_to(Reg dst, Reg a, Reg b, Reg c);
  Reg msub(Reg a, Reg b, Reg c);
  Reg div(Reg a, Reg b);
  Reg sqrt(Reg a);
  Reg rsqrt(Reg a);
  Reg cmp_eq(Reg a, Reg b);
  Reg cmp_lt(Reg a, Reg b);
  Reg sel(Reg pred, Reg a, Reg b);
  void sel_to(Reg dst, Reg pred, Reg a, Reg b);

  /// Read `n` words from stream into `n` fresh consecutive registers.
  std::vector<Reg> read(int stream, int n);
  /// Read into existing consecutive registers starting at base.
  void read_to(int stream, Reg base, int n);
  /// Conditional read into existing registers (unchanged when not taken).
  void read_cond_to(int stream, Reg base, int n, Reg pred);
  /// Broadcast read: every cluster receives the same record via the
  /// inter-cluster switch; at most one per stream per body.
  void read_bcast_to(int stream, Reg base, int n);
  /// Write `n` consecutive registers starting at base.
  void write(int stream, Reg base, int n);
  void write_cond(int stream, Reg base, int n, Reg pred);

  /// Finalize: runs the IR verifier (analysis::verify_kernel, without the
  /// pressure note and the dataflow checks) and throws
  /// analysis::CheckFailure, a std::runtime_error, if it reports errors.
  KernelDef build();

 private:
  void emit(Instr in);
  KernelDef def_;
  Section section_ = Section::kBody;
};

}  // namespace smd::kernel
