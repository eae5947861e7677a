// Worklist dataflow analysis over the four-section kernel IR.
//
// The kernel execution model (interp.h) is a fixed control-flow skeleton:
//
//   prologue                                   once per invocation
//   round loop:  outer_pre                     once per block
//                body x block_len              per iteration
//                outer_post                    once per block
//
// which this engine models as a four-node CFG with edges
//   prologue -> outer_pre -> body -> outer_post -> outer_pre (next round)
// plus body -> body when block_len > 1. Every analysis below is a
// fixpoint over that graph. Each instruction's uses and defs come from the
// kernel IR's operand rule (kernel::reg_operands), which follows the
// semantics the interpreter actually implements:
//
//   * registers are zero-initialized, so the constant lattice starts every
//     register at the constant 0.0 rather than "unknown";
//   * READ_COND is a partial kill -- untaken clusters keep the previous
//     register contents, so its destinations are kept words: merge-style
//     uses whose definitions do not kill prior reaching definitions;
//   * WRITE_COND kills nothing and additionally reads its predicate;
//   * stream accesses have side effects and are never removable.
//
// Provided analyses:
//   * liveness         -- per-point live sets, exact live ranges, and the
//                         exact peak LRF pressure (max simultaneously-live
//                         registers over the linearized execution order);
//   * reaching defs    -- per-point definition sets with unique-reaching-
//                         definition queries (copy chains; IR020);
//   * constant lattice -- per-register {const c | non-const} values at
//                         section entries plus a bit-exact transfer
//                         function (foldable constants; IR019);
//   * local value numbering -- per-section redundant-computation records
//                         (recomputations; IR018).
//
// Consumers: verify_ir.cpp (checks IR017-IR024) and smdcheck --dataflow
// (per-kernel reports).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/kernel/ir.h"

namespace smd::analysis {

/// Dense bitset sized at construction; the unit of all fixpoint state.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(int bits)
      : n_(bits), words_(static_cast<std::size_t>((bits + 63) / 64), 0) {}

  void set(int i) { words_[static_cast<std::size_t>(i >> 6)] |= 1ULL << (i & 63); }
  void reset(int i) { words_[static_cast<std::size_t>(i >> 6)] &= ~(1ULL << (i & 63)); }
  bool test(int i) const {
    return (words_[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1ULL;
  }
  int size() const { return n_; }
  int count() const;

  /// this |= o; returns true if any bit changed.
  bool merge(const Bitset& o);
  bool operator==(const Bitset& o) const { return words_ == o.words_; }

 private:
  int n_ = 0;
  std::vector<std::uint64_t> words_;
};

/// "prologue" / "outer_pre" / "body" / "outer_post".
const char* section_name(kernel::Section s);

/// The four sections in execution order.
inline constexpr kernel::Section kSectionOrder[4] = {
    kernel::Section::kPrologue, kernel::Section::kOuterPre,
    kernel::Section::kBody, kernel::Section::kOuterPost};

/// Instruction list of one section.
const std::vector<kernel::Instr>& section_instrs(const kernel::KernelDef& def,
                                                 kernel::Section s);

/// One definition site. instr == -1 names the implicit zero-initialization
/// of the register at kernel entry.
struct DefSite {
  kernel::Section sec = kernel::Section::kPrologue;
  int instr = -1;
  int reg = -1;
};

/// Constant-lattice value of one register: engaged => known constant with
/// those exact bits; disengaged => non-constant. (There is no "unreached"
/// element in the exposed state: registers start as the constant 0.0.)
using ConstVal = std::optional<double>;
using ConstEnv = std::vector<ConstVal>;

/// Apply one instruction's transfer to a constant environment in place.
void apply_const_transfer(const kernel::Instr& in, ConstEnv& env);

/// A per-section redundant computation found by local value numbering:
/// `instr` recomputes the value `prior` already produced, still held in
/// register `holder` when `instr` executes.
struct Redundancy {
  kernel::Section sec = kernel::Section::kBody;
  int instr = -1;
  int prior = -1;
  int holder = -1;
  bool free_op = false;  ///< the duplicate costs no FPU slot (kConst/kMov)
};

/// Exact live range of one register over the linearized point order
/// (prologue, outer_pre, body, outer_post back to back).
struct LiveRange {
  int reg = -1;
  int first_point = -1;  ///< linear index of the first live point
  int last_point = -1;
  int live_points = 0;   ///< points at which the register is live
};

class KernelDataflow {
 public:
  /// Runs every analysis to fixpoint. The definition must be structurally
  /// valid (register/stream indices in range) -- run the IR verifier's
  /// structural pass first; out-of-range operands here are UB.
  explicit KernelDataflow(const kernel::KernelDef& def);

  const kernel::KernelDef& def() const { return *def_; }

  // ---- Liveness. ----------------------------------------------------------

  /// Registers live immediately before instruction `idx` of `s`
  /// (idx == 0 is the section entry point).
  const Bitset& live_before(kernel::Section s, int idx) const;
  /// Registers live immediately after instruction `idx` of `s`.
  const Bitset& live_after(kernel::Section s, int idx) const;

  /// Exact peak LRF pressure: max |live set| over every point of the
  /// linearized execution order.
  int max_live_pressure() const { return max_pressure_; }

  /// Exact live ranges, one entry per register that is ever live.
  std::vector<LiveRange> live_ranges() const;

  /// Total number of linearized points (for report denominators).
  int n_points() const { return n_points_; }

  // ---- Reaching definitions. ----------------------------------------------

  /// All definitions of `reg` reaching the point before instruction `idx`.
  std::vector<DefSite> reaching_defs(kernel::Section s, int idx, int reg) const;
  /// True iff exactly one definition site of `reg` reaches the point
  /// before `idx` of `s`; fills `*site` with it.
  bool unique_reaching_def(kernel::Section s, int idx, int reg,
                           DefSite* site) const;

  // ---- Constant lattice. ---------------------------------------------------

  /// Constant environment at the entry of section `s` (fixpoint over the
  /// CFG). Walk forward with apply_const_transfer for per-point values.
  const ConstEnv& const_env_at_entry(kernel::Section s) const;

  // ---- Local value numbering. ----------------------------------------------

  /// Per-section redundant computations, in section/instruction order.
  const std::vector<Redundancy>& redundancies() const { return redundancies_; }

 private:
  struct SectionState {
    // live_[i] = live set before instruction i; live_[n] = section live-out.
    std::vector<Bitset> live;
    // reach_[i] = def ids reaching the point before instruction i;
    // reach_[n] = section reach-out.
    std::vector<Bitset> reach;
    ConstEnv const_in;
  };

  const SectionState& state(kernel::Section s) const {
    return state_[static_cast<std::size_t>(s)];
  }

  void run_liveness();
  void run_reaching();
  void run_constants();
  void run_lvn();

  const kernel::KernelDef* def_;
  int n_regs_ = 0;
  bool has_body_loop_ = false;

  SectionState state_[4];
  std::vector<DefSite> def_sites_;            ///< def id -> site
  std::vector<std::vector<int>> defs_of_reg_; ///< reg -> def ids
  std::vector<Redundancy> redundancies_;
  int max_pressure_ = 0;
  int n_points_ = 0;
};

/// Measurement oracle for the static pressure claim: replay the kernel's
/// concrete execution order for `rounds` rounds (each outer_pre, block_len
/// bodies, outer_post) and return the max number of registers whose
/// current value is still needed by a later instruction of the trace
/// (READ_COND destinations count as read-modify-write, matching the
/// static merge semantics). With rounds >= 3 this equals
/// KernelDataflow::max_live_pressure() -- asserted per built-in kernel in
/// tests and by `smdcheck --dataflow`.
int dynamic_lrf_pressure(const kernel::KernelDef& def, int rounds = 3);

}  // namespace smd::analysis
