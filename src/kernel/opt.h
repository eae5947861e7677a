// Verified IR optimizer: legality-checked rewrites over KernelDef.
//
// Consumes the analyses of analysis/dataflow.h and applies, to fixpoint:
//
//   * constant folding  -- an FPU op whose operands are provably constant
//     (bit-exact lattice, interpreter-identical arithmetic) becomes a
//     kConst of the folded value; a kSel with a provably constant
//     predicate becomes a kMov of the statically selected input;
//   * copy propagation  -- an operand whose unique reaching definition is
//     a same-section kMov, with the copy source unchanged in between, is
//     rewritten to read the source directly. Stream base registers are
//     never rewritten (kRead/kWrite address consecutive registers, so the
//     packing movs are load-bearing); only arithmetic operands and
//     conditional-access predicates are;
//   * CSE               -- a local-value-numbering redundancy (the value is
//     still held in a register) becomes a kMov from the holder;
//   * DCE               -- a pure (non-stream) instruction none of whose
//     results are live is dropped. Stream ops are never dropped here:
//     even a dead read advances the SRF cursor;
//   * dead-stream elimination -- an input stream ALL of whose reads have
//     only dead destination words (or a stream never accessed at all) is
//     removed: the reads are dropped together with the declaration, and
//     remaining stream slots are renumbered. Removing individual reads
//     would desync the cursor; removing all of them is exact.
//
// Legality argument (DESIGN.md "Dataflow analysis and the verified
// optimizer"): every rewrite preserves the bit-exact value of every
// register that is live at any point, and the exact sequence of stream
// words read and written (except for streams whose every read is dead,
// where the words were never observable). CSE never canonicalizes
// commutative operands, and folding uses the interpreter's own double
// expressions, so NaN payloads and signed zeros survive. The claim is
// machine-checked: the lockstep equivalence sweep (tests/
// opt_equivalence_test.cpp, wired into scripts/check.sh) runs every
// built-in kernel x Table-3 variant x both SDR policies through the
// simulator comparing runs with sim::diff_run_stats and memory images
// bit for bit (mem::diff_memory).
//
// The optimizer is OFF by default everywhere: nothing in the simulation
// path rewrites a kernel unless a caller explicitly invokes it.
#pragma once

#include <string>

#include "src/kernel/ir.h"
#include "src/kernel/schedule.h"

namespace smd::kernel {

/// What one optimize_kernel call did.
struct OptReport {
  std::string kernel;
  int const_folded = 0;       ///< ops rewritten to kConst / resolved kSel
  int copies_propagated = 0;  ///< operand uses redirected past a kMov
  int cse_replaced = 0;       ///< recomputations rewritten to kMov
  int dce_removed = 0;        ///< dead pure instructions dropped
  int dead_stream_reads_removed = 0;
  int dead_streams_removed = 0;  ///< stream declarations dropped
  int passes = 0;                ///< fixpoint iterations that changed something

  /// Scheduled steady-state cycles per body iteration before/after
  /// (0 when the body could not be scheduled under the given options).
  double cycles_per_iteration_before = 0.0;
  double cycles_per_iteration_after = 0.0;
  /// True when the rewritten kernel scheduled WORSE than the original and
  /// the optimizer returned the original unchanged (the non-regression
  /// guard; with free-op rewrites this should never trigger, but the
  /// guarantee is enforced, not assumed).
  bool reverted_schedule_regression = false;

  int total_rewrites() const {
    return const_folded + copies_propagated + cse_replaced + dce_removed +
           dead_stream_reads_removed + dead_streams_removed;
  }

  /// Human-readable multi-line summary (for smdcheck --opt-report).
  std::string str() const;
};

/// Optimize a kernel. Pre-flights the input through
/// analysis::require_valid_kernel (throws CheckFailure on errors), applies
/// the passes to fixpoint, then enforces the schedule non-regression
/// guard: if the rewritten body schedules to more cycles/iteration than
/// the original under `sched`, the original definition is returned and
/// the report says so. `report` may be null.
KernelDef optimize_kernel(const KernelDef& def, OptReport* report = nullptr,
                          const ScheduleOptions& sched = {});

}  // namespace smd::kernel
