// Static verifier + lint for kernel IR (the first smdcheck pass).
//
// Checks a kernel::Program-level KernelDef before it reaches the
// interpreter or the VLIW scheduler, turning silent out-of-range register
// reads and SIMD-illegal stream usage into stable, located diagnostics.
//
// Check-ID catalogue (severity in parentheses; see DESIGN.md):
//   IR001 (error)   register index out of range for the declared LRF size
//   IR002 (error)   stream slot out of range
//   IR003 (error)   use of a register that is never defined
//   IR004 (warning) register may be read before its first definition on the
//                   first iteration (relies on zero-initialized LRF);
//                   merge-style instructions whose destination is also a
//                   source (conditional reads, select-accumulate) are exempt
//   IR005 (error)   stream direction mismatch (read of an output stream /
//                   write of an input stream)
//   IR006 (error)   access word count differs from the declared record_words
//   IR007 (error)   conditional access of a non-conditional stream decl
//   IR008 (error)   plain access of a conditional stream decl
//   IR009 (error)   SIMD legality: predicate register of a conditional
//                   access is not defined before the access
//   IR010 (error)   multiple broadcast reads of one stream in the body
//   IR011 (error)   non-positive stream access count
//   IR012 (warning) dead write: computed register value never read
//                   (note-severity when the dead value is a kConst, since
//                   constants are preloaded through the microcode store)
//   IR013 (warning) unused stream declaration
//   IR014 (error)   block_len < 1
//   IR015 (warning) peak LRF pressure exceeds the per-cluster LRF capacity
//   IR016 (note)    per-kernel LRF pressure report (always emitted)
//
// Semantic checks backed by the worklist dataflow engine (dataflow.h);
// gated by VerifyOptions::dataflow and skipped when earlier passes report
// errors (the engine needs a structurally valid kernel):
//   IR017 (warning) dead instruction: the result is overwritten before any
//                   use at this program point (exact liveness; note when
//                   the dead value is a kConst)
//   IR018 (warning) redundant recomputation of a value still available in a
//                   register (local value numbering; note when the
//                   duplicate is a free kConst/kMov)
//   IR019 (warning) arithmetic on provably constant operands: the result
//                   could be folded to a preloaded constant (note in the
//                   prologue, where the cost is paid once per launch)
//   IR020 (note)    copy chain: a kMov whose unique reaching definition is
//                   itself a kMov
//   IR021 (warning) stream read none of whose destination words are ever
//                   used (removable only together with its whole stream:
//                   dropping a single read desyncs the SRF cursor)
//   IR022 (warning) exact peak LRF live-pressure exceeds the per-cluster
//                   LRF capacity (liveness-precise companion of the
//                   interval-based IR015)
//   IR023 (warning) self-overwriting conditional read: the predicate
//                   register lies inside the read's own destination range
//   IR024 (warning) conditional stream access whose predicate is provably
//                   constant: the access is always or never taken
#pragma once

#include "src/analysis/diag.h"
#include "src/kernel/ir.h"
#include "src/sim/config.h"

namespace smd::analysis {

struct VerifyOptions {
  /// Per-cluster LRF capacity in words.
  int lrf_words = sim::MachineConfig{}.lrf_words_per_cluster;
  /// Emit the IR016 pressure note (off for terse pre-flight use).
  bool report_pressure = true;
  /// Run the dataflow-backed semantic checks IR017-IR024. On for
  /// verify_kernel / smdcheck; off in the require_valid_kernel pre-flight,
  /// which runs on every Interpreter construction and schedule_body call
  /// (the semantic checks are warnings-only, so skipping them on the hot
  /// path never hides an error).
  bool dataflow = true;
};

/// Peak register pressure of a kernel: the maximum number of
/// simultaneously-live registers over the linearized section order, with
/// loop-carried registers held live across the whole body.
int kernel_lrf_pressure(const kernel::KernelDef& def);

/// Run all IR checks; never throws.
Diagnostics verify_kernel(const kernel::KernelDef& def,
                          const VerifyOptions& opts = {});

/// Pre-flight entry point used by the interpreter and the scheduler:
/// counts findings into the global registry under "analysis.ir" and throws
/// CheckFailure when the verifier reports errors.
void require_valid_kernel(const kernel::KernelDef& def,
                          const VerifyOptions& opts = {});

}  // namespace smd::analysis
