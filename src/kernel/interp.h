// Functional interpreter for stream kernels.
//
// Executes a KernelDef in SIMD lockstep across `n_clusters` clusters over
// bound stream buffers, producing bit-accurate double-precision results and
// an execution census (flops actually executed, LRF/SRF reference counts,
// conditional-stream activity). Stream elements are consumed in
// (round, body-iteration, cluster) order, which is exactly how the layout
// builders lay records out; conditional accesses consume from a shared
// compacted stream in cluster order -- the semantics of Merrimac's
// conditional-streams mechanism.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/kernel/ir.h"

namespace smd::kernel {

/// Execution census from one kernel run.
struct InterpStats {
  FlopCensus executed;            ///< ops actually executed (all clusters)
  std::int64_t lrf_refs = 0;      ///< LRF reads + writes
  std::int64_t srf_read_words = 0;
  std::int64_t srf_write_words = 0;
  std::int64_t cond_accesses = 0; ///< conditional stream ops issued
  std::int64_t cond_taken = 0;    ///< ... of which actually transferred
  std::int64_t body_iterations = 0;  ///< per-cluster iterations x clusters

  InterpStats& operator+=(const InterpStats& o);
};

/// Every field, for bench records and the bit-identity gates.
obs::Json to_json(const InterpStats& s);

/// Input/output buffers bound to the kernel's stream slots, in declaration
/// order. Input spans must outlive the run; outputs are appended to.
struct StreamBindings {
  std::vector<std::span<const double>> inputs;   // slot -> data (empty span for outputs)
  std::vector<std::vector<double>*> outputs;     // slot -> sink (nullptr for inputs)
};

/// Interpreter for one kernel invocation. Instances are reusable: the
/// per-cluster register files are allocated once at construction and
/// zero-filled between runs, so repeated invocations (one per strip in a
/// simulated time-step) pay no allocation churn.
class Interpreter {
 public:
  Interpreter(const KernelDef& def, int n_clusters);

  /// Run `rounds` block rounds. Each round executes outer_pre once, the
  /// body `block_len` times, and outer_post once, on every cluster.
  /// Returns the execution census. Throws std::runtime_error if an input
  /// stream is exhausted (layout bug).
  InterpStats run(const StreamBindings& bindings, std::int64_t rounds);

 private:
  const KernelDef& def_;
  int n_clusters_;
  int n_regs_;  ///< LRF size captured at construction (sizes regs_)
  std::vector<double> regs_;        ///< n_clusters x n_regs, flat
  std::vector<std::size_t> cur_in_; ///< per-slot input cursors
};

}  // namespace smd::kernel
