// Compiled (threaded-code) backend for stream kernels.
//
// The functional interpreter (interp.h) walks the IR instruction list on
// every pass of every section: per op it pays a switch dispatch, a
// bounds-checked register access per operand, and several census
// increments. Since PR 5's event engine removed the cycle-stepping
// overhead, that walk is the simulator's wall-clock bound (ROADMAP top
// item). CompiledKernel removes it by lowering a verified KernelDef once
// into a flat, pre-resolved bytecode:
//
//   * every register and stream index is range-checked once at compile
//     time (IR001/IR002 diagnostics, the same backstop IDs the
//     interpreter raises at run time) and then accessed unchecked,
//   * the four sections are fused into one contiguous op array with
//     [begin, end) ranges per section -- no per-section vector hops,
//   * dispatch is a computed goto (GNU address-of-label) with a portable
//     switch fallback (SMD_KERNEL_VM_NO_COMPUTED_GOTO forces it), and
//   * the data-independent parts of the InterpStats census (LRF/SRF
//     reference counts per section pass, the flop census) are summed at
//     compile time and applied once per run instead of once per op.
//
// The gate for all of this is bit-identity with the interpreter
// (DESIGN.md section 17, the same discipline section 10 applies to the
// simulation engines): identical output words by bit pattern, identical
// to_json(InterpStats), identical error behavior. KernelBackend
// selects the backend everywhere a kernel executes
// (sim::MachineConfig::kernel_backend, the --kernel-backend flag);
// kLockstep runs both and throws on any divergence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/kernel/interp.h"
#include "src/kernel/ir.h"

namespace smd::kernel {

/// Which functional kernel executor runs inside the simulator. All
/// backends produce bit-identical stream outputs and InterpStats; the VM
/// is simply faster (bench_native_kernels --selfcheck measures it).
enum class KernelBackend : std::uint8_t {
  kInterp,    ///< reference IR-walking interpreter
  kVm,        ///< compiled threaded-code VM (default)
  kLockstep,  ///< run both, throw on any divergence (cross-check mode)
};

const char* kernel_backend_name(KernelBackend b);
/// Parse "interp" | "vm" | "lockstep" (throws std::invalid_argument).
KernelBackend parse_kernel_backend(const std::string& name);

/// obs::diff over to_json(InterpStats): "" when every field matches, else
/// the first mismatching paths as "<path>: <a> vs <b>".
std::string diff_interp_stats(const InterpStats& a, const InterpStats& b);

/// A KernelDef lowered to flat bytecode. Construction verifies the kernel
/// (the same analysis::require_valid_kernel pre-flight the interpreter
/// runs) and snapshots everything it needs, so later mutation of the
/// source KernelDef cannot desynchronize the compiled program. Instances
/// are reusable; register files are zero-filled between runs.
class CompiledKernel {
 public:
  CompiledKernel(const KernelDef& def, int n_clusters);

  /// Exactly Interpreter::run: same element order, same census, same
  /// exceptions (exhausted input stream, unbound output sink, binding
  /// arity mismatch) at the same execution points.
  InterpStats run(const StreamBindings& bindings, std::int64_t rounds);

  /// Lowered op count across all fused sections (introspection/tests).
  std::size_t n_ops() const { return ops_.size(); }

 private:
  /// One pre-resolved bytecode op. `code` is the Opcode value (dense,
  /// indexes the dispatch table); operand fields are validated indexes.
  struct VmOp {
    std::uint8_t code = 0;
    std::int32_t dst = 0;
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::int32_t c = 0;
    std::int32_t stream = 0;
    std::int32_t count = 0;
    double imm = 0.0;
  };

  /// Per-section compile-time census: op range in ops_ plus the
  /// data-independent InterpStats contributions of one pass.
  struct SectionProgram {
    std::int32_t begin = 0;
    std::int32_t end = 0;
    std::int64_t lrf_refs = 0;        ///< per cluster pass
    std::int64_t srf_read_words = 0;  ///< per cluster pass (uncond reads)
    std::int64_t srf_write_words = 0; ///< per cluster pass (uncond writes)
    std::int64_t bcast_read_words = 0;///< per all-cluster pass (broadcasts)
    FlopCensus census;                ///< per cluster pass (non-stream ops)
  };

  void lower_section(const KernelDef& def, const std::vector<Instr>& prog,
                     int section_index);
  void exec_section(int cluster, const SectionProgram& sec,
                    const StreamBindings& bindings);

  // Compile-time state (immutable after construction).
  std::string name_;
  std::vector<std::string> stream_names_;
  int n_clusters_ = 0;
  int n_regs_ = 0;
  int block_len_ = 1;
  std::vector<VmOp> ops_;
  SectionProgram sections_[4];  ///< prologue, outer_pre, body, outer_post

  // Run state (reused across runs; no per-run allocation).
  std::vector<double> regs_;         ///< n_clusters x n_regs, flat
  std::vector<std::size_t> cur_in_;  ///< per-slot input cursors
  std::int64_t dyn_lrf_refs_ = 0;    ///< taken conditional transfers
  std::int64_t dyn_srf_read_ = 0;
  std::int64_t dyn_srf_write_ = 0;
  std::int64_t cond_accesses_ = 0;
  std::int64_t cond_taken_ = 0;
};

/// Backend-dispatching kernel executor: owns whichever engines the
/// selected backend needs and reuses their storage across invocations
/// (the controller keeps one per KernelDef per run). In kLockstep mode
/// every run executes both backends -- the interpreter against the real
/// sinks, the VM against scratch sinks -- and throws std::runtime_error
/// naming the first diverging word or stats field.
class KernelExec {
 public:
  KernelExec(const KernelDef& def, int n_clusters, KernelBackend backend);

  InterpStats run(const StreamBindings& bindings, std::int64_t rounds);

  KernelBackend backend() const { return backend_; }

 private:
  KernelBackend backend_;
  std::string name_;
  std::optional<Interpreter> interp_;
  std::optional<CompiledKernel> vm_;
};

}  // namespace smd::kernel
