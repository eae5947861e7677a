#include "src/kernel/vm.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "src/analysis/verify_ir.h"

// Threaded-code dispatch (GNU address-of-label computed goto) with a
// portable switch fallback. Define SMD_KERNEL_VM_NO_COMPUTED_GOTO to force
// the fallback (it is what non-GNU compilers get anyway); the two paths
// execute identical op bodies, so they are trivially bit-identical.
#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(SMD_KERNEL_VM_NO_COMPUTED_GOTO)
#define SMD_VM_THREADED 1
#else
#define SMD_VM_THREADED 0
#endif

namespace smd::kernel {
namespace {

/// Compile-time analogue of the interpreter's runtime backstop: a
/// malformed index found during lowering becomes a located diagnostic and
/// a clean CheckFailure instead of an unchecked table entry. Same check
/// IDs (IR001/IR002) and registry census as the interpreter's paths.
[[noreturn]] void compile_fail(const std::string& kernel, const char* id,
                               std::string message) {
  analysis::Diagnostics d;
  d.error(id, {kernel, "compile", -1}, std::move(message));
  d.count_into_registry("analysis.runtime");
  throw analysis::CheckFailure(std::move(d));
}

void add_scaled(FlopCensus& acc, const FlopCensus& c, std::int64_t n) {
  acc.flops += c.flops * n;
  acc.divides += c.divides * n;
  acc.square_roots += c.square_roots * n;
  acc.fpu_ops += c.fpu_ops * n;
  acc.words_read += c.words_read * n;
  acc.words_written += c.words_written * n;
}

}  // namespace

const char* kernel_backend_name(KernelBackend b) {
  switch (b) {
    case KernelBackend::kInterp: return "interp";
    case KernelBackend::kVm: return "vm";
    case KernelBackend::kLockstep: return "lockstep";
  }
  return "unknown";
}

KernelBackend parse_kernel_backend(const std::string& name) {
  if (name == "interp") return KernelBackend::kInterp;
  if (name == "vm") return KernelBackend::kVm;
  if (name == "lockstep") return KernelBackend::kLockstep;
  throw std::invalid_argument("unknown kernel backend '" + name +
                              "' (want interp|vm|lockstep)");
}

std::string diff_interp_stats(const InterpStats& a, const InterpStats& b) {
  return obs::diff(to_json(a), to_json(b));
}

// ---------------------------------------------------------------------------
// Compilation (lowering)
// ---------------------------------------------------------------------------

CompiledKernel::CompiledKernel(const KernelDef& def, int n_clusters)
    : name_(def.name),
      n_clusters_(n_clusters),
      n_regs_(def.n_regs),
      block_len_(def.block_len) {
  stream_names_.reserve(def.streams.size());
  for (const auto& sd : def.streams) stream_names_.push_back(sd.name);
  ops_.reserve(def.prologue.size() + def.outer_pre.size() + def.body.size() +
               def.outer_post.size());
  // Lowering runs BEFORE the full verifier so its index backstops are a
  // genuine line of defense (and testable): every register/stream index
  // is range-checked exactly once, here, and never again at run time.
  lower_section(def, def.prologue, 0);
  lower_section(def, def.outer_pre, 1);
  lower_section(def, def.body, 2);
  lower_section(def, def.outer_post, 3);
  // Then the same static pre-flight the interpreter runs (def-before-use,
  // stream-decl conformance, SIMD legality, ...).
  analysis::require_valid_kernel(def);
  regs_.assign(static_cast<std::size_t>(std::max(0, n_clusters_)) *
                   static_cast<std::size_t>(std::max(0, n_regs_)),
               0.0);
  cur_in_.assign(def.streams.size(), 0);
}

void CompiledKernel::lower_section(const KernelDef& def,
                                   const std::vector<Instr>& prog,
                                   int section_index) {
  SectionProgram& sec = sections_[section_index];
  sec.begin = static_cast<std::int32_t>(ops_.size());

  // Register operand spanning [base, base+span): bounds-checked once here.
  const auto reg = [&](int base, std::int64_t span) -> std::int32_t {
    if (base < 0 || span < 0 ||
        static_cast<std::int64_t>(base) + span >
            static_cast<std::int64_t>(def.n_regs)) {
      compile_fail(def.name, "IR001",
                   "register " + std::to_string(base) + " out of range [0, " +
                       std::to_string(def.n_regs) + ")");
    }
    return base;
  };
  const auto slot = [&](int s) -> std::int32_t {
    if (s < 0 || s >= static_cast<int>(def.streams.size())) {
      compile_fail(def.name, "IR002",
                   "stream slot " + std::to_string(s) + " out of range (" +
                       std::to_string(def.streams.size()) + " declared)");
    }
    return s;
  };

  for (const Instr& in : prog) {
    const OpInfo& info = op_info(in.op);
    VmOp op;
    op.code = static_cast<std::uint8_t>(in.op);
    op.count = in.count;
    op.imm = in.imm;
    // The first bad index is the one reported: dst, then the plain
    // sources a, b, c; for a stream access the slot, the base register,
    // then the predicate.
    if (info.stream == StreamAccess::kNone) {
      op.dst = reg(in.dst, 1);
      const int srcs[] = {in.a, in.b, in.c};
      std::int32_t* const fields[] = {&op.a, &op.b, &op.c};
      for (int k = 0; k < info.n_srcs; ++k) *fields[k] = reg(srcs[k], 1);
    } else {
      op.stream = slot(in.stream);
      if (info.stream == StreamAccess::kWrite) {
        op.a = reg(in.a, in.count);
      } else {
        op.dst = reg(in.dst, in.count);
      }
      if (info.conditional) op.c = reg(in.c, 1);
    }
    // The static census: one LRF reference per register the operand rule
    // lists. A conditional access's census is data-dependent (tallied
    // when taken).
    if (!info.conditional) {
      switch (info.stream) {
        case StreamAccess::kNone:
          sec.lrf_refs += 1 + info.n_srcs;
          sec.census += instr_census(in);
          break;
        case StreamAccess::kRead:
          sec.lrf_refs += in.count;
          sec.srf_read_words += in.count;
          break;
        case StreamAccess::kBcastRead:
          sec.lrf_refs += in.count;
          sec.bcast_read_words += in.count;
          break;
        case StreamAccess::kWrite:
          sec.lrf_refs += in.count;
          sec.srf_write_words += in.count;
          break;
      }
    }
    ops_.push_back(op);
  }
  sec.end = static_cast<std::int32_t>(ops_.size());
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void throw_exhausted(const std::string& kernel,
                                  const std::string& stream) {
  throw std::runtime_error(kernel + ": input stream '" + stream +
                           "' exhausted");
}

[[noreturn]] void throw_unbound(const std::string& kernel) {
  throw std::runtime_error(kernel + ": output stream not bound");
}

}  // namespace

void CompiledKernel::exec_section(int cluster, const SectionProgram& sec,
                                  const StreamBindings& bindings) {
  const VmOp* op = ops_.data() + sec.begin;
  const VmOp* const end = ops_.data() + sec.end;
  if (op == end) return;
  double* const r = regs_.data() + static_cast<std::size_t>(cluster) *
                                       static_cast<std::size_t>(n_regs_);
  // Broadcast reads fan the same record out to every cluster; the shared
  // cursor advances after the last cluster has read it (interp semantics).
  const bool advances_bcast = cluster == n_clusters_ - 1;

#if SMD_VM_THREADED
  static const void* const kJump[] = {
      &&L_Const, &&L_Mov,   &&L_Add,      &&L_Sub,       &&L_Mul,
      &&L_Madd,  &&L_Msub,  &&L_Div,      &&L_Sqrt,      &&L_Rsqrt,
      &&L_CmpEq, &&L_CmpLt, &&L_Sel,      &&L_Read,      &&L_ReadCond,
      &&L_ReadBcast,        &&L_Write,    &&L_WriteCond,
  };
#define SMD_VM_CASE(Name) L_##Name:
#define SMD_VM_NEXT()             \
  do {                            \
    if (++op == end) return;      \
    goto* kJump[op->code];        \
  } while (0)
  goto* kJump[op->code];
#else
#define SMD_VM_CASE(Name) case Opcode::k##Name:
#define SMD_VM_NEXT() break
  for (; op != end; ++op) {
    switch (static_cast<Opcode>(op->code)) {
#endif

      SMD_VM_CASE(Const) { r[op->dst] = op->imm; }
      SMD_VM_NEXT();
      SMD_VM_CASE(Mov) { r[op->dst] = r[op->a]; }
      SMD_VM_NEXT();
      SMD_VM_CASE(Add) { r[op->dst] = r[op->a] + r[op->b]; }
      SMD_VM_NEXT();
      SMD_VM_CASE(Sub) { r[op->dst] = r[op->a] - r[op->b]; }
      SMD_VM_NEXT();
      SMD_VM_CASE(Mul) { r[op->dst] = r[op->a] * r[op->b]; }
      SMD_VM_NEXT();
      SMD_VM_CASE(Madd) { r[op->dst] = r[op->a] * r[op->b] + r[op->c]; }
      SMD_VM_NEXT();
      SMD_VM_CASE(Msub) { r[op->dst] = r[op->a] * r[op->b] - r[op->c]; }
      SMD_VM_NEXT();
      SMD_VM_CASE(Div) { r[op->dst] = r[op->a] / r[op->b]; }
      SMD_VM_NEXT();
      SMD_VM_CASE(Sqrt) { r[op->dst] = std::sqrt(r[op->a]); }
      SMD_VM_NEXT();
      SMD_VM_CASE(Rsqrt) { r[op->dst] = 1.0 / std::sqrt(r[op->a]); }
      SMD_VM_NEXT();
      SMD_VM_CASE(CmpEq) { r[op->dst] = (r[op->a] == r[op->b]) ? 1.0 : 0.0; }
      SMD_VM_NEXT();
      SMD_VM_CASE(CmpLt) { r[op->dst] = (r[op->a] < r[op->b]) ? 1.0 : 0.0; }
      SMD_VM_NEXT();
      SMD_VM_CASE(Sel) { r[op->dst] = (r[op->c] != 0.0) ? r[op->a] : r[op->b]; }
      SMD_VM_NEXT();
      SMD_VM_CASE(Read) {
        const auto s = static_cast<std::size_t>(op->stream);
        const auto& src = bindings.inputs[s];
        std::size_t& cursor = cur_in_[s];
        if (cursor + static_cast<std::size_t>(op->count) > src.size()) {
          throw_exhausted(name_, stream_names_[s]);
        }
        double* const dst = r + op->dst;
        for (std::int32_t w = 0; w < op->count; ++w) {
          dst[w] = src[cursor + static_cast<std::size_t>(w)];
        }
        cursor += static_cast<std::size_t>(op->count);
      }
      SMD_VM_NEXT();
      SMD_VM_CASE(ReadCond) {
        ++cond_accesses_;
        if (r[op->c] != 0.0) {
          ++cond_taken_;
          const auto s = static_cast<std::size_t>(op->stream);
          const auto& src = bindings.inputs[s];
          std::size_t& cursor = cur_in_[s];
          if (cursor + static_cast<std::size_t>(op->count) > src.size()) {
            throw_exhausted(name_, stream_names_[s]);
          }
          double* const dst = r + op->dst;
          for (std::int32_t w = 0; w < op->count; ++w) {
            dst[w] = src[cursor + static_cast<std::size_t>(w)];
          }
          cursor += static_cast<std::size_t>(op->count);
          dyn_srf_read_ += op->count;
          dyn_lrf_refs_ += op->count;
        }
      }
      SMD_VM_NEXT();
      SMD_VM_CASE(ReadBcast) {
        const auto s = static_cast<std::size_t>(op->stream);
        const auto& src = bindings.inputs[s];
        const std::size_t cursor = cur_in_[s];
        if (cursor + static_cast<std::size_t>(op->count) > src.size()) {
          throw_exhausted(name_, stream_names_[s]);
        }
        double* const dst = r + op->dst;
        for (std::int32_t w = 0; w < op->count; ++w) {
          dst[w] = src[cursor + static_cast<std::size_t>(w)];
        }
        if (advances_bcast) {
          cur_in_[s] = cursor + static_cast<std::size_t>(op->count);
        }
      }
      SMD_VM_NEXT();
      SMD_VM_CASE(Write) {
        auto* sink = bindings.outputs[static_cast<std::size_t>(op->stream)];
        if (sink == nullptr) throw_unbound(name_);
        const double* const src = r + op->a;
        sink->insert(sink->end(), src, src + op->count);
      }
      SMD_VM_NEXT();
      SMD_VM_CASE(WriteCond) {
        // Bind check before the predicate test -- the interpreter's fixed
        // deterministic order; see interp.cpp kWrite/kWriteCond.
        auto* sink = bindings.outputs[static_cast<std::size_t>(op->stream)];
        if (sink == nullptr) throw_unbound(name_);
        ++cond_accesses_;
        if (r[op->c] != 0.0) {
          ++cond_taken_;
          const double* const src = r + op->a;
          sink->insert(sink->end(), src, src + op->count);
          dyn_srf_write_ += op->count;
          dyn_lrf_refs_ += op->count;
        }
      }
      SMD_VM_NEXT();

#if !SMD_VM_THREADED
    }
  }
#endif
#undef SMD_VM_CASE
#undef SMD_VM_NEXT
}

InterpStats CompiledKernel::run(const StreamBindings& bindings,
                                std::int64_t rounds) {
  if (bindings.inputs.size() != stream_names_.size() ||
      bindings.outputs.size() != stream_names_.size()) {
    throw std::runtime_error(name_ + ": binding arity mismatch");
  }
  std::fill(regs_.begin(), regs_.end(), 0.0);
  std::fill(cur_in_.begin(), cur_in_.end(), 0);
  dyn_lrf_refs_ = dyn_srf_read_ = dyn_srf_write_ = 0;
  cond_accesses_ = cond_taken_ = 0;

  for (int c = 0; c < n_clusters_; ++c) {
    exec_section(c, sections_[0], bindings);
  }
  for (std::int64_t round = 0; round < rounds; ++round) {
    for (int c = 0; c < n_clusters_; ++c) {
      exec_section(c, sections_[1], bindings);
    }
    for (int l = 0; l < block_len_; ++l) {
      for (int c = 0; c < n_clusters_; ++c) {
        exec_section(c, sections_[2], bindings);
      }
    }
    for (int c = 0; c < n_clusters_; ++c) {
      exec_section(c, sections_[3], bindings);
    }
  }

  // Fold the compile-time censuses into the run census. Only reached on
  // success (an exception above discards the run), so the aggregate is
  // exactly what the interpreter's per-op accounting would have summed.
  const std::int64_t eff_rounds = std::max<std::int64_t>(rounds, 0);
  const std::int64_t passes[4] = {1, eff_rounds,
                                  eff_rounds * block_len_, eff_rounds};
  InterpStats stats;
  for (int s = 0; s < 4; ++s) {
    const SectionProgram& sec = sections_[s];
    const std::int64_t cluster_passes = passes[s] * n_clusters_;
    add_scaled(stats.executed, sec.census, cluster_passes);
    stats.lrf_refs += sec.lrf_refs * cluster_passes;
    stats.srf_read_words += sec.srf_read_words * cluster_passes +
                            sec.bcast_read_words * passes[s];
    stats.srf_write_words += sec.srf_write_words * cluster_passes;
  }
  stats.lrf_refs += dyn_lrf_refs_;
  stats.srf_read_words += dyn_srf_read_;
  stats.srf_write_words += dyn_srf_write_;
  stats.cond_accesses = cond_accesses_;
  stats.cond_taken = cond_taken_;
  stats.body_iterations = eff_rounds * block_len_ * n_clusters_;
  stats.executed.words_read = stats.srf_read_words;
  stats.executed.words_written = stats.srf_write_words;
  return stats;
}

// ---------------------------------------------------------------------------
// KernelExec
// ---------------------------------------------------------------------------

KernelExec::KernelExec(const KernelDef& def, int n_clusters,
                       KernelBackend backend)
    : backend_(backend), name_(def.name) {
  if (backend != KernelBackend::kVm) interp_.emplace(def, n_clusters);
  if (backend != KernelBackend::kInterp) vm_.emplace(def, n_clusters);
}

InterpStats KernelExec::run(const StreamBindings& bindings,
                            std::int64_t rounds) {
  switch (backend_) {
    case KernelBackend::kInterp:
      return interp_->run(bindings, rounds);
    case KernelBackend::kVm:
      return vm_->run(bindings, rounds);
    case KernelBackend::kLockstep:
      break;
  }

  // Lockstep: the VM runs first against scratch sinks, then the reference
  // interpreter against the real ones; any divergence -- a stats field or
  // a single output word's bit pattern -- throws.
  std::vector<std::vector<double>> scratch(bindings.outputs.size());
  StreamBindings vm_bindings;
  vm_bindings.inputs = bindings.inputs;
  vm_bindings.outputs.resize(bindings.outputs.size(), nullptr);
  std::vector<std::size_t> pre_size(bindings.outputs.size(), 0);
  for (std::size_t s = 0; s < bindings.outputs.size(); ++s) {
    if (bindings.outputs[s] != nullptr) {
      vm_bindings.outputs[s] = &scratch[s];
      pre_size[s] = bindings.outputs[s]->size();
    }
  }
  const InterpStats vm_stats = vm_->run(vm_bindings, rounds);
  const InterpStats interp_stats = interp_->run(bindings, rounds);

  const std::string d = diff_interp_stats(interp_stats, vm_stats);
  if (!d.empty()) {
    throw std::runtime_error("kernel '" + name_ +
                             "': interp/vm lockstep stats divergence: " + d);
  }
  for (std::size_t s = 0; s < bindings.outputs.size(); ++s) {
    if (bindings.outputs[s] == nullptr) continue;
    const auto& ref = *bindings.outputs[s];
    const std::size_t appended = ref.size() - pre_size[s];
    if (appended != scratch[s].size()) {
      throw std::runtime_error(
          "kernel '" + name_ + "': interp/vm lockstep output-length " +
          "divergence on stream " + std::to_string(s) + ": interp=" +
          std::to_string(appended) + " vm=" + std::to_string(scratch[s].size()));
    }
    for (std::size_t w = 0; w < appended; ++w) {
      const double a = ref[pre_size[s] + w];
      const double b = scratch[s][w];
      if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) {
        throw std::runtime_error(
            "kernel '" + name_ + "': interp/vm lockstep word divergence on " +
            "stream " + std::to_string(s) + " word " + std::to_string(w));
      }
    }
  }
  return interp_stats;
}

}  // namespace smd::kernel
