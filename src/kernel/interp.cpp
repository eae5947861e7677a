#include "src/kernel/interp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/analysis/verify_ir.h"

namespace smd::kernel {

InterpStats& InterpStats::operator+=(const InterpStats& o) {
  executed += o.executed;
  lrf_refs += o.lrf_refs;
  srf_read_words += o.srf_read_words;
  srf_write_words += o.srf_write_words;
  cond_accesses += o.cond_accesses;
  cond_taken += o.cond_taken;
  body_iterations += o.body_iterations;
  return *this;
}

obs::Json to_json(const InterpStats& s) {
  obs::Json j = obs::Json::object();
  j.set("executed", to_json(s.executed))
      .set("lrf_refs", s.lrf_refs)
      .set("srf_read_words", s.srf_read_words)
      .set("srf_write_words", s.srf_write_words)
      .set("cond_accesses", s.cond_accesses)
      .set("cond_taken", s.cond_taken)
      .set("body_iterations", s.body_iterations);
  return j;
}

namespace {

/// Runtime backstop behind the static pre-flight: report through the
/// diagnostics engine and fail the run cleanly instead of indexing out of
/// range (defined behavior in release builds too).
[[noreturn]] void runtime_fail(const KernelDef& def, const char* id,
                               std::string message) {
  analysis::Diagnostics d;
  d.error(id, {def.name, "runtime", -1}, std::move(message));
  d.count_into_registry("analysis.runtime");
  throw analysis::CheckFailure(std::move(d));
}

}  // namespace

Interpreter::Interpreter(const KernelDef& def, int n_clusters)
    : def_(def),
      n_clusters_(n_clusters),
      n_regs_(def.n_regs),
      regs_(static_cast<std::size_t>(n_clusters) *
                static_cast<std::size_t>(def.n_regs),
            0.0),
      cur_in_(def.streams.size(), 0) {
  // Static pre-flight: bounds, def-before-use, stream-decl conformance and
  // SIMD legality (fatal on error; warnings land in the obs registry).
  analysis::require_valid_kernel(def_);
}

InterpStats Interpreter::run(const StreamBindings& bindings, std::int64_t rounds) {
  if (bindings.inputs.size() != def_.streams.size() ||
      bindings.outputs.size() != def_.streams.size()) {
    throw std::runtime_error(def_.name + ": binding arity mismatch");
  }

  InterpStats stats;
  // The register files and cursors are owned by the Interpreter (hoisted
  // off the hot path); a run starts from the same zeroed LRF state a
  // freshly constructed interpreter would see.
  std::fill(regs_.begin(), regs_.end(), 0.0);
  std::fill(cur_in_.begin(), cur_in_.end(), 0);

  auto exec = [&](int cluster, const std::vector<Instr>& prog) {
    double* const r = regs_.data() + static_cast<std::size_t>(cluster) *
                                         static_cast<std::size_t>(n_regs_);
    // Checked LRF access: the verifier proves these statically, so the
    // branch never fires for verified kernels; it exists to keep a
    // malformed instruction from becoming UB.
    auto R = [&](int idx) -> double& {
      if (idx < 0 || idx >= n_regs_) {
        runtime_fail(def_, "IR001",
                     "register " + std::to_string(idx) +
                         " out of range [0, " + std::to_string(n_regs_) +
                         ")");
      }
      return r[static_cast<std::size_t>(idx)];
    };
    auto slot = [&](int s) -> std::size_t {
      if (s < 0 || s >= static_cast<int>(def_.streams.size())) {
        runtime_fail(def_, "IR002",
                     "stream slot " + std::to_string(s) + " out of range (" +
                         std::to_string(def_.streams.size()) + " declared)");
      }
      return static_cast<std::size_t>(s);
    };
    for (const auto& in : prog) {
      switch (in.op) {
        case Opcode::kConst:
          R(in.dst) = in.imm;
          stats.lrf_refs += 1;
          break;
        case Opcode::kMov:
          R(in.dst) = R(in.a);
          stats.lrf_refs += 2;
          break;
        case Opcode::kAdd:
          R(in.dst) = R(in.a) + R(in.b);
          stats.lrf_refs += 3;
          break;
        case Opcode::kSub:
          R(in.dst) = R(in.a) - R(in.b);
          stats.lrf_refs += 3;
          break;
        case Opcode::kMul:
          R(in.dst) = R(in.a) * R(in.b);
          stats.lrf_refs += 3;
          break;
        case Opcode::kMadd:
          R(in.dst) = R(in.a) * R(in.b) + R(in.c);
          stats.lrf_refs += 4;
          break;
        case Opcode::kMsub:
          R(in.dst) = R(in.a) * R(in.b) - R(in.c);
          stats.lrf_refs += 4;
          break;
        case Opcode::kDiv:
          R(in.dst) = R(in.a) / R(in.b);
          stats.lrf_refs += 3;
          break;
        case Opcode::kSqrt:
          R(in.dst) = std::sqrt(R(in.a));
          stats.lrf_refs += 2;
          break;
        case Opcode::kRsqrt:
          R(in.dst) = 1.0 / std::sqrt(R(in.a));
          stats.lrf_refs += 2;
          break;
        case Opcode::kCmpEq:
          R(in.dst) = (R(in.a) == R(in.b)) ? 1.0 : 0.0;
          stats.lrf_refs += 3;
          break;
        case Opcode::kCmpLt:
          R(in.dst) = (R(in.a) < R(in.b)) ? 1.0 : 0.0;
          stats.lrf_refs += 3;
          break;
        case Opcode::kSel:
          R(in.dst) = (R(in.c) != 0.0) ? R(in.a) : R(in.b);
          stats.lrf_refs += 4;
          break;
        case Opcode::kReadBcast: {
          // Every cluster receives the same record through the
          // inter-cluster switch; the shared cursor advances after the
          // last cluster has read it.
          const std::size_t s = slot(in.stream);
          auto& cursor = cur_in_[s];
          const auto& src = bindings.inputs[s];
          if (cursor + static_cast<std::size_t>(in.count) > src.size()) {
            throw std::runtime_error(def_.name + ": input stream '" +
                                     def_.streams[s].name + "' exhausted");
          }
          for (int w = 0; w < in.count; ++w) {
            R(in.dst + w) = src[cursor + static_cast<std::size_t>(w)];
          }
          stats.lrf_refs += in.count;
          if (cluster == n_clusters_ - 1) {
            cursor += static_cast<std::size_t>(in.count);
            stats.srf_read_words += in.count;  // fetched once, fanned out
          }
          break;
        }
        case Opcode::kRead:
        case Opcode::kReadCond: {
          const bool cond = (in.op == Opcode::kReadCond);
          if (cond) {
            ++stats.cond_accesses;
            if (R(in.c) == 0.0) break;
            ++stats.cond_taken;
          }
          const std::size_t s = slot(in.stream);
          auto& cursor = cur_in_[s];
          const auto& src = bindings.inputs[s];
          if (cursor + static_cast<std::size_t>(in.count) > src.size()) {
            throw std::runtime_error(def_.name + ": input stream '" +
                                     def_.streams[s].name + "' exhausted");
          }
          for (int w = 0; w < in.count; ++w) {
            R(in.dst + w) = src[cursor + static_cast<std::size_t>(w)];
          }
          cursor += static_cast<std::size_t>(in.count);
          stats.srf_read_words += in.count;
          stats.lrf_refs += in.count;  // LRF writes of the loaded words
          break;
        }
        case Opcode::kWrite:
        case Opcode::kWriteCond: {
          // The bind check comes BEFORE the predicate test: an unbound
          // conditional output is a binding bug and must fail
          // deterministically, not only on iterations whose predicate
          // happens to fire. (The VM backend mirrors this order.)
          auto* sink = bindings.outputs[slot(in.stream)];
          if (sink == nullptr) {
            throw std::runtime_error(def_.name + ": output stream not bound");
          }
          const bool cond = (in.op == Opcode::kWriteCond);
          if (cond) {
            ++stats.cond_accesses;
            if (R(in.c) == 0.0) break;
            ++stats.cond_taken;
          }
          for (int w = 0; w < in.count; ++w) {
            sink->push_back(R(in.a + w));
          }
          stats.srf_write_words += in.count;
          stats.lrf_refs += in.count;  // LRF reads of the stored words
          break;
        }
      }
      // Census of executed arithmetic (stream words handled above).
      if (in.op != Opcode::kRead && in.op != Opcode::kReadCond &&
          in.op != Opcode::kWrite && in.op != Opcode::kWriteCond) {
        stats.executed += instr_census(in);
      }
    }
  };

  for (int c = 0; c < n_clusters_; ++c) exec(c, def_.prologue);
  for (std::int64_t round = 0; round < rounds; ++round) {
    for (int c = 0; c < n_clusters_; ++c) exec(c, def_.outer_pre);
    for (int l = 0; l < def_.block_len; ++l) {
      for (int c = 0; c < n_clusters_; ++c) exec(c, def_.body);
      stats.body_iterations += n_clusters_;
    }
    for (int c = 0; c < n_clusters_; ++c) exec(c, def_.outer_post);
  }
  // Stream words are tallied during execution; fold them into the census.
  stats.executed.words_read = stats.srf_read_words;
  stats.executed.words_written = stats.srf_write_words;
  return stats;
}

}  // namespace smd::kernel
