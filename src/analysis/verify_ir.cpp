#include "src/analysis/verify_ir.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/kernel/cost.h"

namespace smd::analysis {
namespace {

using kernel::Instr;
using kernel::KernelDef;
using kernel::Opcode;
using kernel::StreamDir;

/// The verifier's merge policy: a source the instruction also writes is a
/// deliberate loop-carried merge (sel-accumulate), exempt from IR004 like
/// the words a conditional read keeps.
bool is_merge(const kernel::RegOperands& ops, int r) {
  return std::find(ops.defs.begin(), ops.defs.end(), r) != ops.defs.end();
}

struct SectionRef {
  kernel::Section id;
  const std::vector<Instr>* instrs;
};

std::array<SectionRef, 4> sections_of(const KernelDef& def) {
  return {{{kernel::Section::kPrologue, &def.prologue},
           {kernel::Section::kOuterPre, &def.outer_pre},
           {kernel::Section::kBody, &def.body},
           {kernel::Section::kOuterPost, &def.outer_post}}};
}

class Verifier {
 public:
  Verifier(const KernelDef& def, const VerifyOptions& opts)
      : def_(def), opts_(opts) {}

  Diagnostics run() {
    structural();
    if (def_.block_len < 1) {
      out_.error("IR014", {def_.name, "", -1},
                 "block_len " + std::to_string(def_.block_len) + " < 1");
    }
    dataflow();
    stream_usage();
    pressure();
    semantic();
    return std::move(out_);
  }

 private:
  Location at(kernel::Section s, int idx) const {
    return {def_.name, section_name(s), idx};
  }

  bool reg_ok(int r) const { return r >= 0 && r < def_.n_regs; }

  void check_reg(int r, const char* what, kernel::Section s, int idx,
                 bool& ok) {
    if (reg_ok(r)) return;
    out_.error("IR001", at(s, idx),
               std::string("register ") + std::to_string(r) + " (" + what +
                   ") out of range [0, " + std::to_string(def_.n_regs) + ")");
    ok = false;
  }

  /// Bounds and per-opcode shape checks; records each instruction's
  /// operands and whether it is well-formed enough for the dataflow passes.
  void structural() {
    for (const auto& [sec, instrs] : sections_of(def_)) {
      auto& checked = checked_[static_cast<std::size_t>(sec)];
      checked.resize(instrs->size());
      for (std::size_t i = 0; i < instrs->size(); ++i) {
        const Instr& in = (*instrs)[i];
        const int idx = static_cast<int>(i);
        const kernel::RegOperands& ops = checked[i].ops =
            kernel::reg_operands(in);
        bool ok = true;
        if (kernel::is_stream_op(in.op)) {
          if (in.stream < 0 ||
              in.stream >= static_cast<int>(def_.streams.size())) {
            out_.error("IR002", at(sec, idx),
                       std::string(opcode_name(in.op)) + " of stream slot " +
                           std::to_string(in.stream) + " (kernel declares " +
                           std::to_string(def_.streams.size()) + ")");
            ok = false;
          }
          if (in.count <= 0) {
            out_.error("IR011", at(sec, idx),
                       std::string(opcode_name(in.op)) + " with count " +
                           std::to_string(in.count));
            ok = false;
          }
          if (ok) {
            // The transferred words: written by a read, stored by a write.
            const std::vector<int>& words =
                ops.defs.empty() ? ops.srcs : ops.defs;
            check_reg(words.front(), "stream access base", sec, idx, ok);
            check_reg(words.back(), "stream access end", sec, idx, ok);
            if (kernel::is_conditional_stream_op(in.op)) {
              check_reg(ops.pred, "predicate", sec, idx, ok);
            }
          }
          checked[i].valid = ok;
          continue;
        }
        for (int r : ops.srcs) {
          if (!is_merge(ops, r)) check_reg(r, "source", sec, idx, ok);
        }
        for (int r : ops.defs) check_reg(r, "destination", sec, idx, ok);
        checked[i].valid = ok;
      }
    }
  }

  /// Def-before-use (IR003/IR004/IR009) and dead writes (IR012), walking
  /// prologue -> outer_pre -> body -> outer_post: the first-iteration
  /// execution order, which is the conservative one.
  void dataflow() {
    if (def_.n_regs <= 0) return;
    const auto n = static_cast<std::size_t>(def_.n_regs);
    std::vector<bool> defined_anywhere(n, false);
    std::vector<bool> used_anywhere(n, false);
    std::vector<char> const_def(n, 0);  ///< reg only ever defined by kConst
    for (const auto& [sec, instrs] : sections_of(def_)) {
      const auto& checked = checked_[static_cast<std::size_t>(sec)];
      for (std::size_t i = 0; i < instrs->size(); ++i) {
        if (!checked[i].valid) continue;
        const Instr& in = (*instrs)[i];
        const kernel::RegOperands& ops = checked[i].ops;
        ops.for_each_read(
            [&](int r) { used_anywhere[static_cast<std::size_t>(r)] = true; });
        for (int r : ops.defs) {
          const auto ri = static_cast<std::size_t>(r);
          const_def[ri] = defined_anywhere[ri]
                              ? static_cast<char>(0)
                              : static_cast<char>(in.op == Opcode::kConst);
          defined_anywhere[ri] = true;
        }
      }
    }

    std::vector<bool> defined(n, false);
    std::vector<bool> reported(n, false);  // one finding per register
    for (const auto& [sec, instrs] : sections_of(def_)) {
      const auto& checked = checked_[static_cast<std::size_t>(sec)];
      for (std::size_t i = 0; i < instrs->size(); ++i) {
        if (!checked[i].valid) continue;
        const Instr& in = (*instrs)[i];
        const kernel::RegOperands& ops = checked[i].ops;
        const int idx = static_cast<int>(i);
        auto check_use = [&](int r, bool merge) {
          const auto ri = static_cast<std::size_t>(r);
          if (defined[ri] || reported[ri]) return;
          if (!defined_anywhere[ri]) {
            out_.error("IR003", at(sec, idx),
                       "register " + std::to_string(r) +
                           " is read but never defined");
            reported[ri] = true;
          } else if (!merge) {
            out_.warn("IR004", at(sec, idx),
                      "register " + std::to_string(r) +
                          " may be read before its first definition on the "
                          "first iteration");
            reported[ri] = true;
          }
        };
        if (ops.pred >= 0) {
          const auto pi = static_cast<std::size_t>(ops.pred);
          if (!defined[pi] && !reported[pi]) {
            out_.error("IR009", at(sec, idx),
                       std::string(opcode_name(in.op)) +
                           " predicate register " + std::to_string(ops.pred) +
                           " is not defined before the conditional access; "
                           "every cluster must evaluate the predicate");
            reported[pi] = true;
          }
        }
        for (int r : ops.srcs) {
          if (!is_merge(ops, r)) check_use(r, /*merge=*/false);
        }
        for (int r : ops.kept) check_use(r, /*merge=*/true);
        for (int r : ops.srcs) {
          if (is_merge(ops, r)) check_use(r, /*merge=*/true);
        }
        for (int r : ops.defs) defined[static_cast<std::size_t>(r)] = true;
      }
    }

    // Dead writes: a defined register whose value no instruction reads.
    std::vector<bool> flagged(n, false);
    for (const auto& [sec, instrs] : sections_of(def_)) {
      const auto& checked = checked_[static_cast<std::size_t>(sec)];
      for (std::size_t i = 0; i < instrs->size(); ++i) {
        if (!checked[i].valid) continue;
        for (int r : checked[i].ops.defs) {
          const auto ri = static_cast<std::size_t>(r);
          if (used_anywhere[ri] || flagged[ri]) continue;
          flagged[ri] = true;
          const std::string msg = "register " + std::to_string(r) +
                                  " is written but its value is never read";
          if (const_def[ri]) {
            out_.note("IR012", at(sec, static_cast<int>(i)),
                      msg + " (preloaded constant)");
          } else {
            out_.warn("IR012", at(sec, static_cast<int>(i)), msg);
          }
        }
      }
    }
  }

  /// Stream-declaration conformance: direction, record width, conditional
  /// flag, broadcast multiplicity, unused declarations.
  void stream_usage() {
    std::vector<int> accesses(def_.streams.size(), 0);
    std::vector<int> body_bcasts(def_.streams.size(), 0);
    for (const auto& [sec, instrs] : sections_of(def_)) {
      for (std::size_t i = 0; i < instrs->size(); ++i) {
        const Instr& in = (*instrs)[i];
        if (!kernel::is_stream_op(in.op)) continue;
        if (in.stream < 0 ||
            in.stream >= static_cast<int>(def_.streams.size())) {
          continue;  // IR002 already reported
        }
        const int idx = static_cast<int>(i);
        const auto& decl = def_.streams[static_cast<std::size_t>(in.stream)];
        ++accesses[static_cast<std::size_t>(in.stream)];
        const bool is_read = kernel::is_stream_read(in.op);
        if (is_read && decl.dir != StreamDir::kIn) {
          out_.error("IR005", at(sec, idx),
                     std::string(opcode_name(in.op)) + " of output stream '" +
                         decl.name + "'");
        }
        if (!is_read && decl.dir != StreamDir::kOut) {
          out_.error("IR005", at(sec, idx),
                     std::string(opcode_name(in.op)) + " of input stream '" +
                         decl.name + "'");
        }
        if (in.count > 0 && in.count != decl.record_words) {
          out_.error("IR006", at(sec, idx),
                     std::string(opcode_name(in.op)) + " of " +
                         std::to_string(in.count) + " words from stream '" +
                         decl.name + "' declaring record_words=" +
                         std::to_string(decl.record_words));
        }
        if (kernel::is_conditional_stream_op(in.op) && !decl.conditional) {
          out_.error("IR007", at(sec, idx),
                     std::string(opcode_name(in.op)) + " of stream '" +
                         decl.name +
                         "' which is not declared conditional; the "
                         "inter-cluster switch cannot compact it");
        }
        if (!kernel::is_conditional_stream_op(in.op) && decl.conditional) {
          out_.error("IR008", at(sec, idx),
                     std::string(opcode_name(in.op)) + " of stream '" +
                         decl.name +
                         "' which is declared conditional; only "
                         "conditional accesses keep the clusters in step");
        }
        if (in.op == Opcode::kReadBcast && sec == kernel::Section::kBody) {
          if (++body_bcasts[static_cast<std::size_t>(in.stream)] == 2) {
            out_.error("IR010", at(sec, idx),
                       "multiple broadcast reads of stream '" + decl.name +
                           "' in the body (the shared cursor advances once "
                           "per iteration)");
          }
        }
      }
    }
    for (std::size_t s = 0; s < def_.streams.size(); ++s) {
      if (accesses[s] == 0) {
        out_.warn("IR013", {def_.name, "", -1},
                  "stream '" + def_.streams[s].name + "' (slot " +
                      std::to_string(s) + ") is declared but never accessed");
      }
    }
  }

  void pressure() {
    const int peak = kernel_lrf_pressure(def_);
    if (peak > opts_.lrf_words) {
      out_.warn("IR015", {def_.name, "", -1},
                "peak LRF pressure " + std::to_string(peak) +
                    " words exceeds the per-cluster capacity of " +
                    std::to_string(opts_.lrf_words));
    }
    if (opts_.report_pressure) {
      out_.note("IR016", {def_.name, "", -1},
                "LRF pressure: peak " + std::to_string(peak) +
                    " simultaneously-live registers, " +
                    std::to_string(def_.n_regs) + " allocated, capacity " +
                    std::to_string(opts_.lrf_words) + " words");
    }
  }

  /// Dataflow-backed precision checks IR017-IR024 (see dataflow.h). Only
  /// runs when every earlier pass is error-free: the engine indexes
  /// registers and sections directly, so it needs a structurally valid
  /// kernel, and semantic refinements are pointless on broken IR anyway.
  void semantic() {
    if (!opts_.dataflow) return;
    if (out_.errors() > 0 || def_.n_regs <= 0 || def_.block_len < 1) return;
    const KernelDataflow dfa(def_);
    const auto n = static_cast<std::size_t>(def_.n_regs);

    // Registers read by at least one instruction: IR017 restricts itself
    // to these, because a register never read anywhere is already IR012.
    std::vector<bool> used_anywhere(n, false);
    for (const auto& checked : checked_) {
      for (const Checked& c : checked) {
        c.ops.for_each_read(
            [&](int r) { used_anywhere[static_cast<std::size_t>(r)] = true; });
      }
    }

    for (const auto& [sec, instrs] : sections_of(def_)) {
      ConstEnv env = dfa.const_env_at_entry(sec);
      for (std::size_t i = 0; i < instrs->size(); ++i) {
        const Instr& in = (*instrs)[i];
        const int idx = static_cast<int>(i);
        const kernel::RegOperands& ops =
            checked_[static_cast<std::size_t>(sec)][i].ops;
        const bool stream = kernel::is_stream_op(in.op);
        const Bitset& live = dfa.live_after(sec, idx);

        if (!stream && in.dst >= 0 && !live.test(in.dst) &&
            used_anywhere[static_cast<std::size_t>(in.dst)]) {
          const std::string msg =
              std::string(opcode_name(in.op)) + " into register " +
              std::to_string(in.dst) +
              " is dead: the value is overwritten before any use";
          if (in.op == Opcode::kConst) {
            out_.note("IR017", at(sec, idx), msg + " (preloaded constant)");
          } else {
            out_.warn("IR017", at(sec, idx), msg);
          }
        }

        if (kernel::is_stream_read(in.op)) {
          bool any_live = false;
          for (int r : ops.defs) any_live = any_live || live.test(r);
          if (!any_live) {
            out_.warn("IR021", at(sec, idx),
                      std::string(opcode_name(in.op)) + " of " +
                          std::to_string(in.count) + " words from stream '" +
                          def_.streams[static_cast<std::size_t>(in.stream)]
                              .name +
                          "' whose destination words are never used "
                          "(removable only together with the whole stream: "
                          "dropping a single read desyncs the SRF cursor)");
          }
        }

        if (!stream && kernel::op_cost(in.op).fpu_slots > 0) {
          bool all_const = true;
          for (int r : ops.srcs) {
            all_const = all_const && env[static_cast<std::size_t>(r)].has_value();
          }
          if (all_const) {
            const std::string msg =
                std::string(opcode_name(in.op)) + " into register " +
                std::to_string(in.dst) +
                " has provably constant operands: foldable to a preloaded "
                "constant";
            if (sec == kernel::Section::kPrologue) {
              out_.note("IR019", at(sec, idx),
                        msg + " (prologue: cost paid once per launch)");
            } else {
              out_.warn("IR019", at(sec, idx), msg);
            }
          }
        }

        if (in.op == Opcode::kMov) {
          DefSite site;
          if (dfa.unique_reaching_def(sec, idx, in.a, &site) &&
              site.instr >= 0 &&
              section_instrs(def_, site.sec)[static_cast<std::size_t>(
                  site.instr)].op == Opcode::kMov) {
            out_.note("IR020", at(sec, idx),
                      "copy chain: register " + std::to_string(in.a) +
                          "'s unique reaching definition (" +
                          section_name(site.sec) + "[" +
                          std::to_string(site.instr) +
                          "]) is itself a mov; the copy source could be "
                          "forwarded");
          }
        }

        if (in.op == Opcode::kReadCond && in.c >= in.dst &&
            in.c < in.dst + in.count) {
          out_.warn("IR023", at(sec, idx),
                    "self-overwriting conditional read: predicate register " +
                        std::to_string(in.c) +
                        " lies inside the destination range [" +
                        std::to_string(in.dst) + ", " +
                        std::to_string(in.dst + in.count) +
                        "); a taken access clobbers its own predicate");
        }

        if (kernel::is_conditional_stream_op(in.op) &&
            env[static_cast<std::size_t>(in.c)].has_value()) {
          const double p = *env[static_cast<std::size_t>(in.c)];
          out_.warn("IR024", at(sec, idx),
                    std::string(opcode_name(in.op)) +
                        " predicate register " + std::to_string(in.c) +
                        " is provably the constant " + std::to_string(p) +
                        ": the access is " +
                        (p != 0.0 ? "always" : "never") +
                        " taken and need not be conditional");
        }

        apply_const_transfer(in, env);
      }
    }

    for (const Redundancy& r : dfa.redundancies()) {
      const Instr& in =
          section_instrs(def_, r.sec)[static_cast<std::size_t>(r.instr)];
      const std::string msg =
          std::string(opcode_name(in.op)) + " into register " +
          std::to_string(in.dst) + " recomputes the value of " +
          section_name(r.sec) + "[" + std::to_string(r.prior) +
          "], still available in register " + std::to_string(r.holder);
      if (r.free_op) {
        out_.note("IR018", at(r.sec, r.instr), msg + " (free op)");
      } else {
        out_.warn("IR018", at(r.sec, r.instr), msg);
      }
    }

    const int exact = dfa.max_live_pressure();
    if (exact > opts_.lrf_words) {
      out_.warn("IR022", {def_.name, "", -1},
                "exact peak LRF live-pressure " + std::to_string(exact) +
                    " registers exceeds the per-cluster capacity of " +
                    std::to_string(opts_.lrf_words) + " words");
    }
  }

  const KernelDef& def_;
  const VerifyOptions& opts_;
  /// One instruction as the structural pass saw it.
  struct Checked {
    kernel::RegOperands ops;
    bool valid = true;  ///< operands in range for the dataflow passes
  };
  std::array<std::vector<Checked>, 4> checked_;  ///< by section
  Diagnostics out_;
};

}  // namespace

int kernel_lrf_pressure(const kernel::KernelDef& def) {
  if (def.n_regs <= 0) return 0;
  const auto n = static_cast<std::size_t>(def.n_regs);
  constexpr int kNone = -1;
  std::vector<int> first(n, kNone), last(n, kNone);
  std::vector<bool> in_body(n, false), elsewhere(n, false);
  std::vector<bool> carried(n, false);  // body use at/before first body def
  std::vector<int> first_body_def(n, kNone);

  int pos = 0;
  int body_begin = 0, body_end = 0;
  for (const auto sec : {kernel::Section::kPrologue, kernel::Section::kOuterPre,
                         kernel::Section::kBody, kernel::Section::kOuterPost}) {
    const std::vector<kernel::Instr>* instrs = nullptr;
    switch (sec) {
      case kernel::Section::kPrologue: instrs = &def.prologue; break;
      case kernel::Section::kOuterPre: instrs = &def.outer_pre; break;
      case kernel::Section::kBody: instrs = &def.body; break;
      case kernel::Section::kOuterPost: instrs = &def.outer_post; break;
    }
    if (sec == kernel::Section::kBody) body_begin = pos;
    for (const auto& in : *instrs) {
      const bool body = sec == kernel::Section::kBody;
      auto touch = [&](int r, bool is_def) {
        if (r < 0 || r >= def.n_regs) return;
        const auto ri = static_cast<std::size_t>(r);
        if (first[ri] == kNone) first[ri] = pos;
        last[ri] = pos;
        (body ? in_body : elsewhere)[ri] = true;
        if (body && is_def && first_body_def[ri] == kNone) {
          first_body_def[ri] = pos;
        }
        if (body && !is_def && first_body_def[ri] == kNone) {
          carried[ri] = true;  // read in the body before any body def
        }
      };
      const kernel::RegOperands ops = kernel::reg_operands(in);
      ops.for_each_read([&](int r) { touch(r, false); });
      for (int r : ops.defs) touch(r, true);
      ++pos;
    }
    if (sec == kernel::Section::kBody) body_end = pos;
  }
  if (pos == 0) return 0;

  // Loop-carried or cross-section registers stay live across the body.
  std::vector<int> delta(static_cast<std::size_t>(pos) + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    if (first[r] == kNone) continue;
    int lo = first[r], hi = last[r];
    const bool spans = in_body[r] && (carried[r] || elsewhere[r]);
    if (spans && body_end > body_begin) {
      lo = std::min(lo, body_begin);
      hi = std::max(hi, body_end - 1);
    }
    ++delta[static_cast<std::size_t>(lo)];
    --delta[static_cast<std::size_t>(hi) + 1];
  }
  int live = 0, peak = 0;
  for (int p = 0; p < pos; ++p) {
    live += delta[static_cast<std::size_t>(p)];
    peak = std::max(peak, live);
  }
  return peak;
}

Diagnostics verify_kernel(const kernel::KernelDef& def,
                          const VerifyOptions& opts) {
  return Verifier(def, opts).run();
}

void require_valid_kernel(const kernel::KernelDef& def,
                          const VerifyOptions& opts) {
  VerifyOptions o = opts;
  o.report_pressure = false;
  // The semantic checks (IR017-IR024) are warnings-only and cost a full
  // dataflow fixpoint; this entry point runs on every Interpreter
  // construction and schedule_body call, so skip them here.
  o.dataflow = false;
  Diagnostics d = verify_kernel(def, o);
  d.count_into_registry("analysis.ir");
  if (d.errors() > 0) throw CheckFailure(std::move(d));
}

}  // namespace smd::analysis
