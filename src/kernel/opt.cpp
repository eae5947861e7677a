#include "src/kernel/opt.h"

#include <cmath>
#include <utility>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/analysis/verify_ir.h"
#include "src/kernel/cost.h"

namespace smd::kernel {
namespace {

using analysis::ConstEnv;
using analysis::DefSite;
using analysis::KernelDataflow;
using analysis::kSectionOrder;

std::vector<Instr>& section_of(KernelDef& def, Section s) {
  switch (s) {
    case Section::kPrologue:
      return def.prologue;
    case Section::kOuterPre:
      return def.outer_pre;
    case Section::kBody:
      return def.body;
    case Section::kOuterPost:
      return def.outer_post;
  }
  return def.body;
}

/// Operand fields of `in` that may legally be redirected by copy
/// propagation: the operand rule's plain sources and a conditional
/// access's predicate. Stream base registers (kRead dst, kWrite a) address
/// CONSECUTIVE registers and are never rewritten.
std::vector<int*> rewritable_operands(Instr& in) {
  const OpInfo& info = op_info(in.op);
  int* const srcs[] = {&in.a, &in.b, &in.c};
  std::vector<int*> out(srcs, srcs + info.n_srcs);
  if (info.conditional) out.push_back(&in.c);
  return out;
}

/// Constant folding + kSel predicate resolution over one whole kernel.
int fold_constants(KernelDef& def, const KernelDataflow& dfa) {
  int rewrites = 0;
  for (Section s : kSectionOrder) {
    ConstEnv env = dfa.const_env_at_entry(s);
    for (Instr& in : section_of(def, s)) {
      const Instr before = in;
      if (!is_stream_op(in.op) && op_cost(in.op).fpu_slots > 0) {
        bool all_const = true;
        for (int r : reg_operands(in).srcs) {
          all_const = all_const && env[static_cast<std::size_t>(r)].has_value();
        }
        if (all_const) {
          auto val = [&](int r) {
            return r >= 0 ? *env[static_cast<std::size_t>(r)] : 0.0;
          };
          const auto folded =
              analysis::fold_instr(in, val(in.a), val(in.b), val(in.c));
          Instr repl;
          repl.op = Opcode::kConst;
          repl.dst = in.dst;
          repl.imm = *folded;
          in = repl;
          ++rewrites;
        } else if (in.op == Opcode::kSel &&
                   env[static_cast<std::size_t>(in.c)].has_value()) {
          // The predicate alone is constant: the select is statically
          // resolved to a free copy of the chosen input.
          const int chosen =
              (*env[static_cast<std::size_t>(in.c)] != 0.0) ? in.a : in.b;
          Instr repl;
          repl.op = Opcode::kMov;
          repl.dst = in.dst;
          repl.a = chosen;
          in = repl;
          ++rewrites;
        }
      }
      // Advance the environment with the ORIGINAL transfer -- identical
      // result by construction (the rewrite preserves the value), and it
      // keeps this walk in sync with the fixpoint the engine computed.
      analysis::apply_const_transfer(before, env);
    }
  }
  return rewrites;
}

/// Copy propagation within sections.
int propagate_copies(KernelDef& def, const KernelDataflow& dfa) {
  int rewrites = 0;
  for (Section s : kSectionOrder) {
    auto& instrs = section_of(def, s);
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      for (int* operand : rewritable_operands(instrs[i])) {
        const int reg = *operand;
        DefSite site;
        if (!dfa.unique_reaching_def(s, static_cast<int>(i), reg, &site)) {
          continue;
        }
        // Same section, textually before the use: in a straight-line
        // section the defining instance executed in this very pass.
        if (site.sec != s || site.instr < 0 ||
            site.instr >= static_cast<int>(i)) {
          continue;
        }
        const Instr& copy = instrs[static_cast<std::size_t>(site.instr)];
        if (copy.op != Opcode::kMov || copy.a == reg) continue;
        // The copy source must be unchanged between the mov and the use.
        bool src_stable = true;
        for (int j = site.instr + 1; j < static_cast<int>(i) && src_stable;
             ++j) {
          for (int d : reg_operands(instrs[static_cast<std::size_t>(j)]).defs) {
            if (d == copy.a) src_stable = false;
          }
        }
        if (!src_stable) continue;
        *operand = copy.a;
        ++rewrites;
      }
    }
  }
  return rewrites;
}

/// CSE: rewrite LVN-detected recomputations to copies from the holder.
int eliminate_common_subexpressions(KernelDef& def,
                                    const KernelDataflow& dfa) {
  int rewrites = 0;
  for (const analysis::Redundancy& r : dfa.redundancies()) {
    Instr& in = section_of(def, r.sec)[static_cast<std::size_t>(r.instr)];
    if (in.op == Opcode::kMov && in.a == r.holder) continue;  // already done
    Instr repl;
    repl.op = Opcode::kMov;
    repl.dst = in.dst;
    repl.a = r.holder;
    in = repl;
    ++rewrites;
  }
  return rewrites;
}

/// DCE: drop pure instructions none of whose results are live.
int eliminate_dead_code(KernelDef& def, const KernelDataflow& dfa) {
  int removed = 0;
  for (Section s : kSectionOrder) {
    auto& instrs = section_of(def, s);
    std::vector<Instr> kept;
    kept.reserve(instrs.size());
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      const Instr& in = instrs[i];
      bool dead = !is_stream_op(in.op) && in.dst >= 0 &&
                  !dfa.live_after(s, static_cast<int>(i)).test(in.dst);
      if (dead) {
        ++removed;
      } else {
        kept.push_back(in);
      }
    }
    instrs = std::move(kept);
  }
  return removed;
}

/// Remove ONE eliminable stream per call (the fixpoint loop finds the
/// rest): an input stream all of whose reads have only dead destination
/// words, or any stream with no accesses at all. Returns the number of
/// read instructions dropped, or -1 if nothing was eliminable.
int eliminate_dead_stream(KernelDef& def, const KernelDataflow& dfa,
                          int* streams_removed) {
  const int n_streams = static_cast<int>(def.streams.size());
  for (int slot = 0; slot < n_streams; ++slot) {
    bool only_dead_reads = true;
    int n_accesses = 0;
    for (Section s : kSectionOrder) {
      const auto& instrs = section_of(def, s);
      for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instr& in = instrs[i];
        if (!is_stream_op(in.op) || in.stream != slot) continue;
        ++n_accesses;
        if (!is_stream_read(in.op)) {
          only_dead_reads = false;
          continue;
        }
        const analysis::Bitset& live = dfa.live_after(s, static_cast<int>(i));
        for (int d : reg_operands(in).defs) {
          if (live.test(d)) only_dead_reads = false;
        }
      }
    }
    if (n_accesses > 0 && !only_dead_reads) continue;
    // Eliminable: drop its accesses (reads whose words were never
    // observable) and the declaration, renumbering higher slots.
    int dropped = 0;
    for (Section s : kSectionOrder) {
      auto& instrs = section_of(def, s);
      std::vector<Instr> kept;
      kept.reserve(instrs.size());
      for (Instr in : instrs) {
        if (is_stream_op(in.op) && in.stream == slot) {
          ++dropped;
          continue;
        }
        if (is_stream_op(in.op) && in.stream > slot) in.stream -= 1;
        kept.push_back(in);
      }
      instrs = std::move(kept);
    }
    def.streams.erase(def.streams.begin() + slot);
    *streams_removed += 1;
    return dropped;
  }
  return -1;
}

double try_cycles_per_iteration(const KernelDef& def,
                                const ScheduleOptions& sched) {
  if (def.body.empty()) return 0.0;
  try {
    return schedule_body(def, sched).cycles_per_iteration();
  } catch (const ScheduleError&) {
    return std::nan("");
  }
}

}  // namespace

std::string OptReport::str() const {
  std::string out = kernel + ": ";
  if (total_rewrites() == 0) {
    out += "no rewrites (already optimal under these passes)\n";
  } else {
    out += std::to_string(total_rewrites()) + " rewrites in " +
           std::to_string(passes) + " pass(es)\n";
    auto line = [&](const char* what, int n) {
      if (n > 0) {
        out += "  " + std::string(what) + ": " + std::to_string(n) + "\n";
      }
    };
    line("constants folded / selects resolved", const_folded);
    line("copies propagated", copies_propagated);
    line("common subexpressions reused", cse_replaced);
    line("dead instructions removed", dce_removed);
    line("dead stream reads removed", dead_stream_reads_removed);
    line("dead stream declarations removed", dead_streams_removed);
  }
  auto cyc = [](double c) {
    if (std::isnan(c)) return std::string("unschedulable");
    return std::to_string(c);
  };
  out += "  scheduled cycles/iteration: " + cyc(cycles_per_iteration_before) +
         " -> " + cyc(cycles_per_iteration_after);
  if (reverted_schedule_regression) {
    out += " (REGRESSION: original kernel returned unchanged)";
  }
  out += "\n";
  return out;
}

KernelDef optimize_kernel(const KernelDef& def, OptReport* report,
                          const ScheduleOptions& sched) {
  analysis::require_valid_kernel(def);

  OptReport local;
  OptReport& rep = report != nullptr ? *report : local;
  rep = OptReport{};
  rep.kernel = def.name;

  KernelDef out = def;
  // Fixpoint over the passes: each pass consumes analyses of the CURRENT
  // definition, so the engine is recomputed before each pass. Every
  // rewrite either shrinks the instruction list or replaces an op with a
  // free one that later passes can only shrink further, so this
  // terminates; the bound is a safety net.
  for (int round = 0; round < 64; ++round) {
    int changed = 0;
    {
      const KernelDataflow dfa(out);
      const int n = fold_constants(out, dfa);
      rep.const_folded += n;
      changed += n;
    }
    {
      const KernelDataflow dfa(out);
      const int n = propagate_copies(out, dfa);
      rep.copies_propagated += n;
      changed += n;
    }
    {
      const KernelDataflow dfa(out);
      const int n = eliminate_common_subexpressions(out, dfa);
      rep.cse_replaced += n;
      changed += n;
    }
    {
      const KernelDataflow dfa(out);
      const int n = eliminate_dead_code(out, dfa);
      rep.dce_removed += n;
      changed += n;
    }
    {
      const KernelDataflow dfa(out);
      const int n = eliminate_dead_stream(out, dfa, &rep.dead_streams_removed);
      if (n >= 0) {
        rep.dead_stream_reads_removed += n;
        changed += n + 1;
      }
    }
    if (changed == 0) break;
    ++rep.passes;
  }

  rep.cycles_per_iteration_before = try_cycles_per_iteration(def, sched);
  rep.cycles_per_iteration_after = try_cycles_per_iteration(out, sched);

  // Non-regression guard: the rewritten kernel must schedule at least as
  // well as the original, or we ship the original. NaN (unschedulable
  // original) skips the guard; an optimized kernel that became
  // unschedulable while the original scheduled is a regression.
  if (!std::isnan(rep.cycles_per_iteration_before)) {
    if (std::isnan(rep.cycles_per_iteration_after) ||
        rep.cycles_per_iteration_after > rep.cycles_per_iteration_before) {
      rep.reverted_schedule_regression = true;
      rep.cycles_per_iteration_after = rep.cycles_per_iteration_before;
      return def;
    }
  }
  return out;
}

}  // namespace smd::kernel
