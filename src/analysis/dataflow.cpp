#include "src/analysis/dataflow.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <map>
#include <tuple>

#include "src/kernel/cost.h"

namespace smd::analysis {

using kernel::Instr;
using kernel::KernelDef;
using kernel::Opcode;
using kernel::Section;

int Bitset::count() const {
  int n = 0;
  for (std::uint64_t w : words_) n += std::popcount(w);
  return n;
}

bool Bitset::merge(const Bitset& o) {
  bool changed = false;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t merged = words_[i] | o.words_[i];
    if (merged != words_[i]) {
      words_[i] = merged;
      changed = true;
    }
  }
  return changed;
}

const char* section_name(Section s) {
  switch (s) {
    case Section::kPrologue:
      return "prologue";
    case Section::kOuterPre:
      return "outer_pre";
    case Section::kBody:
      return "body";
    case Section::kOuterPost:
      return "outer_post";
  }
  return "?";
}

const std::vector<Instr>& section_instrs(const KernelDef& def, Section s) {
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

std::optional<double> fold_instr(const Instr& in, double a, double b,
                                 double c) {
  // Every expression below is textually the interpreter's (interp.cpp), so
  // a folded constant carries the exact bits execution would produce.
  switch (in.op) {
    case Opcode::kConst:
      return in.imm;
    case Opcode::kMov:
      return a;
    case Opcode::kAdd:
      return a + b;
    case Opcode::kSub:
      return a - b;
    case Opcode::kMul:
      return a * b;
    case Opcode::kMadd:
      return a * b + c;
    case Opcode::kMsub:
      return a * b - c;
    case Opcode::kDiv:
      return a / b;
    case Opcode::kSqrt:
      return std::sqrt(a);
    case Opcode::kRsqrt:
      return 1.0 / std::sqrt(a);
    case Opcode::kCmpEq:
      return (a == b) ? 1.0 : 0.0;
    case Opcode::kCmpLt:
      return (a < b) ? 1.0 : 0.0;
    case Opcode::kSel:
      return (c != 0.0) ? a : b;
    case Opcode::kRead:
    case Opcode::kReadCond:
    case Opcode::kReadBcast:
    case Opcode::kWrite:
    case Opcode::kWriteCond:
      return std::nullopt;
  }
  return std::nullopt;
}

namespace {

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Lattice meet of two register states: equal bit patterns stay constant
/// (value identity, not ==, so -0.0 vs 0.0 and NaN payloads stay exact).
ConstVal meet_val(const ConstVal& x, const ConstVal& y) {
  if (!x || !y) return std::nullopt;
  if (bits_of(*x) != bits_of(*y)) return std::nullopt;
  return x;
}

/// into = meet(into, from); returns true if anything changed.
bool meet_env(ConstEnv& into, const ConstEnv& from) {
  bool changed = false;
  for (std::size_t r = 0; r < into.size(); ++r) {
    const ConstVal m = meet_val(into[r], from[r]);
    const bool was = into[r].has_value();
    if (was != m.has_value() ||
        (was && bits_of(*into[r]) != bits_of(*m))) {
      into[r] = m;
      changed = true;
    }
  }
  return changed;
}

}  // namespace

void apply_const_transfer(const Instr& in, ConstEnv& env) {
  const kernel::RegOperands ops = kernel::reg_operands(in);
  if (kernel::is_stream_op(in.op)) {
    // Loaded (or, for READ_COND, possibly-loaded) words are unknown.
    for (int r : ops.defs) env[static_cast<std::size_t>(r)] = std::nullopt;
    return;
  }
  switch (in.op) {
    case Opcode::kConst:
      env[static_cast<std::size_t>(in.dst)] = in.imm;
      return;
    case Opcode::kMov:
      env[static_cast<std::size_t>(in.dst)] =
          env[static_cast<std::size_t>(in.a)];
      return;
    case Opcode::kSel: {
      // A constant predicate statically selects one input, so the result
      // state is exactly that input's state even when it is not constant.
      const ConstVal& pred = env[static_cast<std::size_t>(in.c)];
      if (pred.has_value()) {
        env[static_cast<std::size_t>(in.dst)] =
            (*pred != 0.0) ? env[static_cast<std::size_t>(in.a)]
                           : env[static_cast<std::size_t>(in.b)];
        return;
      }
      env[static_cast<std::size_t>(in.dst)] = std::nullopt;
      return;
    }
    default:
      break;
  }
  // The sources are a, b, c in order, as many as the opcode reads.
  double vals[3] = {0.0, 0.0, 0.0};
  bool all_const = true;
  for (std::size_t i = 0; i < ops.srcs.size(); ++i) {
    const ConstVal& v = env[static_cast<std::size_t>(ops.srcs[i])];
    if (!v) {
      all_const = false;
      break;
    }
    vals[i] = *v;
  }
  ConstVal result;
  if (all_const) result = fold_instr(in, vals[0], vals[1], vals[2]);
  env[static_cast<std::size_t>(in.dst)] = result;
}

KernelDataflow::KernelDataflow(const KernelDef& def)
    : def_(&def), n_regs_(def.n_regs), has_body_loop_(def.block_len > 1) {
  n_points_ = 0;
  for (Section s : kSectionOrder) {
    n_points_ += static_cast<int>(section_instrs(def, s).size()) + 1;
  }
  run_reaching();
  run_liveness();
  run_constants();
  run_lvn();
}

// ---- Liveness. --------------------------------------------------------------

namespace {

/// Backward liveness transfer of one instruction. A conditional read's
/// kept words are read as well as written, so they stay live.
void live_transfer(const Instr& in, Bitset& live) {
  const kernel::RegOperands ops = kernel::reg_operands(in);
  for (int d : ops.defs) live.reset(d);
  ops.for_each_read([&](int r) { live.set(r); });
}

}  // namespace

void KernelDataflow::run_liveness() {
  for (Section s : kSectionOrder) {
    auto& st = state_[static_cast<std::size_t>(s)];
    st.live.assign(section_instrs(*def_, s).size() + 1, Bitset(n_regs_));
  }
  auto entry = [&](Section s) -> const Bitset& {
    return state(s).live.front();
  };

  bool changed = true;
  while (changed) {
    changed = false;
    const Section rev[4] = {Section::kOuterPost, Section::kBody,
                            Section::kOuterPre, Section::kPrologue};
    for (Section s : rev) {
      Bitset cur(n_regs_);
      switch (s) {
        case Section::kOuterPost:
          cur.merge(entry(Section::kOuterPre));  // next round (kernel exit
          break;                                 // contributes nothing)
        case Section::kBody:
          cur.merge(entry(Section::kOuterPost));
          if (has_body_loop_) cur.merge(entry(Section::kBody));
          break;
        case Section::kOuterPre:
          cur.merge(entry(Section::kBody));
          break;
        case Section::kPrologue:
          cur.merge(entry(Section::kOuterPre));
          break;
      }
      auto& st = state_[static_cast<std::size_t>(s)];
      const auto& instrs = section_instrs(*def_, s);
      const int n = static_cast<int>(instrs.size());
      if (!(st.live[static_cast<std::size_t>(n)] == cur)) {
        st.live[static_cast<std::size_t>(n)] = cur;
        changed = true;
      }
      for (int i = n - 1; i >= 0; --i) {
        live_transfer(instrs[static_cast<std::size_t>(i)], cur);
        if (!(st.live[static_cast<std::size_t>(i)] == cur)) {
          st.live[static_cast<std::size_t>(i)] = cur;
          changed = true;
        }
      }
    }
  }

  max_pressure_ = 0;
  for (Section s : kSectionOrder) {
    for (const Bitset& b : state(s).live) {
      max_pressure_ = std::max(max_pressure_, b.count());
    }
  }
}

const Bitset& KernelDataflow::live_before(Section s, int idx) const {
  return state(s).live[static_cast<std::size_t>(idx)];
}

const Bitset& KernelDataflow::live_after(Section s, int idx) const {
  return state(s).live[static_cast<std::size_t>(idx) + 1];
}

std::vector<LiveRange> KernelDataflow::live_ranges() const {
  std::vector<LiveRange> out;
  for (int r = 0; r < n_regs_; ++r) {
    LiveRange lr;
    lr.reg = r;
    int point = 0;
    for (Section s : kSectionOrder) {
      for (const Bitset& b : state(s).live) {
        if (b.test(r)) {
          if (lr.first_point < 0) lr.first_point = point;
          lr.last_point = point;
          ++lr.live_points;
        }
        ++point;
      }
    }
    if (lr.live_points > 0) out.push_back(lr);
  }
  return out;
}

// ---- Reaching definitions. --------------------------------------------------

void KernelDataflow::run_reaching() {
  def_sites_.clear();
  defs_of_reg_.assign(static_cast<std::size_t>(n_regs_), {});
  // Implicit zero-initialization definitions, one per register, ids [0, R).
  for (int r = 0; r < n_regs_; ++r) {
    def_sites_.push_back({Section::kPrologue, -1, r});
    defs_of_reg_[static_cast<std::size_t>(r)].push_back(r);
  }
  // ids_by_instr[sec][i] lists this instruction's def ids, parallel to
  // reg_operands(...).defs.
  std::vector<std::vector<int>> ids_by_instr[4];
  for (Section s : kSectionOrder) {
    const auto& instrs = section_instrs(*def_, s);
    auto& ids = ids_by_instr[static_cast<std::size_t>(s)];
    ids.resize(instrs.size());
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      for (int d : kernel::reg_operands(instrs[i]).defs) {
        const int id = static_cast<int>(def_sites_.size());
        def_sites_.push_back({s, static_cast<int>(i), d});
        defs_of_reg_[static_cast<std::size_t>(d)].push_back(id);
        ids[i].push_back(id);
      }
    }
  }
  const int n_defs = static_cast<int>(def_sites_.size());

  for (Section s : kSectionOrder) {
    auto& st = state_[static_cast<std::size_t>(s)];
    st.reach.assign(section_instrs(*def_, s).size() + 1, Bitset(n_defs));
  }
  Bitset implicit(n_defs);
  for (int r = 0; r < n_regs_; ++r) implicit.set(r);

  auto out = [&](Section s) -> const Bitset& { return state(s).reach.back(); };

  bool changed = true;
  while (changed) {
    changed = false;
    for (Section s : kSectionOrder) {
      Bitset cur(n_defs);
      switch (s) {
        case Section::kPrologue:
          cur = implicit;
          break;
        case Section::kOuterPre:
          cur.merge(out(Section::kPrologue));
          cur.merge(out(Section::kOuterPost));
          break;
        case Section::kBody:
          cur.merge(out(Section::kOuterPre));
          if (has_body_loop_) cur.merge(out(Section::kBody));
          break;
        case Section::kOuterPost:
          cur.merge(out(Section::kBody));
          break;
      }
      auto& st = state_[static_cast<std::size_t>(s)];
      const auto& instrs = section_instrs(*def_, s);
      const auto& ids = ids_by_instr[static_cast<std::size_t>(s)];
      for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (!(st.reach[i] == cur)) {
          st.reach[i] = cur;
          changed = true;
        }
        // An untaken conditional read keeps its words: it kills nothing.
        const kernel::RegOperands ops = kernel::reg_operands(instrs[i]);
        if (ops.kept.empty()) {
          for (int d : ops.defs) {
            for (int id : defs_of_reg_[static_cast<std::size_t>(d)]) {
              cur.reset(id);
            }
          }
        }
        for (int id : ids[i]) cur.set(id);
      }
      if (!(st.reach.back() == cur)) {
        st.reach.back() = cur;
        changed = true;
      }
    }
  }
}

std::vector<DefSite> KernelDataflow::reaching_defs(Section s, int idx,
                                                   int reg) const {
  std::vector<DefSite> out;
  const Bitset& reach = state(s).reach[static_cast<std::size_t>(idx)];
  for (int id : defs_of_reg_[static_cast<std::size_t>(reg)]) {
    if (reach.test(id)) out.push_back(def_sites_[static_cast<std::size_t>(id)]);
  }
  return out;
}

bool KernelDataflow::unique_reaching_def(Section s, int idx, int reg,
                                         DefSite* site) const {
  const auto defs = reaching_defs(s, idx, reg);
  if (defs.size() != 1) return false;
  *site = defs.front();
  return true;
}

// ---- Constant lattice. ------------------------------------------------------

void KernelDataflow::run_constants() {
  // Entry environments; disengaged optional = section not yet reached.
  std::optional<ConstEnv> in[4];
  in[static_cast<std::size_t>(Section::kPrologue)] =
      ConstEnv(static_cast<std::size_t>(n_regs_), ConstVal(0.0));

  auto flow_out = [&](Section s) -> ConstEnv {
    ConstEnv env = *in[static_cast<std::size_t>(s)];
    for (const Instr& i : section_instrs(*def_, s)) {
      apply_const_transfer(i, env);
    }
    return env;
  };
  auto propagate = [&](Section to, const ConstEnv& env) -> bool {
    auto& slot = in[static_cast<std::size_t>(to)];
    if (!slot) {
      slot = env;
      return true;
    }
    return meet_env(*slot, env);
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (Section s : kSectionOrder) {
      if (!in[static_cast<std::size_t>(s)]) continue;
      const ConstEnv env = flow_out(s);
      switch (s) {
        case Section::kPrologue:
          changed |= propagate(Section::kOuterPre, env);
          break;
        case Section::kOuterPre:
          changed |= propagate(Section::kBody, env);
          break;
        case Section::kBody:
          if (has_body_loop_) changed |= propagate(Section::kBody, env);
          changed |= propagate(Section::kOuterPost, env);
          break;
        case Section::kOuterPost:
          changed |= propagate(Section::kOuterPre, env);
          break;
      }
    }
  }
  for (Section s : kSectionOrder) {
    auto& slot = in[static_cast<std::size_t>(s)];
    state_[static_cast<std::size_t>(s)].const_in =
        slot ? *slot
             : ConstEnv(static_cast<std::size_t>(n_regs_), std::nullopt);
  }
}

const ConstEnv& KernelDataflow::const_env_at_entry(Section s) const {
  return state(s).const_in;
}

// ---- Local value numbering. -------------------------------------------------

void KernelDataflow::run_lvn() {
  redundancies_.clear();
  for (Section s : kSectionOrder) {
    const auto& instrs = section_instrs(*def_, s);
    // Value number of each register's current content; section entry
    // values are unknown-but-fixed, so each register starts distinct.
    std::vector<int> vn(static_cast<std::size_t>(n_regs_));
    int next_vn = n_regs_;
    for (int r = 0; r < n_regs_; ++r) vn[static_cast<std::size_t>(r)] = r;

    struct Entry {
      int vn;
      int holder;
      int instr;
    };
    // Key: opcode, operand value numbers, immediate bits.
    std::map<std::tuple<int, int, int, int, std::uint64_t>, Entry> table;

    for (std::size_t i = 0; i < instrs.size(); ++i) {
      const Instr& in = instrs[i];
      if (kernel::is_stream_op(in.op)) {
        // Stream reads produce fresh unknown values (READ_COND merges, so
        // its destinations are fresh too -- value may or may not change).
        for (int d : kernel::reg_operands(in).defs) {
          vn[static_cast<std::size_t>(d)] = next_vn++;
        }
        continue;
      }
      if (in.op == Opcode::kMov) {
        vn[static_cast<std::size_t>(in.dst)] = vn[static_cast<std::size_t>(in.a)];
        continue;
      }
      const int va = in.a >= 0 ? vn[static_cast<std::size_t>(in.a)] : -1;
      const int vb = in.b >= 0 ? vn[static_cast<std::size_t>(in.b)] : -1;
      const int vc = in.c >= 0 ? vn[static_cast<std::size_t>(in.c)] : -1;
      const std::uint64_t ib =
          in.op == Opcode::kConst ? bits_of(in.imm) : 0;
      const auto key = std::make_tuple(static_cast<int>(in.op), va, vb, vc, ib);
      auto it = table.find(key);
      if (it != table.end() &&
          vn[static_cast<std::size_t>(it->second.holder)] == it->second.vn) {
        // The value is still held in a register: this is a recomputation.
        redundancies_.push_back({s, static_cast<int>(i), it->second.instr,
                                 it->second.holder,
                                 in.op == Opcode::kConst});
        vn[static_cast<std::size_t>(in.dst)] = it->second.vn;
        continue;
      }
      const int v = (it != table.end()) ? it->second.vn : next_vn++;
      table[key] = Entry{v, in.dst, static_cast<int>(i)};
      vn[static_cast<std::size_t>(in.dst)] = v;
    }
  }
}

// ---- Dynamic pressure oracle. -----------------------------------------------

int dynamic_lrf_pressure(const KernelDef& def, int rounds) {
  // Concrete execution order of one run with `rounds` rounds.
  std::vector<const Instr*> trace;
  for (const Instr& i : def.prologue) trace.push_back(&i);
  for (int round = 0; round < rounds; ++round) {
    for (const Instr& i : def.outer_pre) trace.push_back(&i);
    for (int l = 0; l < def.block_len; ++l) {
      for (const Instr& i : def.body) trace.push_back(&i);
    }
    for (const Instr& i : def.outer_post) trace.push_back(&i);
  }
  // Walk backward: at each boundary, `live` is exactly the set of registers
  // whose current value some later instruction of the trace reads before a
  // (full) overwrite.
  Bitset live(def.n_regs);
  int peak = 0;
  for (std::size_t t = trace.size(); t-- > 0;) {
    live_transfer(*trace[t], live);
    peak = std::max(peak, live.count());
  }
  return peak;
}

}  // namespace smd::analysis
