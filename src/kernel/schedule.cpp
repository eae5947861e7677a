#include "src/kernel/schedule.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>
#include <stdexcept>

#include "src/analysis/verify_ir.h"

namespace smd::kernel {

ScheduleError::ScheduleError(std::string kernel, int res_mii, int max_ii,
                             std::string conflict)
    : std::runtime_error(kernel + ": no schedule found up to II=" +
                         std::to_string(max_ii) + " (resource lower bound " +
                         std::to_string(res_mii) + ", binding conflict: " +
                         conflict + ")"),
      kernel_(std::move(kernel)),
      res_mii_(res_mii),
      max_ii_(max_ii),
      conflict_(std::move(conflict)) {}

namespace {

/// Unrolled, register-renamed op with explicit source/destination value ids.
struct UOp {
  int instr = 0;
  int copy = 0;
  Opcode op = Opcode::kMov;
  int count = 0;          // stream words
  bool conditional = false;
  OpCost cost{0, 1};
  std::vector<int> srcs;  // value ids
  std::vector<int> dsts;  // value ids
  int stream = -1;
};

struct Dep {
  int from;     // producer uop index
  int to;       // consumer uop index
  int latency;
  int distance; // iterations (0 = same unrolled instance)
};

struct Graph {
  std::vector<UOp> ops;
  std::vector<Dep> deps;        // distance 0
  std::vector<Dep> carried;     // distance >= 1 (for modulo verification)
};

/// Unroll the body `unroll` times with value renaming. Loop-carried values
/// (read in the body before being rewritten) generate carried dependences
/// from their final producer back to their first consumers.
Graph build_graph(const KernelDef& def, int unroll) {
  Graph g;
  // Value numbering: value id = name of a register version.
  int next_value = def.n_regs;  // ids [0, n_regs) are the incoming versions
  std::vector<int> current(static_cast<std::size_t>(def.n_regs));
  for (int r = 0; r < def.n_regs; ++r) current[static_cast<std::size_t>(r)] = r;

  // producer[value] = uop index that defines it (-1 for incoming versions).
  std::map<int, int> producer;

  // First consumers of each incoming value (for carried deps).
  std::map<int, std::vector<int>> incoming_consumers;
  std::map<int, int> last_stream_op;  // stream slot -> uop index

  for (int copy = 0; copy < unroll; ++copy) {
    for (std::size_t i = 0; i < def.body.size(); ++i) {
      const Instr& in = def.body[i];
      UOp u;
      u.instr = static_cast<int>(i);
      u.copy = copy;
      u.op = in.op;
      u.count = in.count;
      u.conditional = is_conditional_stream_op(in.op);
      u.cost = op_cost(in.op);
      u.stream = in.stream;
      const RegOperands ops = reg_operands(in);
      auto consume = [&](int r) {
        const int v = current[static_cast<std::size_t>(r)];
        u.srcs.push_back(v);
        if (v < def.n_regs) incoming_consumers[v].push_back(static_cast<int>(g.ops.size()));
      };
      for (int r : ops.srcs) consume(r);
      if (ops.pred >= 0) consume(ops.pred);
      // Conditional reads merge old and new register contents: the untaken
      // path keeps the previous value, so the previous version is a source.
      for (int r : ops.kept) consume(r);
      for (int r : ops.defs) {
        const int v = next_value++;
        current[static_cast<std::size_t>(r)] = v;
        u.dsts.push_back(v);
        producer[v] = static_cast<int>(g.ops.size());
      }
      const int idx = static_cast<int>(g.ops.size());
      // Same-stream ordering (the SRF cursor advances sequentially).
      if (is_stream_op(in.op)) {
        auto it = last_stream_op.find(in.stream);
        if (it != last_stream_op.end()) {
          g.deps.push_back({it->second, idx, 1, 0});
        }
        last_stream_op[in.stream] = idx;
      }
      g.ops.push_back(std::move(u));
    }
  }

  // True dependences inside the window.
  for (std::size_t i = 0; i < g.ops.size(); ++i) {
    for (int v : g.ops[i].srcs) {
      auto it = producer.find(v);
      if (it != producer.end()) {
        const UOp& p = g.ops[static_cast<std::size_t>(it->second)];
        g.deps.push_back({it->second, static_cast<int>(i), p.cost.latency, 0});
      }
    }
  }

  // Carried dependences: the final version of each register feeds the
  // consumers of that register's incoming version in the next instance.
  for (int r = 0; r < def.n_regs; ++r) {
    const int final_v = current[static_cast<std::size_t>(r)];
    if (final_v == r) continue;  // never rewritten in the body
    auto cons = incoming_consumers.find(r);
    if (cons == incoming_consumers.end()) continue;
    const int prod = producer.at(final_v);
    for (int consumer : cons->second) {
      g.carried.push_back({prod, consumer,
                           g.ops[static_cast<std::size_t>(prod)].cost.latency, 1});
    }
  }
  // Stream cursors also carry across instances.
  for (const auto& [stream, last] : last_stream_op) {
    // first op on the same stream:
    for (std::size_t i = 0; i < g.ops.size(); ++i) {
      if (g.ops[i].stream == stream && is_stream_op(g.ops[i].op)) {
        g.carried.push_back({last, static_cast<int>(i), 1, 1});
        break;
      }
    }
  }
  return g;
}

/// Resource reservation tables. In modulo mode all indices are mod II.
struct Resources {
  int n_fpus;
  int srf_capacity;
  int cond_units;
  int ii;  // 0 = non-modulo (absolute time)
  std::vector<std::vector<bool>> fpu;  // [fpu][cycle]
  std::vector<int> srf_words;          // [cycle]
  std::vector<int> cond;               // [cycle]

  explicit Resources(const ScheduleOptions& o, int ii_)
      : n_fpus(o.n_fpus),
        srf_capacity(o.srf_words_per_cycle),
        cond_units(o.cond_units),
        ii(ii_) {
    const int init = ii_ > 0 ? ii_ : 256;
    fpu.assign(static_cast<std::size_t>(n_fpus),
               std::vector<bool>(static_cast<std::size_t>(init), false));
    srf_words.assign(static_cast<std::size_t>(init), 0);
    cond.assign(static_cast<std::size_t>(init), 0);
  }

  int slot(int t) {
    if (ii > 0) return t % ii;
    if (t >= static_cast<int>(srf_words.size())) {
      const auto n = static_cast<std::size_t>(t) * 2 + 1;
      for (auto& f : fpu) f.resize(n, false);
      srf_words.resize(n, 0);
      cond.resize(n, 0);
    }
    return t;
  }

  /// Try to place op at issue cycle t; returns chosen fpu (or -1 for
  /// non-FPU ops) via out param, false if resources unavailable.
  bool try_place(const UOp& u, int t, int* fpu_out) {
    *fpu_out = -1;
    if (u.cost.fpu_slots > 0) {
      if (ii > 0 && u.cost.fpu_slots > ii) return false;
      for (int f = 0; f < n_fpus; ++f) {
        bool free = true;
        for (int k = 0; k < u.cost.fpu_slots; ++k) {
          if (fpu[static_cast<std::size_t>(f)][static_cast<std::size_t>(slot(t + k))]) {
            free = false;
            break;
          }
        }
        if (free) {
          for (int k = 0; k < u.cost.fpu_slots; ++k)
            fpu[static_cast<std::size_t>(f)][static_cast<std::size_t>(slot(t + k))] = true;
          *fpu_out = f;
          return true;
        }
      }
      return false;
    }
    if (is_stream_op(u.op)) {
      // Reserve `count` SRF port words over consecutive cycles from t.
      // All words of the access must fit in ceil(count/capacity) cycles.
      int remaining = u.count;
      int k = 0;
      std::vector<std::pair<int, int>> taken;  // (slot, words)
      while (remaining > 0) {
        const int s = slot(t + k);
        const int avail = srf_capacity - srf_words[static_cast<std::size_t>(s)];
        if (avail <= 0 && k >= (u.count + srf_capacity - 1) / srf_capacity + 2) {
          return false;  // too congested at this offset
        }
        const int take = std::min(avail, remaining);
        if (take > 0) {
          taken.push_back({s, take});
          remaining -= take;
        }
        ++k;
        if (ii > 0 && k > ii) return false;
        if (k > 64) return false;
      }
      if (u.conditional) {
        const int s = slot(t);
        if (cond[static_cast<std::size_t>(s)] >= cond_units) return false;
        ++cond[static_cast<std::size_t>(s)];
      }
      for (auto [s, w] : taken) srf_words[static_cast<std::size_t>(s)] += w;
      return true;
    }
    return true;  // MOV/CONST: free
  }
};

int transfer_cycles(const UOp& u, int capacity) {
  if (!is_stream_op(u.op)) return 0;
  return (u.count + capacity - 1) / capacity;
}

struct Placement {
  std::vector<int> time;
  std::vector<int> fpu;
  bool ok = false;
};

Placement try_schedule(const Graph& g, const ScheduleOptions& opts, int ii) {
  const auto n = g.ops.size();
  Placement p;
  p.time.assign(n, -1);
  p.fpu.assign(n, -1);

  std::vector<std::vector<std::pair<int, int>>> preds(n);  // (from, lat)
  for (const auto& d : g.deps) {
    preds[static_cast<std::size_t>(d.to)].push_back({d.from, d.latency});
  }

  Resources res(opts, ii);
  // Schedule in priority order, but never before all predecessors are
  // placed: process in emission order groups -- emission order is
  // topological, so a simple pass in priority order with a ready check and
  // retry loop works; we instead iterate in topological (emission) order
  // and rely on height-based tie-breaks being unnecessary for correctness.
  for (std::size_t i = 0; i < n; ++i) {
    int ready = 0;
    for (auto [from, lat] : preds[i]) {
      const UOp& pu = g.ops[static_cast<std::size_t>(from)];
      int done = p.time[static_cast<std::size_t>(from)] + lat;
      // Stream transfers complete only after all words have moved.
      done += transfer_cycles(pu, opts.srf_words_per_cycle) > 1
                  ? transfer_cycles(pu, opts.srf_words_per_cycle) - 1
                  : 0;
      ready = std::max(ready, done);
    }
    const int horizon = ii > 0 ? ii : 4096;
    bool placed = false;
    for (int t = ready; t < ready + horizon; ++t) {
      int f = -1;
      if (res.try_place(g.ops[i], t, &f)) {
        p.time[i] = t;
        p.fpu[i] = f;
        placed = true;
        break;
      }
    }
    if (!placed) return p;  // ok = false
  }

  // Verify carried dependences under the candidate II.
  if (ii > 0) {
    for (const auto& d : g.carried) {
      const UOp& pu = g.ops[static_cast<std::size_t>(d.from)];
      int lat = d.latency;
      lat += transfer_cycles(pu, opts.srf_words_per_cycle) > 1
                 ? transfer_cycles(pu, opts.srf_words_per_cycle) - 1
                 : 0;
      if (p.time[static_cast<std::size_t>(d.to)] + d.distance * ii <
          p.time[static_cast<std::size_t>(d.from)] + lat) {
        p.ok = false;
        return p;
      }
    }
  }
  p.ok = true;
  return p;
}

}  // namespace

Schedule schedule_body(const KernelDef& def, const ScheduleOptions& opts) {
  // Static pre-flight: reject malformed IR with located diagnostics before
  // the scheduler walks it (fatal on error, warnings counted).
  analysis::require_valid_kernel(def);
  if (def.body.empty()) {
    Schedule s;
    s.ii = 0;
    s.unroll = opts.unroll;
    return s;
  }
  const Graph g = build_graph(def, opts.unroll);

  // Resource lower bound.
  int fpu_slot_cycles = 0;
  int srf_words = 0;
  int cond_ops = 0;
  for (const auto& u : g.ops) {
    fpu_slot_cycles += u.cost.fpu_slots;
    if (is_stream_op(u.op)) srf_words += u.count;
    if (u.conditional) ++cond_ops;
  }
  int max_slots = 1;
  for (const auto& u : g.ops) max_slots = std::max(max_slots, u.cost.fpu_slots);

  Schedule out;
  out.unroll = opts.unroll;
  out.fpu_slot_cycles = fpu_slot_cycles;
  out.pipelined = opts.software_pipeline;

  // The binding conflict that sets the resource lower bound on II.
  const int fpu_bound = (fpu_slot_cycles + opts.n_fpus - 1) / opts.n_fpus;
  const int srf_bound =
      (srf_words + opts.srf_words_per_cycle - 1) / opts.srf_words_per_cycle;
  const int cond_bound = (cond_ops + opts.cond_units - 1) / opts.cond_units;
  const int res_mii = std::max({fpu_bound, srf_bound, cond_bound, max_slots});
  auto conflict_name = [&]() -> const char* {
    if (res_mii == fpu_bound) return "FPU slots";
    if (res_mii == srf_bound) return "SRF port";
    if (res_mii == cond_bound) return "conditional units";
    return "iterative-op occupancy";
  };

  Placement placement;
  int ii = 0;
  if (opts.software_pipeline) {
    for (ii = std::max(res_mii, 1); ii <= opts.max_ii; ++ii) {
      placement = try_schedule(g, opts, ii);
      if (placement.ok) break;
    }
    if (!placement.ok) {
      throw ScheduleError(def.name, res_mii, opts.max_ii, conflict_name());
    }
  } else {
    placement = try_schedule(g, opts, 0);
    if (!placement.ok) {
      throw ScheduleError(def.name, res_mii, 0, conflict_name());
    }
  }

  int depth = 0;
  for (std::size_t i = 0; i < g.ops.size(); ++i) {
    const UOp& u = g.ops[i];
    depth = std::max(depth, placement.time[i] + std::max(u.cost.latency,
                                                         u.cost.fpu_slots));
    out.ops.push_back({u.instr, u.copy, placement.time[i], placement.fpu[i], u.op});
  }
  out.depth = depth;
  out.ii = opts.software_pipeline ? ii : depth;

  // Issue rate & occupancy over the steady-state window.
  const int window = out.ii > 0 ? out.ii : 1;
  std::vector<bool> issued(static_cast<std::size_t>(window), false);
  for (std::size_t i = 0; i < g.ops.size(); ++i) {
    if (g.ops[i].cost.fpu_slots == 0 && !is_stream_op(g.ops[i].op)) continue;
    issued[static_cast<std::size_t>(placement.time[i] % window)] = true;
  }
  int busy = 0;
  for (bool b : issued) busy += b ? 1 : 0;
  out.issue_rate = static_cast<double>(busy) / static_cast<double>(window);
  out.fpu_occupancy = static_cast<double>(fpu_slot_cycles) /
                      static_cast<double>(opts.n_fpus * window);
  return out;
}

int straightline_cycles(const std::vector<Instr>& prog,
                        const ScheduleOptions& opts) {
  if (prog.empty()) return 0;
  KernelDef tmp;
  tmp.name = "straightline";
  tmp.body = prog;
  // Upper bound on register indices for validation-free scheduling.
  int max_reg = 0;
  for (const auto& in : prog) {
    max_reg = std::max({max_reg, in.dst + std::max(in.count, 1), in.a + std::max(in.count, 1),
                        in.b + 1, in.c + 1});
  }
  tmp.n_regs = max_reg + 1;
  // Streams: synthesize declarations covering referenced slots.
  int max_stream = -1;
  for (const auto& in : prog) max_stream = std::max(max_stream, in.stream);
  for (int s = 0; s <= max_stream; ++s) {
    tmp.streams.push_back({"s", StreamDir::kIn, 1, false});
  }
  ScheduleOptions o = opts;
  o.unroll = 1;
  o.software_pipeline = false;
  const Graph g = build_graph(tmp, 1);
  Placement p = try_schedule(g, o, 0);
  if (!p.ok) return 0;
  int depth = 0;
  for (std::size_t i = 0; i < g.ops.size(); ++i) {
    const UOp& u = g.ops[i];
    depth = std::max(depth, p.time[i] + std::max(u.cost.latency, u.cost.fpu_slots));
  }
  return depth;
}

std::string Schedule::ascii(int max_rows) const {
  const int rows = max_rows > 0 ? std::min(max_rows, ii) : ii;
  // Column per FPU; mark issue cycles with the op mnemonic and occupied
  // continuation cycles of iterative ops with '|'.
  constexpr int kColWidth = 7;
  int n_fpus = 0;
  for (const auto& op : ops) n_fpus = std::max(n_fpus, op.fpu + 1);
  n_fpus = std::max(n_fpus, 4);
  std::vector<std::vector<std::string>> grid(
      static_cast<std::size_t>(ii),
      std::vector<std::string>(static_cast<std::size_t>(n_fpus)));
  for (const auto& op : ops) {
    if (op.fpu < 0) continue;
    const OpCost c = op_cost(op.op);
    const int t0 = pipelined ? op.cycle % ii : op.cycle;
    if (t0 >= ii) continue;
    grid[static_cast<std::size_t>(t0)][static_cast<std::size_t>(op.fpu)] =
        opcode_name(op.op);
    for (int k = 1; k < c.fpu_slots; ++k) {
      const int t = pipelined ? (op.cycle + k) % ii : op.cycle + k;
      if (t < ii && grid[static_cast<std::size_t>(t)][static_cast<std::size_t>(op.fpu)].empty()) {
        grid[static_cast<std::size_t>(t)][static_cast<std::size_t>(op.fpu)] = "|";
      }
    }
  }
  std::ostringstream os;
  os << "cycle";
  for (int f = 0; f < n_fpus; ++f) {
    std::string h = "FPU" + std::to_string(f);
    os << " " << h << std::string(static_cast<std::size_t>(kColWidth) - h.size(), ' ');
  }
  os << "\n";
  for (int t = 0; t < rows; ++t) {
    std::string c = std::to_string(t);
    os << c << std::string(5 - std::min<std::size_t>(5, c.size()), ' ');
    for (int f = 0; f < n_fpus; ++f) {
      std::string cell = grid[static_cast<std::size_t>(t)][static_cast<std::size_t>(f)];
      if (cell.empty()) cell = ".";
      cell.resize(static_cast<std::size_t>(kColWidth), ' ');
      os << " " << cell;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace smd::kernel
