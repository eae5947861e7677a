#include "src/sim/controller.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/analysis/check_stream.h"
#include "src/obs/registry.h"
#include "src/sim/datapath.h"

namespace smd::sim {
namespace {

struct StreamState {
  std::int64_t declared_words = 0;
  int producer = -1;               // instr id, -1 = pre-initialized (none)
  std::vector<int> consumers;      // instr ids reading this stream
  int consumers_remaining = 0;
  bool allocated = false;
  bool freed = false;
};

enum class Phase { kWaiting, kRunning, kDone };

struct InstrState {
  Phase phase = Phase::kWaiting;
  std::vector<int> deps;           // instrs that must be kDone first
  std::vector<StreamId> produces;  // streams written
  std::vector<StreamId> consumes;  // streams read
  bool is_kernel = false;
  bool is_load = false;
  bool holds_sdr = false;
  int sdr_slot = -1;               // which SDR services the op (trace track)
  std::string label;               // trace label ("kernel foo", "load s3")
  mem::MemSystem::OpId mem_id = -1;
  std::uint64_t start = 0;
  std::uint64_t end = 0;  // kernels: known at start
};

/// Result of one issue attempt during an issue pass.
enum class IssueOutcome {
  kIssued,
  /// Ready and otherwise issuable, blocked *solely* on a free SDR. Only
  /// this outcome counts toward sdr_stall_cycles: an op that would also
  /// fail its SRF allocation is SRF-pressure stalled, not SDR-stalled.
  kSdrBlocked,
  kBlocked,
};

/// A run that makes no progress for this many cycles is declared
/// deadlocked (dependence cycle or SRF overcommit in the program).
constexpr std::uint64_t kDeadlockCycles = 50'000'000ULL;
constexpr std::uint64_t kNoEvent = ~0ULL;

/// One stream-program execution: all scoreboard state plus the two engine
/// drivers. run_stepped() is the reference busy-wait loop (one issue scan
/// and one MemSystem::tick per cycle); run_event() keeps a ready list
/// keyed on dependency retirement and advances `now_` in jumps to the
/// next interesting time. Both must produce bit-identical RunStats --
/// SimEngine::kLockstep and the lockstep ctest enforce it. Both only
/// model time: each issue hands the instruction to `data_`, whose helper
/// thread applies its data effects in issue order.
class RunContext {
 public:
  RunContext(const MachineConfig& cfg, mem::GlobalMemory* memory,
             const StreamProgram& program)
      : cfg_(cfg),
        program_(program),
        memsys_(cfg.mem, memory),
        data_(cfg, memory, program),
        srf_(cfg.srf_words),
        costs_(cfg.sched),
        n_(static_cast<int>(program.instrs.size())),
        st_(program.instrs.size()),
        streams_(program.stream_words.size()),
        sdr_in_use_(
            static_cast<std::size_t>(cfg.n_stream_descriptor_registers),
            false),
        free_sdrs_(cfg.n_stream_descriptor_registers) {
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      streams_[s].declared_words = program.stream_words[s];
    }
    build_dependence_graph();
    advance_next_alloc();
  }

  /// Run one engine to completion. A functional error wins over a timing
  /// failure (deadlock, unschedulable kernel) raised after its issue, as
  /// if every data effect happened at issue.
  RunStats run(bool event) {
    try {
      event ? run_event() : run_stepped();
    } catch (...) {
      data_.finish();
      throw;
    }
    stats_.interp = data_.finish();
    return finalize();
  }

 private:
  void run_stepped();
  void run_event();

  // ---- Dependence graph (stream reads/writes). ---------------------------
  void build_dependence_graph() {
    for (int i = 0; i < n_; ++i) {
      auto& is = st_[static_cast<std::size_t>(i)];
      const auto& instr = program_.instrs[static_cast<std::size_t>(i)];
      if (const auto* load = std::get_if<LoadOp>(&instr)) {
        is.is_load = true;
        is.produces.push_back(load->dst);
      } else if (const auto* store = std::get_if<StoreOp>(&instr)) {
        is.consumes.push_back(store->src);
      } else {
        const auto& k = std::get<KernelOp>(instr);
        is.is_kernel = true;
        if (k.bindings.size() != k.def->streams.size()) {
          throw std::runtime_error("kernel binding arity mismatch");
        }
        for (std::size_t s = 0; s < k.bindings.size(); ++s) {
          if (k.def->streams[s].dir == kernel::StreamDir::kIn) {
            is.consumes.push_back(k.bindings[s]);
          } else {
            is.produces.push_back(k.bindings[s]);
          }
        }
      }
      for (StreamId s : is.consumes) {
        auto& ss = streams_[static_cast<std::size_t>(s)];
        if (ss.producer >= 0) is.deps.push_back(ss.producer);
        ss.consumers.push_back(i);
        ++ss.consumers_remaining;
      }
      for (StreamId s : is.produces) {
        auto& ss = streams_[static_cast<std::size_t>(s)];
        // WAW on the prior producer and WAR on its readers so far.
        if (ss.producer >= 0) {
          is.deps.push_back(ss.producer);
          for (int c : ss.consumers) is.deps.push_back(c);
        }
        ss.producer = i;
      }
    }
  }

  bool deps_done(int i) const {
    for (int d : st_[static_cast<std::size_t>(i)].deps) {
      if (st_[static_cast<std::size_t>(d)].phase != Phase::kDone) return false;
    }
    return true;
  }

  // ---- SDR slots. --------------------------------------------------------
  // SDRs are tracked as individual slots (not just a count) so each memory
  // op's trace interval lands on a stable per-SDR track in the timeline.
  int acquire_sdr() {
    for (std::size_t s = 0; s < sdr_in_use_.size(); ++s) {
      if (!sdr_in_use_[s]) {
        sdr_in_use_[s] = true;
        --free_sdrs_;
        return static_cast<int>(s);
      }
    }
    return -1;
  }

  void release_sdr(int slot) {
    sdr_in_use_[static_cast<std::size_t>(slot)] = false;
    ++free_sdrs_;
  }

  // ---- SRF allocation. ---------------------------------------------------
  // SRF buffers are allocated strictly in program order (the compile-time
  // stream-scheduling discipline): otherwise a later strip's loads can
  // grab the space an earlier strip's kernel outputs need and deadlock the
  // scoreboard. `next_alloc_` is the first instruction whose produced
  // streams are not yet allocated.
  void advance_next_alloc() {
    while (next_alloc_ < n_) {
      bool pending = false;
      for (StreamId s : st_[static_cast<std::size_t>(next_alloc_)].produces) {
        if (!streams_[static_cast<std::size_t>(s)].allocated) pending = true;
      }
      if (pending) break;
      ++next_alloc_;
    }
  }

  std::int64_t alloc_need(int i) const {
    std::int64_t need = 0;
    for (StreamId s : st_[static_cast<std::size_t>(i)].produces) {
      if (!streams_[static_cast<std::size_t>(s)].allocated) {
        need += streams_[static_cast<std::size_t>(s)].declared_words;
      }
    }
    return need;
  }

  /// Reserve SRF space for every stream this instr produces (idempotent).
  bool alloc_outputs(int i) {
    const std::int64_t need = alloc_need(i);
    if (need == 0) return true;
    if (i != next_alloc_) return false;  // in-order allocation only
    if (!srf_.try_alloc(need)) return false;
    for (StreamId s : st_[static_cast<std::size_t>(i)].produces) {
      streams_[static_cast<std::size_t>(s)].allocated = true;
    }
    advance_next_alloc();
    return true;
  }

  /// Side-effect-free twin of alloc_outputs: would the reservation succeed?
  bool can_alloc_outputs(int i) const {
    const std::int64_t need = alloc_need(i);
    if (need == 0) return true;
    if (i != next_alloc_) return false;
    return srf_.fits(need);
  }

  void maybe_free_stream(StreamId s) {
    auto& ss = streams_[static_cast<std::size_t>(s)];
    if (ss.freed || !ss.allocated) return;
    const bool producer_done =
        ss.producer < 0 ||
        st_[static_cast<std::size_t>(ss.producer)].phase == Phase::kDone;
    if (producer_done && ss.consumers_remaining == 0) {
      srf_.free(ss.declared_words);
      ss.freed = true;
    }
  }

  // Conservative SDR policy: a load's SDR is released only when every
  // consumer of the loaded stream has retired.
  bool conservative_release_ready(int i) const {
    for (StreamId s : st_[static_cast<std::size_t>(i)].produces) {
      if (streams_[static_cast<std::size_t>(s)].consumers_remaining > 0) {
        return false;
      }
    }
    return true;
  }

  // ---- Retirement. -------------------------------------------------------
  void on_retire(int i) {
    auto& is = st_[static_cast<std::size_t>(i)];
    is.phase = Phase::kDone;
    --remaining_;
    last_progress_ = now_;
    for (StreamId s : is.consumes) {
      --streams_[static_cast<std::size_t>(s)].consumers_remaining;
      maybe_free_stream(s);
    }
    for (StreamId s : is.produces) maybe_free_stream(s);
    // Conservative SDRs may now be releasable.
    for (auto it = sdr_parked_.begin(); it != sdr_parked_.end();) {
      auto& parked = st_[static_cast<std::size_t>(*it)];
      if (conservative_release_ready(*it)) {
        release_sdr(parked.sdr_slot);
        parked.holds_sdr = false;
        it = sdr_parked_.erase(it);
      } else {
        ++it;
      }
    }
    if (event_mode_) {
      for (int s : succ_[static_cast<std::size_t>(i)]) {
        if (--indegree_[static_cast<std::size_t>(s)] == 0) {
          ready_.insert(std::lower_bound(ready_.begin(), ready_.end(), s), s);
        }
      }
    }
  }

  void retire_kernel() {
    auto& is = st_[static_cast<std::size_t>(running_kernel_)];
    stats_.timeline.add(Lane::kKernel, is.start, is.end, is.label);
    stats_.kernel_busy_cycles += is.end - is.start;
    clusters_busy_ = false;
    const int finished = running_kernel_;
    running_kernel_ = -1;
    on_retire(finished);
  }

  void retire_memop(int i) {
    auto& is = st_[static_cast<std::size_t>(i)];
    is.end = now_;
    stats_.timeline.add(Lane::kMemory, is.start, is.end, is.label,
                        is.sdr_slot);
    if (is.holds_sdr) {
      const bool conservative =
          cfg_.sdr_policy == SdrPolicy::kConservative && is.is_load;
      if (conservative && !conservative_release_ready(i)) {
        sdr_parked_.push_back(i);
      } else {
        release_sdr(is.sdr_slot);
        is.holds_sdr = false;
      }
    }
    on_retire(i);
  }

  // ---- Issue. ------------------------------------------------------------
  // The data effects are handed over first, so an instruction whose data
  // fails reports that failure even if its timing fails too.
  void start_kernel(int i) {
    const auto& k =
        std::get<KernelOp>(program_.instrs[static_cast<std::size_t>(i)]);
    auto& is = st_[static_cast<std::size_t>(i)];
    data_.issue(i);

    const KernelCost& cost = costs_.get(*k.def);
    const std::uint64_t cycles =
        static_cast<std::uint64_t>(cfg_.kernel_startup_cycles) +
        cost.cycles_for(k.rounds);
    is.label = "kernel " + k.def->name;
    is.start = now_;
    is.end = now_ + cycles;
    is.phase = Phase::kRunning;
    running_kernel_ = i;
    clusters_busy_ = true;
    ++stats_.n_kernel_launches;
  }

  void start_memop(int i) {
    auto& is = st_[static_cast<std::size_t>(i)];
    const auto& instr = program_.instrs[static_cast<std::size_t>(i)];
    data_.issue(i);
    is.sdr_slot = acquire_sdr();
    is.holds_sdr = true;
    is.start = now_;
    is.phase = Phase::kRunning;
    ++stats_.n_memory_ops;
    // The program outlives the run, so the memory system walks each
    // descriptor's index vector in place.
    if (const auto* load = std::get_if<LoadOp>(&instr)) {
      is.label = std::string(mem::mem_op_verb(load->desc.kind)) + " s" +
                 std::to_string(load->dst);
      is.mem_id = memsys_.enqueue(load->desc);
    } else {
      const auto& store = std::get<StoreOp>(instr);
      is.label = std::string(mem::mem_op_verb(store.desc.kind)) + " s" +
                 std::to_string(store.src);
      is.mem_id = memsys_.enqueue(store.desc);
    }
    if (event_mode_) {
      running_memops_.insert(
          std::lower_bound(running_memops_.begin(), running_memops_.end(), i),
          i);
    }
  }

  /// One issue attempt for a waiting instr whose dependences have retired.
  IssueOutcome try_issue(int i) {
    auto& is = st_[static_cast<std::size_t>(i)];
    if (is.is_kernel) {
      if (clusters_busy_) return IssueOutcome::kBlocked;
      if (!alloc_outputs(i)) return IssueOutcome::kBlocked;
      start_kernel(i);
      return IssueOutcome::kIssued;
    }
    if (free_sdrs_ <= 0) {
      return (!is.is_load || can_alloc_outputs(i)) ? IssueOutcome::kSdrBlocked
                                                   : IssueOutcome::kBlocked;
    }
    if (is.is_load && !alloc_outputs(i)) return IssueOutcome::kBlocked;
    start_memop(i);
    return IssueOutcome::kIssued;
  }

  // ---- SDR-stall bookkeeping. --------------------------------------------
  // Stall runs become Lane::kStall intervals so the profiler can intersect
  // them with lane occupancy; the closed-run invariant is
  // busy_cycles(kStall) == sdr_stall_cycles.
  void update_stall_run(bool starved) {
    if (starved) {
      if (!stall_open_) {
        stall_open_ = true;
        stall_start_ = now_;
      }
    } else if (stall_open_) {
      stats_.timeline.add(Lane::kStall, stall_start_, now_, "sdr-stall");
      stall_open_ = false;
    }
  }

  [[noreturn]] void throw_deadlock() const {
    throw std::runtime_error("stream controller deadlock: " +
                             std::to_string(remaining_) + " instrs stuck");
  }

  RunStats finalize() {
    if (stall_open_) {
      stats_.timeline.add(Lane::kStall, stall_start_, now_, "sdr-stall");
    }
    stats_.cycles = now_;
    stats_.mem_stats = memsys_.stats();
    stats_.cache_stats = memsys_.cache_stats();
    stats_.dram_stats = memsys_.dram_stats();
    stats_.scatter_add_stats = memsys_.scatter_add_stats();
    stats_.mem_words =
        stats_.mem_stats.words_loaded + stats_.mem_stats.words_stored;
    stats_.mem_busy_cycles = stats_.mem_stats.busy_cycles;
    stats_.overlap_cycles = stats_.timeline.overlap_cycles(now_);
    stats_.srf_peak_words = srf_.peak();
    return std::move(stats_);
  }

  const MachineConfig& cfg_;
  const StreamProgram& program_;
  mem::MemSystem memsys_;
  DataPath data_;
  SrfAllocator srf_;
  KernelCostCache costs_;
  RunStats stats_;

  const int n_;
  std::vector<InstrState> st_;
  std::vector<StreamState> streams_;
  std::vector<bool> sdr_in_use_;
  int free_sdrs_;
  bool clusters_busy_ = false;
  int running_kernel_ = -1;
  int remaining_ = 0;
  std::uint64_t now_ = 0;
  std::uint64_t last_progress_ = 0;
  int next_alloc_ = 0;
  std::vector<int> sdr_parked_;  // loads whose SDR awaits consumer retirement
  bool stall_open_ = false;
  std::uint64_t stall_start_ = 0;

  // Event-engine state: reverse dependence edges, unfinished-dependence
  // counts, the sorted ready list, and the in-flight memory ops.
  bool event_mode_ = false;
  std::vector<std::vector<int>> succ_;
  std::vector<int> indegree_;
  std::vector<int> ready_;
  std::vector<int> running_memops_;
};

// ---- Cycle-stepped reference engine. --------------------------------------
void RunContext::run_stepped() {
  remaining_ = n_;
  while (remaining_ > 0) {
    // Issue everything that is ready this cycle.
    bool starved = false;
    for (int i = 0; i < n_; ++i) {
      if (st_[static_cast<std::size_t>(i)].phase != Phase::kWaiting ||
          !deps_done(i)) {
        continue;
      }
      if (try_issue(i) == IssueOutcome::kSdrBlocked) starved = true;
    }
    if (starved) ++stats_.sdr_stall_cycles;
    update_stall_run(starved);

    memsys_.tick();
    ++now_;

    // Retire finished work.
    if (running_kernel_ >= 0 &&
        st_[static_cast<std::size_t>(running_kernel_)].end <= now_) {
      retire_kernel();
    }
    for (int i = 0; i < n_; ++i) {
      auto& is = st_[static_cast<std::size_t>(i)];
      if (is.phase != Phase::kRunning || is.is_kernel) continue;
      if (!memsys_.op_done(is.mem_id)) continue;
      retire_memop(i);
    }

    if (now_ - last_progress_ > kDeadlockCycles) throw_deadlock();
  }
}

// ---- Event-driven engine. -------------------------------------------------
//
// Between two retirement events no issue condition can change: dependences
// retire, SDRs free, SRF space frees and the cluster array idles only in
// on_retire. So one issue pass per retirement (over the ready list, in
// instruction order -- the same forward scan the stepped engine makes)
// reproduces the stepped engine's decisions exactly, and `now_` can jump
// straight to the next time anything can retire: the running kernel's end
// (known at launch) or a memory op's finish time. A finish time becomes
// known only when the op completes inside the memory system, so the jump
// is handed to MemSystem::tick_until, which runs through busy stretches on
// its own and returns early at the first completion; op_done cannot flip
// before the finish time it then reports.
void RunContext::run_event() {
  remaining_ = n_;
  event_mode_ = true;
  succ_.assign(static_cast<std::size_t>(n_), {});
  indegree_.assign(static_cast<std::size_t>(n_), 0);
  for (int i = 0; i < n_; ++i) {
    const auto& deps = st_[static_cast<std::size_t>(i)].deps;
    indegree_[static_cast<std::size_t>(i)] = static_cast<int>(deps.size());
    for (int d : deps) succ_[static_cast<std::size_t>(d)].push_back(i);
    if (deps.empty()) ready_.push_back(i);
  }

  // Issuing never touches ready_ (only on_retire does), so the unissued
  // instrs are compacted in place.
  auto issue_pass = [&] {
    bool starved = false;
    std::size_t kept = 0;
    for (const int i : ready_) {
      const IssueOutcome out = try_issue(i);
      if (out == IssueOutcome::kIssued) continue;
      if (out == IssueOutcome::kSdrBlocked) starved = true;
      ready_[kept++] = i;
    }
    ready_.resize(kept);
    return starved;
  };

  bool starved = false;
  if (remaining_ > 0) {
    starved = issue_pass();
    update_stall_run(starved);
  }
  while (remaining_ > 0) {
    // Next time anything can retire.
    std::uint64_t next = kNoEvent;
    if (running_kernel_ >= 0) {
      const std::uint64_t end =
          st_[static_cast<std::size_t>(running_kernel_)].end;
      next = std::min(next, std::max(end, now_ + 1));
    }
    for (int i : running_memops_) {
      const auto id = st_[static_cast<std::size_t>(i)].mem_id;
      if (memsys_.op_completed(id)) {
        next = std::min(next, std::max(memsys_.op_finish_time(id), now_ + 1));
      }
    }
    // Deadlock fidelity: the stepped engine checks progress *after* its
    // retire phase, so a retirement landing exactly at last_progress +
    // kDeadlockCycles + 1 still counts. Clamp the jump there; if nothing
    // retires at the clamp point the post-retire check below throws, at
    // the same simulated cycle the stepped engine would.
    next = std::min(next, last_progress_ + kDeadlockCycles + 1);

    // Every cycle in [now_, reached) is an issue-phase cycle with the same
    // (starved) verdict the last pass computed.
    const std::uint64_t reached = memsys_.tick_until(next);
    if (starved) stats_.sdr_stall_cycles += reached - now_;
    now_ = reached;

    bool retired = false;
    if (running_kernel_ >= 0 &&
        st_[static_cast<std::size_t>(running_kernel_)].end <= now_) {
      retire_kernel();
      retired = true;
    }
    // Retiring never touches running_memops_ (only issuing does).
    std::size_t kept = 0;
    for (const int i : running_memops_) {
      if (memsys_.op_done(st_[static_cast<std::size_t>(i)].mem_id)) {
        retire_memop(i);
        retired = true;
      } else {
        running_memops_[kept++] = i;
      }
    }
    running_memops_.resize(kept);
    if (now_ - last_progress_ > kDeadlockCycles) throw_deadlock();
    if (retired && remaining_ > 0) {
      starved = issue_pass();
      update_stall_run(starved);
    }
  }
}

void record_run_counters(const RunStats& stats, std::int64_t srf_peak) {
  auto& reg = obs::CounterRegistry::global();
  reg.add("sim.runs");
  reg.add("sim.cycles", static_cast<std::int64_t>(stats.cycles));
  reg.add("sim.kernel_launches", stats.n_kernel_launches);
  reg.add("sim.memory_ops", stats.n_memory_ops);
  reg.add("sim.kernel_busy_cycles",
          static_cast<std::int64_t>(stats.kernel_busy_cycles));
  reg.add("sim.mem_busy_cycles",
          static_cast<std::int64_t>(stats.mem_busy_cycles));
  reg.add("sim.overlap_cycles",
          static_cast<std::int64_t>(stats.overlap_cycles));
  reg.add("sim.sdr_stall_cycles",
          static_cast<std::int64_t>(stats.sdr_stall_cycles));
  reg.set_gauge("sim.srf_peak_words", static_cast<double>(srf_peak));
}

}  // namespace

obs::Json to_json(const RunStats& s) {
  obs::Json timeline = obs::Json::object();
  timeline.set("n_intervals",
               static_cast<std::int64_t>(s.timeline.intervals().size()))
      .set("kernel_busy_cycles", s.timeline.busy_cycles(Lane::kKernel, s.cycles))
      .set("mem_busy_cycles", s.timeline.busy_cycles(Lane::kMemory, s.cycles))
      .set("overlap_cycles", s.timeline.overlap_cycles(s.cycles));
  obs::Json j = obs::Json::object();
  j.set("cycles", s.cycles)
      .set("kernel_busy_cycles", s.kernel_busy_cycles)
      .set("mem_busy_cycles", s.mem_busy_cycles)
      .set("overlap_cycles", s.overlap_cycles)
      .set("kernel_occupancy",
           s.cycles ? static_cast<double>(s.kernel_busy_cycles) /
                          static_cast<double>(s.cycles)
                    : 0.0)
      .set("mem_hidden_fraction",
           s.mem_busy_cycles ? static_cast<double>(s.overlap_cycles) /
                                   static_cast<double>(s.mem_busy_cycles)
                             : 0.0)
      .set("mem_words", s.mem_words)
      .set("srf_peak_words", s.srf_peak_words)
      .set("n_kernel_launches", s.n_kernel_launches)
      .set("n_memory_ops", s.n_memory_ops)
      .set("sdr_stall_cycles", s.sdr_stall_cycles)
      .set("interp", to_json(s.interp))
      .set("mem", to_json(s.mem_stats))
      .set("cache", to_json(s.cache_stats))
      .set("dram", to_json(s.dram_stats))
      .set("scatter_add", to_json(s.scatter_add_stats))
      .set("timeline", std::move(timeline));
  return j;
}

obs::Json gated_json(const RunStats& s) {
  obs::Json intervals = obs::Json::array();
  for (const Interval& iv : s.timeline.intervals()) {
    intervals.push_back(to_json(iv));
  }
  obs::Json j = to_json(s);
  obs::Json timeline = j.at("timeline");
  timeline.set("intervals", std::move(intervals));
  j.set("timeline", std::move(timeline));
  return j;
}

std::string diff_run_stats(const RunStats& a, const RunStats& b) {
  return obs::diff(gated_json(a), gated_json(b));
}

Controller::Controller(const MachineConfig& cfg, mem::GlobalMemory* memory)
    : cfg_(cfg), memory_(memory) {}

RunStats Controller::run(const StreamProgram& program) {
  obs::ScopedTimer run_timer(obs::CounterRegistry::global(),
                             "sim.controller_run");
  // Machine-config pre-flight: reject nonsense overrides (non-positive
  // clusters/bandwidth, SRF below double-buffering needs) with structured
  // diagnostics before they fail deep inside the memory model.
  {
    analysis::Diagnostics diags = cfg_.validate();
    diags.count_into_registry("sim.machine");
    if (diags.errors() > 0) throw analysis::CheckFailure(std::move(diags));
  }
  // Static pre-flight: slot lifetimes, capacities, address ranges and
  // concurrent-update races, fatal on error (warnings are counted into the
  // obs registry under analysis.stream).
  {
    analysis::StreamCheckOptions check;
    check.n_clusters = cfg_.n_clusters;
    check.srf_words = cfg_.srf_words;
    check.memory_words = memory_ != nullptr ? memory_->size() : 0;
    analysis::require_valid_stream_program(program, check);
  }

  RunStats stats;
  switch (cfg_.engine) {
    case SimEngine::kStepped: {
      RunContext ctx(cfg_, memory_, program);
      stats = ctx.run(false);
      break;
    }
    case SimEngine::kEvent: {
      RunContext ctx(cfg_, memory_, program);
      stats = ctx.run(true);
      break;
    }
    case SimEngine::kLockstep: {
      // Run the stepped reference against a snapshot of memory (counters
      // diverted to a scratch registry so observability sees one run),
      // then the event engine against the real image, and require the
      // results to agree bit for bit.
      mem::GlobalMemory shadow = *memory_;
      RunStats stepped;
      {
        obs::CounterRegistry scratch;
        obs::ScopedRegistryRedirect redirect(scratch);
        RunContext ref(cfg_, &shadow, program);
        stepped = ref.run(false);
      }
      RunContext ctx(cfg_, memory_, program);
      stats = ctx.run(true);
      std::string diff = diff_run_stats(stepped, stats);
      if (diff.empty()) diff = mem::diff_memory(shadow, *memory_);
      if (!diff.empty()) {
        throw std::runtime_error(
            "lockstep divergence (stepped vs event): " + diff);
      }
      break;
    }
  }

  record_run_counters(stats, stats.srf_peak_words);
  return stats;
}

}  // namespace smd::sim
