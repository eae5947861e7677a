#include "src/svc/server.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/analysis/diag.h"

namespace smd::svc {
namespace {

/// A slot no longer wants its result: cancelled, or past its deadline.
bool slot_dead(const RequestSlot& slot, std::int64_t now_ns) {
  return slot.cancel_requested.load(std::memory_order_relaxed) ||
         now_ns > slot.deadline_ns;
}

/// Whether a timeout of `timeout_ms` from `t_ns` ends within int64
/// nanoseconds.
bool deadline_fits(std::int64_t t_ns, std::int64_t timeout_ms) {
  return timeout_ms <=
         (std::numeric_limits<std::int64_t>::max() - t_ns) / 1'000'000;
}

}  // namespace

// ---- ProblemPool ----------------------------------------------------------

ProblemPool& ProblemPool::shared() {
  static ProblemPool pool;
  return pool;
}

std::shared_ptr<const core::Problem> ProblemPool::get(int n_molecules) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = pool_.find(n_molecules);
  if (it != pool_.end()) return it->second;
  core::ExperimentSetup setup;
  setup.n_molecules = n_molecules;
  auto problem = std::make_shared<const core::Problem>(core::Problem::make(setup));
  pool_.emplace(n_molecules, problem);
  return problem;
}

// ---- JobHandle ------------------------------------------------------------

bool JobHandle::done() const {
  const std::lock_guard<std::mutex> lock(slot_->mu);
  return slot_->done;
}

const Response& JobHandle::wait() const {
  std::unique_lock<std::mutex> lock(slot_->mu);
  slot_->cv.wait(lock, [&] { return slot_->done; });
  return slot_->resp;
}

// ---- Server ---------------------------------------------------------------

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      reg_(obs::CounterRegistry::global()),
      queue_(opts_.queue_cap),
      cache_(opts_.cache_path, opts_.salt) {
  if (opts_.workers < 1) {
    throw std::invalid_argument("svc: workers must be >= 1 (got " +
                                std::to_string(opts_.workers) + ")");
  }
  if (opts_.queue_cap < 1) {
    throw std::invalid_argument("svc: queue capacity must be >= 1");
  }
  cache_.load();  // tolerant: a corrupt file loads as empty, never throws
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(); }

std::shared_ptr<RequestSlot> Server::open_slot(Request& req,
                                               ProgressFn progress) {
  auto slot = std::make_shared<RequestSlot>();
  slot->t_submit_ns = obs::monotonic_ns();  // boundary b0
  slot->ctx = span_log_.make_root();
  slot->deadline_ns =
      req.timeout_ms > 0 && deadline_fits(slot->t_submit_ns, req.timeout_ms)
          ? slot->t_submit_ns + req.timeout_ms * 1'000'000
          : std::numeric_limits<std::int64_t>::max();
  slot->progress = std::move(progress);
  if (req.id.empty()) {
    req.id = "job-" + std::to_string(next_id_.fetch_add(1));
  }
  slot->id = req.id;
  reg_.add("svc.jobs.submitted");
  return slot;
}

JobHandle Server::reject_malformed(std::string id, std::string message) {
  Request req;
  req.id = std::move(id);
  return reject(open_slot(req, nullptr), ErrorCode::kBadRequest,
                std::move(message));
}

JobHandle Server::submit(Request req, ProgressFn progress) {
  const auto slot = open_slot(req, std::move(progress));

  // Structured rejections, cheapest first; none of these consume a worker.
  if (req.timeout_ms > 0 && !deadline_fits(slot->t_submit_ns, req.timeout_ms)) {
    return reject(slot, ErrorCode::kBadRequest,
                  "timeout_ms " + std::to_string(req.timeout_ms) +
                      " puts the deadline past the int64 nanosecond clock");
  }
  if (req.n_molecules <= 0) {
    return reject(slot, ErrorCode::kBadRequest, "n_molecules must be positive");
  }
  if (req.n_molecules > opts_.max_molecules) {
    return reject(slot, ErrorCode::kBudgetExceeded,
                  "n_molecules " + std::to_string(req.n_molecules) +
                      " over the per-request budget of " +
                      std::to_string(opts_.max_molecules));
  }
  // machine() applies tune::check_candidate; validate() the physical limits.
  try {
    const analysis::Diagnostics diags = req.config.machine().validate();
    if (diags.errors() > 0) {
      return reject(slot, ErrorCode::kBadRequest,
                    "invalid machine config: " + diags.format());
    }
  } catch (const std::invalid_argument& e) {
    return reject(slot, ErrorCode::kBadRequest, e.what());
  }

  slot->hash = request_hash(req.config, req.n_molecules, opts_.salt);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) {
      lock.unlock();
      return reject(slot, ErrorCode::kShutdown, "server is shutting down");
    }
    // Boundary b1, stamped under mu_: any job that can see this slot at
    // delivery was joined (or created) below while we still hold the
    // lock, so its delivery timestamp is provably later than t_admit_ns.
    slot->t_admit_ns = obs::monotonic_ns();
    auto it = inflight_.find(slot->hash);
    if (it != inflight_.end()) {
      // In-flight dedup: ride the existing job. Never rejected for queue
      // space -- the work is already scheduled.
      it->second->slots.push_back(slot);
      by_id_.emplace(slot->id, slot);
      ++outstanding_;
      reg_.add("svc.jobs.deduped");
    } else {
      auto job = std::make_shared<InflightJob>();
      job->hash = slot->hash;
      job->config = req.config;
      job->n_molecules = req.n_molecules;
      job->priority = req.priority;
      slot->leader = true;
      job->slots.push_back(slot);
      if (!queue_.push(req.priority, job)) {
        lock.unlock();
        return reject(slot, ErrorCode::kQueueFull,
                      "job queue at capacity (" +
                          std::to_string(queue_.capacity()) + ")");
      }
      inflight_.emplace(slot->hash, std::move(job));
      by_id_.emplace(slot->id, slot);
      ++outstanding_;
      reg_.set_gauge("svc.queue.depth", static_cast<double>(queue_.depth()));
      reg_.set_gauge("svc.queue.peak_depth",
                     static_cast<double>(queue_.peak_depth()));
    }
  }
  notify(slot, JobPhase::kQueued);
  return JobHandle(slot);
}

JobHandle Server::reject(const std::shared_ptr<RequestSlot>& slot,
                         ErrorCode code, std::string message) {
  // The admission phase ends at the rejection decision; the four
  // execution boundaries collapse onto it, so a rejection's span tree
  // has the same six-phase shape with zero-width middle phases.
  if (slot->t_admit_ns == 0) slot->t_admit_ns = obs::monotonic_ns();
  JobBounds bounds;
  bounds.exec_ns = slot->t_admit_ns;
  bounds.dedup_ns = slot->t_admit_ns;
  bounds.simulate_ns = slot->t_admit_ns;
  bounds.serialize_ns = slot->t_admit_ns;
  JobOutcome outcome;
  outcome.error = code;
  outcome.message = std::move(message);
  deliver({slot}, slot->hash, bounds, outcome, /*tracked=*/false);
  return JobHandle(slot);
}

std::size_t Server::cancel(const std::string& id) {
  std::vector<std::shared_ptr<RequestSlot>> targets;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto [begin, end] = by_id_.equal_range(id);
    for (auto it = begin; it != end; ++it) targets.push_back(it->second);
  }
  std::size_t newly = 0;
  for (const auto& slot : targets) {
    if (!slot->cancel_requested.exchange(true)) ++newly;
  }
  return newly;
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

void Server::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  queue_.close();  // queued jobs still drain; pops return null when empty
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (cache_.enabled() && cache_.dirty()) cache_.save();
}

void Server::worker_loop() {
  while (std::shared_ptr<InflightJob> job = queue_.pop()) {
    reg_.set_gauge("svc.queue.depth", static_cast<double>(queue_.depth()));
    execute(job);
  }
}

void Server::execute(const std::shared_ptr<InflightJob>& job) {
  const std::int64_t exec_ns = obs::monotonic_ns();  // boundary b2

  // Cooperative cancellation, checkpoint 1: if nobody attached to this
  // job still wants the result, retire it without touching the simulator.
  // Taking the slots and erasing the in-flight entry is atomic under mu_,
  // so a duplicate submitted after this point starts a fresh job.
  std::vector<std::shared_ptr<RequestSlot>> live;
  bool retired = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    bool any_live = false;
    for (const auto& s : job->slots) {
      if (!slot_dead(*s, exec_ns)) {
        any_live = true;
        break;
      }
    }
    if (!any_live) {
      live = std::move(job->slots);
      inflight_.erase(job->hash);
      retired = true;
    } else {
      live = job->slots;  // snapshot for progress notifications
    }
  }
  if (retired) {
    // Everyone bailed: zero-width execution phases, per-slot verdicts
    // (cancelled vs deadline) decided in deliver().
    JobBounds bounds;
    bounds.exec_ns = exec_ns;
    bounds.dedup_ns = exec_ns;
    bounds.simulate_ns = exec_ns;
    bounds.serialize_ns = exec_ns;
    JobOutcome outcome;
    outcome.pre_execution = true;
    deliver(live, job->hash, bounds, outcome, /*tracked=*/true);
    return;
  }
  for (const auto& s : live) notify(s, JobPhase::kStarted);

  JobOutcome outcome;
  JobBounds bounds;
  bounds.exec_ns = exec_ns;

  // ---- Phase: dedup decision + cache lookup (in-memory memo, then the
  // persistent layer).
  bool have_result = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto mit = memo_.find(job->hash);
    if (mit != memo_.end()) {
      outcome.metrics = mit->second.metrics;
      outcome.payload = mit->second.payload;
      have_result = true;
    } else if (cache_.enabled() && cache_.lookup(job->hash, &outcome.metrics)) {
      have_result = true;  // payload rendered in the serialize phase
    }
  }
  outcome.served_by = have_result ? "cache" : "sim";
  bounds.dedup_ns = obs::monotonic_ns();  // boundary b3

  // ---- Phase: simulate (problem build + cycle-accurate run).
  if (!have_result) {
    try {
      const std::shared_ptr<const core::Problem> problem =
          ProblemPool::shared().get(job->n_molecules);
      // Cooperative cancellation, checkpoint 2: between the expensive
      // phases. The problem is pooled (useful to later requests) but the
      // simulation can still be skipped.
      bool any_live = false;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        const std::int64_t now_ns = obs::monotonic_ns();
        for (const auto& s : job->slots) {
          if (!slot_dead(*s, now_ns)) {
            any_live = true;
            break;
          }
        }
      }
      if (any_live) {
        outcome.metrics = tune::evaluate(*problem, job->config, opts_.engine,
                                         opts_.kernel_backend);
        reg_.add("svc.jobs.simulated");
      } else {
        outcome.error = ErrorCode::kCancelled;
        outcome.message = "every requester cancelled mid-execution";
      }
    } catch (const std::exception& e) {
      outcome.error = ErrorCode::kInternal;
      outcome.message = e.what();
      reg_.add("svc.jobs.internal_errors");
    }
  }
  bounds.simulate_ns = obs::monotonic_ns();  // boundary b4

  // ---- Phase: serialize the deterministic payload, once per job.
  if (outcome.error == ErrorCode::kOk && outcome.payload.empty()) {
    outcome.payload = payload_text(job->hash, job->config, job->n_molecules,
                                   outcome.metrics);
  }
  bounds.serialize_ns = obs::monotonic_ns();  // boundary b5

  // Publish into the memo and (for fresh simulations) the persistent layer.
  if (outcome.error == ErrorCode::kOk) {
    const std::lock_guard<std::mutex> lock(mu_);
    memo_.emplace(job->hash, CachedResult{outcome.metrics, outcome.payload});
    if (!have_result && cache_.enabled()) {
      cache_.insert(job->hash, job->config, outcome.metrics);
    }
  }

  // Detach the slots (erasing the in-flight entry) and deliver.
  std::vector<std::shared_ptr<RequestSlot>> slots;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    slots = std::move(job->slots);
    inflight_.erase(job->hash);
  }
  deliver(slots, job->hash, bounds, outcome, /*tracked=*/true);
}

void Server::deliver(const std::vector<std::shared_ptr<RequestSlot>>& slots,
                     std::uint64_t hash, const JobBounds& bounds,
                     const JobOutcome& outcome, bool tracked) {
  const std::int64_t end_ns = obs::monotonic_ns();  // boundary b6
  if (outcome.error == ErrorCode::kOk && outcome.served_by == "cache") {
    reg_.add("svc.jobs.cache_hit");
  }
  for (const auto& s : slots) {
    // The clamped boundary chain: each boundary is at least the previous
    // one, so consecutive differences are nonnegative and telescope --
    // sum(phases) == b6 - b0 == total_ns, exactly, by construction.
    std::array<std::int64_t, 7> b;
    b[0] = s->t_submit_ns;
    b[1] = std::max(b[0], s->t_admit_ns);
    b[2] = std::max(b[1], bounds.exec_ns);
    b[3] = std::max(b[2], bounds.dedup_ns);
    b[4] = std::max(b[3], bounds.simulate_ns);
    b[5] = std::max(b[4], bounds.serialize_ns);
    b[6] = std::max(b[5], end_ns);

    Response r;
    r.id = s->id;
    r.config_hash = hash;
    r.trace_id = s->ctx.trace_id;
    if (s->cancel_requested.load()) {
      r.error = ErrorCode::kCancelled;
      r.message = outcome.pre_execution ? "cancelled before execution"
                                        : "cancelled";
    } else if (b[6] > s->deadline_ns) {
      r.error = ErrorCode::kDeadlineExceeded;
      r.message = outcome.pre_execution ? "deadline passed before execution"
                                        : "deadline exceeded";
    } else if (outcome.error != ErrorCode::kOk) {
      r.error = outcome.error;
      r.message = outcome.message;
    } else {
      r.metrics = outcome.metrics;
      r.payload = outcome.payload;
      r.served_by = s->leader ? outcome.served_by : "dedup";
    }
    r.admission_ns = b[1] - b[0];
    r.queue_ns = b[2] - b[1];
    r.lookup_ns = b[3] - b[2];
    r.simulate_ns = b[4] - b[3];
    r.serialize_ns = b[5] - b[4];
    r.complete_ns = b[6] - b[5];
    r.total_ns = b[6] - b[0];

    // Histograms describe served work: only successful responses count.
    if (r.error == ErrorCode::kOk) {
      hist_queue_.record(r.queue_ns);
      hist_execute_.record(r.lookup_ns + r.simulate_ns);
      hist_serialize_.record(r.serialize_ns);
      hist_total_.record(r.total_ns);
    }
    emit_spans(*s, b);
    fulfill(s, std::move(r), tracked);
  }
}

void Server::emit_spans(const RequestSlot& slot,
                        const std::array<std::int64_t, 7>& b) {
  if (!opts_.record_spans && opts_.event_log == nullptr) return;
  static constexpr const char* kPhaseNames[6] = {
      "admission", "queue", "dedup", "simulate", "serialize", "complete"};
  std::vector<obs::SpanRecord> recs;
  recs.reserve(7);
  obs::SpanRecord root;
  root.ctx = slot.ctx;
  root.name = "request";
  root.category = "svc";
  root.arg = slot.id;
  root.start_ns = b[0];
  root.end_ns = b[6];
  recs.push_back(std::move(root));
  for (int i = 0; i < 6; ++i) {
    obs::SpanRecord rec;
    rec.ctx = span_log_.make_child(slot.ctx);
    rec.name = kPhaseNames[i];
    rec.category = "svc.phase";
    rec.start_ns = b[i];
    rec.end_ns = b[i + 1];
    recs.push_back(std::move(rec));
  }
  for (obs::SpanRecord& rec : recs) {
    if (opts_.event_log != nullptr) {
      opts_.event_log->append(obs::span_json(rec));
    }
    if (opts_.record_spans) span_log_.record(std::move(rec));
  }
}

obs::Json Server::stats_json() const {
  obs::Json j = obs::Json::object();
  j.set("svc.latency.queue_wait", hist_queue_.to_json());
  j.set("svc.latency.execute", hist_execute_.to_json());
  j.set("svc.latency.serialize", hist_serialize_.to_json());
  j.set("svc.latency.total", hist_total_.to_json());
  return j;
}

void Server::fulfill(const std::shared_ptr<RequestSlot>& slot, Response resp,
                     bool tracked) {
  switch (resp.error) {
    case ErrorCode::kOk:
    case ErrorCode::kInternal:
      // An internal error still consumed the job's turn: the request was
      // processed to completion, just not successfully.
      reg_.add("svc.jobs.completed");
      break;
    case ErrorCode::kCancelled:
    case ErrorCode::kDeadlineExceeded:
      reg_.add("svc.jobs.cancelled");
      break;
    default:
      reg_.add("svc.jobs.rejected");
      break;
  }
  {
    const std::lock_guard<std::mutex> lock(slot->mu);
    slot->resp = std::move(resp);
    slot->done = true;
  }
  slot->cv.notify_all();
  if (tracked) {
    bool drained = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto [begin, end] = by_id_.equal_range(slot->id);
      for (auto it = begin; it != end; ++it) {
        if (it->second == slot) {
          by_id_.erase(it);
          break;
        }
      }
      drained = --outstanding_ == 0;
    }
    if (drained) drain_cv_.notify_all();
  }
  notify(slot, JobPhase::kDone);
}

void Server::notify(const std::shared_ptr<RequestSlot>& slot, JobPhase phase) {
  if (!slot->progress) return;
  Progress p;
  p.id = slot->id;
  p.config_hash = slot->hash;
  p.phase = phase;
  slot->progress(p);
}

}  // namespace smd::svc
