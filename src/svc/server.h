// Simulation-as-a-service: a long-running, in-process job server.
//
// Requests (tune::Candidate-shaped configs + experiment size) are
// scheduled on a bounded worker pool driving the existing cycle-accurate
// path through tune::evaluate. Two mechanisms keep duplicate work at zero:
//
//   1. *In-flight dedup*: a request whose config hash matches a queued or
//      running job attaches to it instead of resimulating -- one
//      simulation serves every attached requester.
//   2. *Result store*: one tune::ResultCache holds every result this
//      server has computed, by hash, so a later identical request is a
//      lookup. With a cache path it is loaded at startup and saved at
//      shutdown, so a warm start serves previously simulated configs with
//      zero simulations.
//
// Determinism invariant (DESIGN.md section 13, in the spirit of the
// engine-equivalence invariant of section 10): for any worker count and
// submission order, the response *payload* for a given config hash is
// byte-identical to a direct single-threaded tune::evaluate run -- dedup
// and the store are pure reorderings of who computes/reads a result,
// never of the result itself.
//
// Cancellation and deadlines are cooperative: checked when a worker picks
// a job up, between the expensive execution phases (problem build,
// simulation), and at result delivery. A cancelled request never blocks a
// duplicate requester: the simulation proceeds while any attached request
// still wants the result, and each request gets its own verdict.
//
// Telemetry (DESIGN.md section 15; names in svc/telemetry.h): counters
// svc.jobs.{submitted, completed, cancelled, rejected, deduped,
// cache_hit, simulated, internal_errors}, gauges svc.queue.depth /
// svc.queue.peak_depth, and latency histograms
// svc.latency.{queue_wait, execute, serialize, total}
// (obs::LatencyHistogram -- mergeable, quantile-bounded).
//
// Tracing: every request carries an obs::SpanContext from admission to
// delivery. Its phase timings come from one non-decreasing
// boundary-timestamp chain (submit -> admit -> exec -> dedup -> sim ->
// serialize -> deliver), so the six phase spans *partition* the request's
// end-to-end latency exactly -- sum(phases) == total_ns for every
// response, enforced by svc_test. With record_spans the span tree lands
// in spans() (exportable as nested Chrome slices); with an event_log
// each span is also one crash-safe JSONL line.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/run.h"
#include "src/obs/event_log.h"
#include "src/obs/latency_histogram.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/svc/queue.h"
#include "src/svc/wire.h"
#include "src/tune/cache.h"

namespace smd::svc {

struct ServerOptions {
  int workers = 2;            ///< worker threads; < 1 is a config error
  std::size_t queue_cap = 1024;
  /// Result-store file ("" = the store stays in memory). Loaded at
  /// construction (warm hit => zero simulations), saved at shutdown via
  /// an atomic temp-file + rename write.
  std::string cache_path;
  std::string salt = tune::kModelVersion;
  /// Per-request resource budget: the largest experiment a request may
  /// ask for (the simulator runs one force step, so molecules x steps
  /// reduces to molecules). Over-budget requests reject structurally.
  int max_molecules = 1 << 20;
  /// Keep every request's span tree in spans() (memory grows with
  /// request count; meant for traced runs, not unbounded serving).
  bool record_spans = false;
  /// When non-null (must outlive the server), every span is appended to
  /// this crash-safe JSONL log as it finishes.
  obs::EventLog* event_log = nullptr;
};

/// Streaming progress, delivered per request through the callback given
/// to submit(): queued -> started -> done (rejections jump to done).
enum class JobPhase { kQueued, kStarted, kDone };

struct Progress {
  std::string id;
  std::uint64_t config_hash = 0;
  JobPhase phase = JobPhase::kQueued;
};
using ProgressFn = std::function<void(const Progress&)>;

/// Internal per-request state; clients hold it through JobHandle.
struct RequestSlot {
  std::string id;
  std::uint64_t hash = 0;
  bool leader = false;  ///< first request of its job (it named the config)
  obs::SpanContext ctx;  ///< root span of this request's trace
  /// Boundary-chain prefix, obs::monotonic_ns() timestamps. t_admit_ns is
  /// stamped under the server mutex when the request is accepted (or at
  /// the rejection decision), so it is always set before delivery reads
  /// it.
  std::int64_t t_submit_ns = 0;
  std::int64_t t_admit_ns = 0;
  std::int64_t deadline_ns = 0;  ///< int64 max when none
  ProgressFn progress;
  std::atomic<bool> cancel_requested{false};

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool done = false;
  Response resp;
};

/// Future-like view of one submitted request.
class JobHandle {
 public:
  JobHandle() = default;
  bool valid() const { return slot_ != nullptr; }
  bool done() const;
  /// Block until the request finished (completed, cancelled or rejected).
  const Response& wait() const;
  const std::string& id() const { return slot_->id; }

 private:
  friend class Server;
  explicit JobHandle(std::shared_ptr<RequestSlot> slot)
      : slot_(std::move(slot)) {}
  std::shared_ptr<RequestSlot> slot_;
};

/// One unit of queued work: a unique config hash and every request
/// attached to it. slots is guarded by the owning Server's mutex.
struct InflightJob {
  std::uint64_t hash = 0;
  tune::Candidate config;
  int n_molecules = 0;
  int priority = 0;
  std::vector<std::shared_ptr<RequestSlot>> slots;
};

/// Process-wide cache of core::Problem by molecule count. Problem
/// construction (system + neighbor list + reference forces) is the
/// expensive deterministic prefix shared by every config at a given
/// size; building it once per size is what lets the load bench submit
/// thousands of requests without re-deriving the dataset each time.
/// tune::evaluate re-points the L/strip knobs per candidate itself.
class ProblemPool {
 public:
  static ProblemPool& shared();
  /// Get-or-build (blocking: concurrent requests for the same size wait
  /// for the single build instead of duplicating it).
  std::shared_ptr<const core::Problem> get(int n_molecules);

 private:
  std::mutex mu_;
  std::map<int, std::shared_ptr<const core::Problem>> pool_;
};

class Server {
 public:
  /// Spawns the worker pool. Throws std::invalid_argument on a
  /// non-positive worker count or queue capacity.
  explicit Server(ServerOptions opts);
  ~Server();  // shutdown()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submit one request. Always returns a handle: rejections (queue
  /// full, over budget, bad config -- tune::check_candidate or the
  /// machine validator --, shutting down) resolve it immediately with the
  /// structured error; accepted requests resolve when a worker (or a
  /// dedup/cache hit) finishes them.
  JobHandle submit(Request req, ProgressFn progress = nullptr);

  /// Resolve a request that never parsed (a parse_request_file entry
  /// with an error) as an immediate kBadRequest carrying `message`. It is
  /// counted, traced and logged like any other rejection, so one
  /// malformed element of a batch costs one bad_request response.
  JobHandle reject_malformed(std::string id, std::string message);

  /// Request cooperative cancellation of every live request with this
  /// id; returns how many were newly marked. Already-running jobs check
  /// the flag between execution phases and at delivery.
  std::size_t cancel(const std::string& id);

  /// Block until every accepted request has resolved.
  void drain();

  /// Stop accepting, finish everything queued, join workers, persist the
  /// cache (throws if it cannot). Idempotent; the destructor calls it.
  void shutdown();

  const ServerOptions& options() const { return opts_; }
  std::size_t queue_depth() const { return queue_.depth(); }

  /// Recorded span trees (populated only with options().record_spans).
  obs::SpanLog& spans() { return span_log_; }
  const obs::SpanLog& spans() const { return span_log_; }

  /// Latency histograms over *successful* responses (rejected and
  /// cancelled requests are excluded so percentiles describe served
  /// work). queue_wait = admission->exec, execute = exec->sim end (dedup
  /// decision + lookup + simulate), serialize = payload rendering, total
  /// = submit->delivery.
  const obs::LatencyHistogram& queue_wait_hist() const { return hist_queue_; }
  const obs::LatencyHistogram& execute_hist() const { return hist_execute_; }
  const obs::LatencyHistogram& serialize_hist() const { return hist_serialize_; }
  const obs::LatencyHistogram& total_hist() const { return hist_total_; }

  /// Histogram snapshot keyed by metric name (svc/telemetry.h), the
  /// "extra" block a StatsExporter attaches to stats snapshots.
  obs::Json stats_json() const;

 private:
  struct JobOutcome {
    ErrorCode error = ErrorCode::kOk;
    std::string message;
    std::string served_by;  ///< leader's provenance: "sim" or "cache"
    tune::Metrics metrics;
    std::string payload;
    /// True when the job retired before its first phase (every requester
    /// cancelled / timed out while queued) -- picks the "before
    /// execution" verdict wording.
    bool pre_execution = false;
  };
  /// Job-level boundary timestamps (monotonic ns): execution start, dedup
  /// decision + cache probe end, simulate end, serialize end. A retired
  /// job collapses all four onto its execution-start stamp.
  struct JobBounds {
    std::int64_t exec_ns = 0;
    std::int64_t dedup_ns = 0;
    std::int64_t simulate_ns = 0;
    std::int64_t serialize_ns = 0;
  };

  /// Stamp submission (boundary b0), assign an id if `req` has none, and
  /// count the request as submitted.
  std::shared_ptr<RequestSlot> open_slot(Request& req, ProgressFn progress);
  JobHandle reject(const std::shared_ptr<RequestSlot>& slot, ErrorCode code,
                   std::string message);
  void worker_loop();
  void execute(const std::shared_ptr<InflightJob>& job);
  /// Deliver every detached slot's verdict (its own cancel/deadline state
  /// wins over the job-level outcome), derive the six-phase partition
  /// from the clamped boundary chain, feed the histograms, emit spans.
  void deliver(const std::vector<std::shared_ptr<RequestSlot>>& slots,
               std::uint64_t hash, const JobBounds& bounds,
               const JobOutcome& outcome, bool tracked);
  /// Record the request's span tree (root + six phase children) into the
  /// span log and/or event log, per options.
  void emit_spans(const RequestSlot& slot,
                  const std::array<std::int64_t, 7>& b);
  void fulfill(const std::shared_ptr<RequestSlot>& slot, Response resp,
               bool tracked);
  static void notify(const std::shared_ptr<RequestSlot>& slot, JobPhase phase);

  ServerOptions opts_;
  obs::CounterRegistry& reg_;  ///< resolved once so all threads agree
  JobQueue queue_;
  obs::SpanLog span_log_;  ///< also the trace/span id authority
  obs::LatencyHistogram hist_queue_;
  obs::LatencyHistogram hist_execute_;
  obs::LatencyHistogram hist_serialize_;
  obs::LatencyHistogram hist_total_;

  mutable std::mutex mu_;  // inflight_, by_id_, cache_, outstanding_
  std::condition_variable drain_cv_;
  std::unordered_map<std::uint64_t, std::shared_ptr<InflightJob>> inflight_;
  std::unordered_multimap<std::string, std::shared_ptr<RequestSlot>> by_id_;
  tune::ResultCache cache_;  ///< every finished result, by request hash
  std::size_t outstanding_ = 0;
  bool shutdown_ = false;

  std::atomic<std::uint64_t> next_id_{0};
  std::vector<std::thread> workers_;  // last: joins before members die
};

}  // namespace smd::svc
