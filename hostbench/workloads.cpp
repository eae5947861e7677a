// The three workloads. Each builds its inputs from the seed, times ops for
// the run's seconds, and checks every op's output. An untraced run reports
// the end-to-end metrics. A traced run spends half its seconds untraced and
// half traced (their throughput difference is the tracing overhead), then
// runs the layer probes.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>

#include "hostbench/hostbench.h"
#include "src/obs/registry.h"
#include "src/svc/server.h"
#include "src/tune/runner.h"
#include "src/util/rng.h"

namespace smd::hostbench {
namespace {

/// Set-up is repeated and its median reported, so one slow page fault does
/// not move setup_s: at least kSetupReps times and for at least
/// kSetupSeconds, since the service's set-up takes well under a millisecond.
constexpr std::size_t kSetupReps = 21;
constexpr double kSetupSeconds = 1.0;

bool more_setup(const std::vector<double>& setup_s) {
  return setup_s.size() < kSetupReps ||
         std::accumulate(setup_s.begin(), setup_s.end(), 0.0) < kSetupSeconds;
}

std::int64_t now_ns() { return obs::monotonic_ns(); }

/// The timed region of a run: every op's latency and the region's length.
struct Timed {
  std::vector<double> latency_ms;
  double seconds = 0.0;

  double ops_per_s() const {
    return static_cast<double>(latency_ms.size()) / seconds;
  }
};

/// A p99 means something only with ten samples beyond it.
constexpr std::size_t kMinOpsForP99 = 1000;

void report_end_to_end(const std::vector<double>& setup_s, const Timed& timed,
                       Outcome& out) {
  out.set("setup_s", quantile(setup_s, 0.5), "s");
  out.set("throughput_ops_per_s", timed.ops_per_s(), "1/s");
  out.set("latency_p50_ms", quantile(timed.latency_ms, 0.5), "ms");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("ops %zu in %.3f s; set-up repeated %zu times\n",
              timed.latency_ms.size(), timed.seconds, setup_s.size());
  if (timed.latency_ms.size() >= kMinOpsForP99) {
    std::printf("%-34s %14.6g ms (not in the result line)\n", "latency_p99_ms",
                quantile(timed.latency_ms, 0.99));
  }
  for (const double l : timed.latency_ms) out.latency_ms.push_back(l);
}

void report_trace_overhead(double untraced_ops_per_s, double traced_ops_per_s,
                           Outcome& out) {
  out.set("trace.throughput_delta_ops_per_s",
          traced_ops_per_s - untraced_ops_per_s, "1/s");
}

std::vector<tune::Candidate> variant_candidates() {
  std::vector<tune::Candidate> cands;
  for (const core::Variant v : kVariants) {
    tune::Candidate c;
    c.variant = v;
    cands.push_back(c);
  }
  return cands;
}

/// Per-layer core/analysis/kernel/sim/mem metrics for workloads whose ops
/// are not variant runs themselves: recomposed rounds of the four variants
/// on the workload's problem, each checked against core::run_variant.
void probe_variant_layers(const core::Problem& problem, int n_rounds,
                          Tracer& tracer, Outcome& out) {
  std::vector<std::vector<VariantRun>> rounds(static_cast<std::size_t>(n_rounds));
  for (auto& round : rounds) {
    for (const core::Variant v : kVariants) {
      round.push_back(traced_run_variant(problem, v, tracer));
    }
  }
  std::vector<StandaloneCosts> standalone;
  for (std::size_t i = 0; i < std::size(kVariants); ++i) {
    const core::VariantResult ref = core::run_variant(problem, kVariants[i]);
    for (const auto& round : rounds) {
      check_variant_run(round[i], kVariants[i], ref.run.cycles,
                        ref.run.mem_words, out);
    }
    standalone.push_back(probe_standalone(problem, kVariants[i], tracer));
  }
  report_variant_layers(rounds, standalone, tracer, out);
}

// ---- the service's request loop ---------------------------------------------

constexpr int kServiceWorkers = 2;

/// How long the service probe of the other workloads' traced runs loops.
constexpr double kServiceProbeSeconds = 2.0;

/// The seeded request sequence. Three in four requests are new configs:
/// the four variants with a dram_gbps nudge, as in bench_svc_load, so every
/// job reuses the same four kernels. One in four, at a seeded position in
/// each group of four, repeats an earlier config chosen by the seed.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed)
      : rng_(seed), base_(static_cast<int>(rng_.uniform_u64(1000))) {}

  /// Config index of the next request.
  int next() {
    const std::int64_t k = issued_++;
    if (k % 4 == 0) repeat_at_ = 1 + static_cast<int>(rng_.uniform_u64(3));
    if (k % 4 == repeat_at_) {
      return window_start_ + static_cast<int>(rng_.uniform_u64(
                                 static_cast<std::uint64_t>(n_unique_ - window_start_)));
    }
    return n_unique_++;
  }

  /// Repeats from here on pick only configs issued after this call, so a
  /// fresh server sees exactly one simulation per new config.
  void new_window() {
    issued_ = 0;
    window_start_ = n_unique_;
  }

  tune::Candidate config(int index) const {
    tune::Candidate c;
    c.variant = kVariants[index % 4];
    c.dram_gbps = 38.4 + 0.001 * static_cast<double>(base_ + index / 4);
    return c;
  }

  int n_unique() const { return n_unique_; }
  util::Rng& rng() { return rng_; }

 private:
  util::Rng rng_;
  int base_ = 0;
  std::int64_t issued_ = 0;
  int window_start_ = 0;
  int repeat_at_ = 1;
  int n_unique_ = 0;
};

/// Completion queue the server's progress callbacks feed. Shared-owned by
/// every callback, so a late callback never outlives it.
struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> done;
};

struct LoopRun {
  std::vector<int> config;                ///< config index per request
  std::vector<std::int64_t> t_submit_ns;  ///< client-side, before submit()
  std::vector<std::int64_t> t_seen_ns;    ///< client-side, on completion
  std::vector<svc::Response> resps;
  std::int64_t t_start_ns = 0;
  std::int64_t t_end_ns = 0;              ///< the last completion seen

  /// Client-observed latency of every request, from its submit to the
  /// client seeing it done.
  Timed timed() const {
    Timed t;
    for (std::size_t k = 0; k < resps.size(); ++k) {
      t.latency_ms.push_back(ms(t_seen_ns[k] - t_submit_ns[k]));
    }
    t.seconds = seconds(t_end_ns - t_start_ns);
    return t;
  }
};

/// One generator thread keeping `kOutstanding` requests in flight (a closed
/// loop) until `budget_s` has passed, stopping on a group-of-four boundary
/// so every run issues exactly one repeat per three new configs. Checks
/// every response: ok, phases summing to the total, and a payload
/// byte-identical to the first payload of its config.
LoopRun closed_loop(svc::Server& server, RequestStream& stream, int n_molecules,
                    double budget_s, std::map<int, std::string>& payloads,
                    Outcome& out) {
  constexpr int kOutstanding = 2;
  auto completions = std::make_shared<Completions>();
  LoopRun run;
  std::vector<svc::JobHandle> handles;
  const auto submit = [&]() {
    const std::size_t k = handles.size();
    const int index = stream.next();
    svc::Request req;
    req.id = "req-" + std::to_string(k);
    req.config = stream.config(index);
    req.n_molecules = n_molecules;
    run.config.push_back(index);
    run.t_seen_ns.push_back(0);
    run.resps.emplace_back();
    run.t_submit_ns.push_back(now_ns());
    handles.push_back(server.submit(
        std::move(req), [completions, k](const svc::Progress& p) {
          if (p.phase != svc::JobPhase::kDone) return;
          const std::lock_guard<std::mutex> lock(completions->mu);
          completions->done.push_back(k);
          completions->cv.notify_one();
        }));
  };

  const std::int64_t t_start = now_ns();
  run.t_start_ns = t_start;
  for (int i = 0; i < kOutstanding; ++i) submit();
  bool stopping = false;
  for (std::size_t seen = 0; seen < handles.size(); ++seen) {
    std::size_t k = 0;
    {
      std::unique_lock<std::mutex> lock(completions->mu);
      completions->cv.wait(lock, [&] { return !completions->done.empty(); });
      k = completions->done.front();
      completions->done.pop_front();
    }
    run.t_seen_ns[k] = now_ns();
    run.t_end_ns = run.t_seen_ns[k];
    run.resps[k] = handles[k].wait();
    ++out.attempted;
    const svc::Response& r = run.resps[k];
    if (!r.ok()) {
      out.fail("svc " + r.id + ": " + svc::error_code_name(r.error) + " " +
               r.message);
    } else {
      const auto [it, first] = payloads.emplace(run.config[k], r.payload);
      if (!first && it->second != r.payload) {
        out.fail("svc " + r.id + ": payload differs from the first of its config");
      }
    }
    run.resps[k].payload = std::string();  // checked; `payloads` keeps one per config
    if (r.admission_ns + r.queue_ns + r.lookup_ns + r.simulate_ns +
            r.serialize_ns + r.complete_ns != r.total_ns) {
      out.fail("svc " + r.id + ": phases do not sum to total_ns");
    }
    if (!stopping) {
      stopping = handles.size() % 4 == 0 &&
                 seconds(now_ns() - t_start) >= budget_s;
      if (!stopping) submit();
    }
  }
  return run;
}

void check_simulated(std::int64_t simulated, int unique, Outcome& out) {
  if (simulated != unique) {
    out.fail("svc simulated " + std::to_string(simulated) + " jobs for " +
             std::to_string(unique) + " unique configs");
  }
}

/// The svc.* layers, from a closed loop on a fresh span-recording server.
/// Every request's server span tree must partition it (the server stamps
/// those times, so this can fail); each request then becomes one op span
/// tiled by the client's submit, the six server phases and the client's
/// wake-up.
LoopRun traced_service(RequestStream& stream, int n_molecules, double budget_s,
                       std::map<int, std::string>& payloads, Tracer& tracer,
                       Outcome& out) {
  obs::CounterRegistry& reg = obs::CounterRegistry::global();
  svc::ServerOptions opts;
  opts.workers = kServiceWorkers;
  opts.record_spans = true;
  svc::Server server(opts);
  const std::int64_t simulated0 = reg.counter("svc.jobs.simulated");
  const int unique0 = stream.n_unique();
  stream.new_window();
  LoopRun run = closed_loop(server, stream, n_molecules, budget_s, payloads, out);
  server.drain();
  const std::int64_t simulated = reg.counter("svc.jobs.simulated") - simulated0;
  check_simulated(simulated, stream.n_unique() - unique0, out);

  const auto by_trace = spans_by_trace(server.spans());
  for (std::size_t k = 0; k < run.resps.size(); ++k) {
    const svc::Response& r = run.resps[k];
    const std::vector<obs::SpanRecord>* tree = request_spans(by_trace, r, out);
    if (tree == nullptr) continue;
    // The root first, then the phases in the order the server created them
    // (zero-length phases share start times, span ids never tie).
    std::vector<obs::SpanRecord> spans = *tree;
    std::sort(spans.begin(), spans.end(),
              [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
                return a.ctx.parent_id != b.ctx.parent_id
                           ? a.ctx.parent_id < b.ctx.parent_id
                           : a.ctx.span_id < b.ctx.span_id;
              });
    Tracer::Chain chain("svc_request", r.id, run.t_submit_ns[k]);
    chain.mark_at("svc.client_submit", spans.front().start_ns);  // the root
    for (std::size_t s = 1; s < spans.size(); ++s) {
      chain.mark_at("svc." + spans[s].name, spans[s].end_ns);
    }
    chain.mark_at("svc.client_wake", run.t_seen_ns[k]);
    tracer.record(chain);
  }
  report_service(run.resps, simulated, out);
  return run;
}

/// A seeded sample of the service's payloads must equal a direct
/// single-threaded tune::evaluate.
void check_payload_sample(RequestStream& stream, int n_molecules,
                          const std::map<int, std::string>& payloads,
                          Outcome& out) {
  const std::shared_ptr<const core::Problem> problem =
      svc::ProblemPool::shared().get(n_molecules);
  for (int s = 0; s < 4; ++s) {
    const int index = static_cast<int>(stream.rng().uniform_u64(
        static_cast<std::uint64_t>(stream.n_unique())));
    const tune::Candidate c = stream.config(index);
    const std::string direct = svc::payload_text(
        svc::request_hash(c, n_molecules, svc::ServerOptions{}.salt), c,
        n_molecules, tune::evaluate(*problem, c));
    const auto it = payloads.find(index);
    if (it == payloads.end() || it->second != direct) {
      out.fail("svc payload of config " + std::to_string(index) +
               " differs from a direct tune::evaluate");
    }
  }
}

/// The svc.* layers for the workloads whose ops do not pass through the
/// service: the service workload's request mix, at its size, for a while.
void probe_service(std::uint64_t seed, Tracer& tracer, Outcome& out) {
  RequestStream stream(seed);
  std::map<int, std::string> payloads;
  (void)traced_service(stream, kServiceMolecules, kServiceProbeSeconds,
                       payloads, tracer, out);
  check_payload_sample(stream, kServiceMolecules, payloads, out);
}

}  // namespace

// ---- variants-1800 ---------------------------------------------------------

void run_variants(const RunSpec& spec, Tracer& tracer, Outcome& out) {
  const core::ExperimentSetup setup = experiment(spec.molecules, spec.seed);
  std::vector<double> setup_s;
  std::optional<core::Problem> problem;
  do {
    const std::int64_t t0 = now_ns();
    core::Problem p = spec.trace ? make_problem_traced(setup, tracer)
                                 : core::Problem::make(setup);
    setup_s.push_back(seconds(now_ns() - t0));
    problem = std::move(p);
  } while (more_setup(setup_s));

  // Reference cycles and words per variant: the first round's; every later
  // op, traced or not, must repeat them exactly.
  std::vector<std::pair<std::uint64_t, std::int64_t>> ref;
  const double budget_s = spec.trace ? spec.seconds / 2 : spec.seconds;

  // Whole rounds of the four variants, so each is timed equally often.
  Timed timed;
  const std::int64_t t_start = now_ns();
  do {
    for (std::size_t i = 0; i < std::size(kVariants); ++i) {
      const core::Variant v = kVariants[i];
      ++out.attempted;
      const std::int64_t t0 = now_ns();
      try {
        const core::VariantResult res = core::run_variant(*problem, v);
        timed.latency_ms.push_back(ms(now_ns() - t0));
        if (ref.size() <= i) ref.emplace_back(res.run.cycles, res.run.mem_words);
        if (res.run.cycles != ref[i].first || res.run.mem_words != ref[i].second) {
          out.fail(std::string(core::variant_name(v)) +
                   ": cycles/words differ from the first round");
        }
        if (!(res.max_force_rel_err <= kMaxForceRelErr)) {
          out.fail(std::string(core::variant_name(v)) + " force error " +
                   std::to_string(res.max_force_rel_err));
        }
      } catch (const std::exception& e) {
        out.fail(std::string(core::variant_name(v)) + ": " + e.what());
      }
    }
  } while (seconds(now_ns() - t_start) < budget_s);
  timed.seconds = seconds(now_ns() - t_start);
  if (!spec.trace) {
    report_end_to_end(setup_s, timed, out);
    return;
  }
  if (ref.size() != std::size(kVariants)) return;  // every op failed

  obs::CounterRegistry& reg = obs::CounterRegistry::global();
  const std::int64_t scheduled0 = reg.counter("sim.kernels_scheduled");
  std::vector<std::vector<VariantRun>> rounds;
  Timed traced;
  const std::int64_t t_traced = now_ns();
  do {
    rounds.emplace_back();
    for (std::size_t i = 0; i < std::size(kVariants); ++i) {
      ++out.attempted;
      const std::int64_t t0 = now_ns();
      rounds.back().push_back(traced_run_variant(*problem, kVariants[i], tracer));
      traced.latency_ms.push_back(ms(now_ns() - t0));
      check_variant_run(rounds.back().back(), kVariants[i], ref[i].first,
                        ref[i].second, out);
    }
  } while (seconds(now_ns() - t_traced) < budget_s);
  traced.seconds = seconds(now_ns() - t_traced);
  out.set("kernel.schedules_per_op",
          static_cast<double>(reg.counter("sim.kernels_scheduled") - scheduled0) /
              static_cast<double>(traced.latency_ms.size()),
          "count");
  report_trace_overhead(timed.ops_per_s(), traced.ops_per_s(), out);

  std::vector<StandaloneCosts> standalone;
  for (const core::Variant v : kVariants) {
    standalone.push_back(probe_standalone(*problem, v, tracer));
  }
  report_variant_layers(rounds, standalone, tracer, out);
  probe_memory(*problem, tracer, out);
  probe_tune(*problem, variant_candidates(), tracer, out);
  probe_service(spec.seed, tracer, out);
}

// ---- svc-mixed-32 ----------------------------------------------------------

void run_service(const RunSpec& spec, Tracer& tracer, Outcome& out) {
  // Each set-up spawns a server and builds the problem as the server's
  // ProblemPool does: with the default experiment seed (the workload seed
  // drives the requests). The pool keeps what it built, so it builds once,
  // after the timed set-ups, and the last server spawned serves the run.
  const core::ExperimentSetup setup = experiment(spec.molecules,
                                                 core::ExperimentSetup{}.seed);
  svc::ServerOptions opts;
  opts.workers = kServiceWorkers;
  std::vector<double> setup_s;
  std::unique_ptr<svc::Server> server;
  do {
    server.reset();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<svc::Server>(opts);
    const core::Problem p = spec.trace ? make_problem_traced(setup, tracer)
                                       : core::Problem::make(setup);
    setup_s.push_back(seconds(now_ns() - t0));
  } while (more_setup(setup_s));
  const std::shared_ptr<const core::Problem> problem =
      svc::ProblemPool::shared().get(spec.molecules);

  obs::CounterRegistry& reg = obs::CounterRegistry::global();
  RequestStream stream(spec.seed);
  std::map<int, std::string> payloads;
  const double budget_s = spec.trace ? spec.seconds / 2 : spec.seconds;
  const std::int64_t simulated0 = reg.counter("svc.jobs.simulated");
  const LoopRun untraced =
      closed_loop(*server, stream, spec.molecules, budget_s, payloads, out);
  server->drain();
  check_simulated(reg.counter("svc.jobs.simulated") - simulated0,
                  stream.n_unique(), out);
  server.reset();
  if (!spec.trace) {
    report_end_to_end(setup_s, untraced.timed(), out);
    return;
  }

  const std::int64_t scheduled0 = reg.counter("sim.kernels_scheduled");
  const LoopRun traced =
      traced_service(stream, spec.molecules, budget_s, payloads, tracer, out);
  out.set("kernel.schedules_per_op",
          static_cast<double>(reg.counter("sim.kernels_scheduled") - scheduled0) /
              static_cast<double>(traced.resps.size()),
          "count");
  report_trace_overhead(untraced.timed().ops_per_s(), traced.timed().ops_per_s(),
                        out);
  check_payload_sample(stream, spec.molecules, payloads, out);

  std::vector<tune::Candidate> cands;
  for (int i = 0; i < 4; ++i) cands.push_back(stream.config(i));
  probe_variant_layers(*problem, 3, tracer, out);
  probe_memory(*problem, tracer, out);
  probe_tune(*problem, cands, tracer, out);
}

// ---- tune-sweep-256 --------------------------------------------------------

namespace {

/// The sweep's results in a canonical order, one line per candidate: the
/// byte-level quantity compared between sweeps.
std::string sorted_metrics(const std::vector<tune::Candidate>& cands,
                           const std::vector<tune::Metrics>& metrics) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    lines.push_back(cands[i].key() + " " + metrics[i].to_json().dump());
  }
  std::sort(lines.begin(), lines.end());
  std::string all;
  for (const std::string& l : lines) all += l + "\n";
  return all;
}

}  // namespace

void run_tune(const RunSpec& spec, Tracer& tracer, Outcome& out) {
  const core::ExperimentSetup setup = experiment(spec.molecules, spec.seed);
  std::vector<double> setup_s;
  std::optional<core::Problem> problem;
  std::vector<tune::Candidate> cands;
  do {
    const std::int64_t t0 = now_ns();
    core::Problem p = spec.trace ? make_problem_traced(setup, tracer)
                                 : core::Problem::make(setup);
    cands = tune::ConfigSpace::parse(
                "variant=expanded,fixed,variable,duplicated;L=4:16:4;"
                "unroll=1,2;swp=0,1")
                .enumerate();
    setup_s.push_back(seconds(now_ns() - t0));
    problem = std::move(p);
  } while (more_setup(setup_s));

  tune::RunnerOptions opts;
  opts.jobs = 2;  // no cache, no pruning: the RunnerOptions defaults
  tune::Runner runner(*problem, opts);
  std::string reference;
  const auto sweep = [&]() {
    const std::vector<tune::EvalResult> results = runner.run(cands);
    out.attempted += static_cast<std::int64_t>(results.size());
    std::vector<tune::Metrics> metrics;
    for (const tune::EvalResult& r : results) {
      if (!r.ok()) out.fail("tune " + r.cand.label() + ": " + r.error);
      metrics.push_back(r.metrics);
    }
    const std::string digest = sorted_metrics(cands, metrics);
    if (reference.empty()) reference = digest;
    if (digest != reference) out.fail("tune sweep metrics differ between rounds");
  };

  // Runner returns a sweep's results together, so each candidate's latency
  // is its sweep's wall time, and latency_p50_ms is the median sweep.
  const double budget_s = spec.trace ? spec.seconds / 2 : spec.seconds;
  Timed timed;
  const std::int64_t t_start = now_ns();
  do {
    const std::int64_t t0 = now_ns();
    sweep();
    timed.latency_ms.insert(timed.latency_ms.end(), cands.size(), ms(now_ns() - t0));
  } while (seconds(now_ns() - t_start) < budget_s);
  timed.seconds = seconds(now_ns() - t_start);
  if (!spec.trace) {
    report_end_to_end(setup_s, timed, out);
    return;
  }

  obs::CounterRegistry& reg = obs::CounterRegistry::global();
  const std::int64_t scheduled0 = reg.counter("sim.kernels_scheduled");
  Timed traced;
  const std::int64_t t_traced = now_ns();
  do {
    Tracer::Chain chain("tune_sweep", std::to_string(cands.size()));
    sweep();
    chain.mark("tune.sweep");
    tracer.record(chain);
    traced.latency_ms.insert(traced.latency_ms.end(), cands.size(),
                             ms(chain.end_ns() - chain.start_ns()));
  } while (seconds(now_ns() - t_traced) < budget_s);
  traced.seconds = seconds(now_ns() - t_traced);
  out.set("kernel.schedules_per_op",
          static_cast<double>(reg.counter("sim.kernels_scheduled") - scheduled0) /
              static_cast<double>(traced.latency_ms.size()),
          "count");
  report_trace_overhead(timed.ops_per_s(), traced.ops_per_s(), out);

  // The single-threaded evaluations must match the two-worker sweep byte
  // for byte (the Runner's --jobs invariance).
  const std::vector<tune::Metrics> direct = probe_tune(*problem, cands, tracer, out);
  if (sorted_metrics(cands, direct) != reference) {
    out.fail("tune::evaluate metrics differ from the Runner sweep");
  }
  probe_variant_layers(*problem, 2, tracer, out);
  probe_memory(*problem, tracer, out);
  probe_service(spec.seed, tracer, out);
}

}  // namespace smd::hostbench
