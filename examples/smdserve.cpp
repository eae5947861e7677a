// smdserve: CLI front-end to the simulation-as-a-service job server
// (src/svc): submit request batches from a file or stdin, or run the
// self-checking --demo workload.
//
//   smdserve --requests file|-  [--workers N] [--queue-cap N] [--cache path]
//            [--max-molecules N] [--json path] [telemetry flags]
//   smdserve --demo [--molecules N] [--workers N] [--queue-cap N]
//            [--cache path] [--json path] [telemetry flags]
//
// Telemetry flags (DESIGN.md section 15), each self-validating at exit:
//   --trace PATH     record every request's span tree and write it as a
//                    Chrome trace; the file is parsed back and every
//                    trace's six phase spans are checked to partition its
//                    root span exactly.
//   --events PATH    crash-safe JSONL structured event log; spans (and
//                    stats snapshots, with --stats-interval) land here as
//                    they happen. Reloaded and partition-checked at exit.
//   --stats PATH     final registry + latency-histogram snapshot, written
//                    atomically (and periodically with --stats-interval
//                    when no --events log is given). Parsed back at exit.
//   --stats-interval MS  background exporter cadence (requires --events
//                    or --stats).
// Any validation failure makes the exit status non-zero, so a smoke run
// with these flags is an end-to-end check of the tracing pipeline.
//
// --requests parses a wire-format batch (svc/wire.h: either
// {"schema_version":1,"requests":[...]} or a bare array; "-" reads
// stdin), submits every request, waits for the server to drain, and
// prints one row per response plus the telemetry counters. An element
// that does not parse (an unknown variant, a typo'd field) is answered
// with its own bad_request row; the rest of the batch still runs. Exit
// status is 0 iff every request completed ok.
//
// --demo is a golden self-check of the DESIGN.md section 13 determinism
// invariant, sized to run in CI:
//   1. submits the four paper variants x3 duplicates each and verifies
//      every payload is byte-identical to a direct single-threaded
//      tune::evaluate + payload_text of the same config -- while the
//      svc.jobs.simulated counter rose by exactly the number of *unique*
//      configs (duplicates attached in-flight, simulating nothing);
//   2. resubmits the same four configs and verifies the server performed
//      zero additional simulations (served from its result store).
// Exit status is non-zero on any payload mismatch or counter violation.
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_io.h"
#include "src/obs/event_log.h"
#include "src/obs/exporter.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/obs/trace_event.h"
#include "src/svc/server.h"
#include "src/svc/wire.h"
#include "src/tune/runner.h"

using namespace smd;

namespace {

void print_response_row(const svc::Response& r) {
  std::printf("%-10s %-18s %-6s %016llx %9.3f ms  %s\n", r.id.c_str(),
              svc::error_code_name(r.error), r.served_by.c_str(),
              static_cast<unsigned long long>(r.config_hash),
              static_cast<double>(r.total_ns) / 1e6,
              r.message.empty() ? "" : r.message.c_str());
}

obs::Json responses_json(const std::vector<svc::Response>& rs) {
  obs::Json arr = obs::Json::array();
  for (const auto& r : rs) arr.push_back(r.to_json());
  return arr;
}

/// Group spans by trace id and check the per-request partition invariant
/// (DESIGN.md section 15) on every trace. Returns the number of
/// violating traces and prints each violation.
int check_partition(const std::vector<obs::SpanRecord>& spans,
                    const char* source, std::size_t* n_traces) {
  std::map<std::uint64_t, std::vector<obs::SpanRecord>> traces;
  for (const obs::SpanRecord& rec : spans) {
    traces[rec.ctx.trace_id].push_back(rec);
  }
  if (n_traces != nullptr) *n_traces = traces.size();
  int failures = 0;
  for (const auto& [id, trace] : traces) {
    std::string why;
    if (!obs::spans_partition_exactly(trace, &why)) {
      std::printf("FAIL: %s trace %llx violates the partition invariant: "
                  "%s\n",
                  source, static_cast<unsigned long long>(id), why.c_str());
      ++failures;
    }
  }
  return failures;
}

/// The --trace/--events/--stats/--stats-interval surface: owns the event
/// log and the background exporter, validates everything it wrote by
/// parsing it back at exit.
struct Telemetry {
  std::string trace_path;
  std::string events_path;
  std::string stats_path;
  std::int64_t stats_interval_ms = 0;
  obs::EventLog events;
  obs::StatsExporter exporter;

  /// Wire the flags into the server options (before the server exists).
  void prepare(svc::ServerOptions* opts) {
    if (!trace_path.empty()) opts->record_spans = true;
    if (!events_path.empty()) {
      events.open(events_path);
      opts->event_log = &events;
    }
  }

  /// Start the background exporter (after the server exists: its extra
  /// block is the server's histogram snapshot).
  void start(svc::Server* server) {
    if (stats_interval_ms <= 0 && stats_path.empty()) return;
    obs::StatsExporter::Options eopts;
    eopts.interval_ms = stats_interval_ms > 0 ? stats_interval_ms : 1000;
    if (events.enabled()) {
      eopts.event_log = &events;
    } else {
      eopts.path = stats_path;
    }
    eopts.extra = [server] { return server->stats_json(); };
    exporter.start(std::move(eopts));
  }

  /// Per-phase latency percentiles from the server's histograms.
  void print_latency(const svc::Server& server) {
    const auto row = [](const char* name, const obs::LatencyHistogram& h) {
      if (h.count() == 0) return;
      std::printf("  %-10s %8llu  %9.3f %9.3f %9.3f %9.3f ms\n", name,
                  static_cast<unsigned long long>(h.count()),
                  h.quantile(0.50) / 1e6, h.quantile(0.95) / 1e6,
                  h.quantile(0.99) / 1e6,
                  static_cast<double>(h.max_ns()) / 1e6);
    };
    if (server.total_hist().count() == 0) return;
    std::printf("\nlatency (served requests) %6s %9s %9s %9s %9s\n", "count",
                "p50", "p95", "p99", "max");
    row("queue", server.queue_wait_hist());
    row("execute", server.execute_hist());
    row("serialize", server.serialize_hist());
    row("total", server.total_hist());
  }

  /// Stop the exporter, write + reload the trace, reload the event log,
  /// and check every artifact. Returns the number of failures. Call while
  /// the server is still alive (spans live in it).
  int finalize(svc::Server* server, benchio::JsonOut& jout) {
    int failures = 0;
    const bool exporting = exporter.running();
    if (exporting) exporter.stop();  // emits the final snapshot

    if (!trace_path.empty()) {
      obs::TraceSink sink;
      server->spans().append_chrome(&sink);
      sink.write(trace_path);
      std::size_t n_traces = 0;
      std::vector<obs::SpanRecord> reloaded;
      try {
        reloaded = obs::spans_from_chrome(obs::load_file(trace_path));
        failures += check_partition(reloaded, "chrome", &n_traces);
      } catch (const std::exception& e) {
        std::printf("FAIL: trace %s did not parse back: %s\n",
                    trace_path.c_str(), e.what());
        ++failures;
      }
      if (reloaded.size() != server->spans().size()) {
        std::printf("FAIL: trace %s: %zu spans reloaded, %zu recorded\n",
                    trace_path.c_str(), reloaded.size(),
                    server->spans().size());
        ++failures;
      }
      std::printf("trace: %zu spans / %zu traces -> %s (partition %s)\n",
                  reloaded.size(), n_traces, trace_path.c_str(),
                  failures == 0 ? "OK" : "FAILED");
      jout.root().set("trace_spans",
                      static_cast<std::int64_t>(reloaded.size()));
    }

    if (!events_path.empty()) {
      events.close();
      const obs::EventLogLoad load = obs::load_event_log(events_path);
      if (load.dropped != 0) {
        std::printf("FAIL: event log %s: %zu torn lines in a clean run\n",
                    events_path.c_str(), load.dropped);
        ++failures;
      }
      std::vector<obs::SpanRecord> spans;
      std::size_t stats_lines = 0;
      for (const obs::Json& ev : load.events) {
        const obs::Json* type = ev.find("type");
        if (type == nullptr) continue;
        if (type->as_string() == "span") {
          spans.push_back(obs::span_from_json(ev));
        } else if (type->as_string() == "stats") {
          ++stats_lines;
        }
      }
      std::size_t n_traces = 0;
      failures += check_partition(spans, "events", &n_traces);
      std::printf("events: %zu lines (%zu spans / %zu traces, %zu stats) -> "
                  "%s\n",
                  load.events.size(), spans.size(), n_traces, stats_lines,
                  events_path.c_str());
      jout.root().set("event_lines",
                      static_cast<std::int64_t>(load.events.size()));
      if (exporting && stats_lines == 0) {
        std::printf("FAIL: exporter ran but wrote no stats events\n");
        ++failures;
      }
    } else if (!stats_path.empty()) {
      if (!exporting) exporter.start({/*interval_ms=*/1'000'000, nullptr,
                                      stats_path,
                                      [server] { return server->stats_json(); }});
      exporter.stop();  // one-shot final snapshot
      try {
        const obs::Json snap = obs::load_file(stats_path);
        if (snap.at("type").as_string() != "stats" ||
            !snap.contains("registry")) {
          throw std::runtime_error("not a stats snapshot");
        }
        std::printf("stats: snapshot seq %lld -> %s\n",
                    static_cast<long long>(snap.at("seq").as_int()),
                    stats_path.c_str());
      } catch (const std::exception& e) {
        std::printf("FAIL: stats %s did not parse back: %s\n",
                    stats_path.c_str(), e.what());
        ++failures;
      }
    }
    return failures;
  }
};

/// --requests: run a wire-format batch through the server.
int run_requests(const std::string& path, svc::ServerOptions opts,
                 Telemetry& tele, benchio::JsonOut& jout) {
  obs::Json doc;
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    doc = obs::Json::parse(ss.str());
  } else {
    doc = obs::load_file(path);
  }
  const std::vector<svc::BatchEntry> requests = svc::parse_request_file(doc);
  std::printf("smdserve: %zu requests, %d workers, queue cap %zu%s\n\n",
              requests.size(), opts.workers, opts.queue_cap,
              opts.cache_path.empty()
                  ? ""
                  : (", cache " + opts.cache_path).c_str());

  tele.prepare(&opts);
  svc::Server server(opts);
  tele.start(&server);
  std::vector<svc::JobHandle> handles;
  handles.reserve(requests.size());
  for (const svc::BatchEntry& e : requests) {
    handles.push_back(e.error.empty()
                          ? server.submit(e.request)
                          : server.reject_malformed(e.request.id, e.error));
  }
  server.drain();

  std::printf("%-10s %-18s %-6s %-16s %12s\n", "id", "outcome", "via", "hash",
              "latency");
  std::vector<svc::Response> responses;
  int failures = 0;
  for (const svc::JobHandle& h : handles) {
    const svc::Response& r = h.wait();
    print_response_row(r);
    if (!r.ok()) ++failures;
    responses.push_back(r);
  }
  tele.print_latency(server);
  failures += tele.finalize(&server, jout);
  server.shutdown();

  auto& reg = obs::CounterRegistry::global();
  std::printf("\n%lld submitted: %lld completed, %lld cancelled, %lld "
              "rejected; %lld simulated, %lld deduped, %lld cache hits\n",
              static_cast<long long>(reg.counter("svc.jobs.submitted")),
              static_cast<long long>(reg.counter("svc.jobs.completed")),
              static_cast<long long>(reg.counter("svc.jobs.cancelled")),
              static_cast<long long>(reg.counter("svc.jobs.rejected")),
              static_cast<long long>(reg.counter("svc.jobs.simulated")),
              static_cast<long long>(reg.counter("svc.jobs.deduped")),
              static_cast<long long>(reg.counter("svc.jobs.cache_hit")));

  jout.root().set("mode", "requests");
  jout.root().set("n_requests", static_cast<std::int64_t>(requests.size()));
  jout.root().set("workers", opts.workers);
  jout.root().set("failures", failures);
  jout.root().set("responses", responses_json(responses));
  jout.root().set("telemetry", reg.to_json());
  return failures == 0 ? 0 : 1;
}

/// --demo: the self-checking dedup + determinism workload.
int run_demo(int n_molecules, svc::ServerOptions opts, Telemetry& tele,
             benchio::JsonOut& jout) {
  auto& reg = obs::CounterRegistry::global();
  int failures = 0;

  // The four paper variants, each submitted kDup times.
  constexpr int kDup = 3;
  std::vector<tune::Candidate> configs;
  for (core::Variant v : core::kAllVariants) {
    tune::Candidate c;
    c.variant = v;
    configs.push_back(c);
  }

  std::printf("smdserve --demo: %zu unique configs x%d duplicates, "
              "%d molecules, %d workers\n\n",
              configs.size(), kDup, n_molecules, opts.workers);

  // Direct single-threaded reference payloads, computed before the server
  // exists: the byte-identity baseline of the determinism invariant.
  core::ExperimentSetup setup;
  setup.n_molecules = n_molecules;
  const core::Problem problem = core::Problem::make(setup);
  std::vector<std::string> want_payload;
  for (const tune::Candidate& c : configs) {
    const std::uint64_t h = svc::request_hash(c, n_molecules, opts.salt);
    const tune::Metrics m = tune::evaluate(problem, c);
    want_payload.push_back(svc::payload_text(h, c, n_molecules, m));
  }

  const std::int64_t sim0 = reg.counter("svc.jobs.simulated");
  tele.prepare(&opts);
  svc::Server server(opts);
  tele.start(&server);

  // Phase 1: every config kDup times; duplicates must attach, not re-run.
  std::vector<svc::JobHandle> handles;
  for (int d = 0; d < kDup; ++d) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      svc::Request req;
      req.id = "demo-" + std::to_string(i) + "-" + std::to_string(d);
      req.config = configs[i];
      req.n_molecules = n_molecules;
      handles.push_back(server.submit(req));
    }
  }
  server.drain();
  std::printf("%-10s %-18s %-6s %-16s %12s\n", "id", "outcome", "via", "hash",
              "latency");
  for (std::size_t k = 0; k < handles.size(); ++k) {
    const svc::Response& r = handles[k].wait();
    print_response_row(r);
    if (!r.ok()) {
      std::printf("FAIL: %s did not complete\n", r.id.c_str());
      ++failures;
      continue;
    }
    if (r.payload != want_payload[k % configs.size()]) {
      std::printf("FAIL: %s payload differs from the direct "
                  "single-threaded run\n",
                  r.id.c_str());
      ++failures;
    }
  }
  const std::int64_t sim1 = reg.counter("svc.jobs.simulated");
  if (sim1 - sim0 > static_cast<std::int64_t>(configs.size())) {
    std::printf("FAIL: %lld simulations for %zu unique configs\n",
                static_cast<long long>(sim1 - sim0), configs.size());
    ++failures;
  }
  std::printf("\nphase 1: %lld simulations for %zu unique configs "
              "(%zu requests), payload bit-identity %s\n",
              static_cast<long long>(sim1 - sim0), configs.size(),
              handles.size(), failures == 0 ? "OK" : "FAILED");

  // Phase 2: resubmission is pure lookup -- zero new simulations.
  std::vector<svc::JobHandle> again;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    svc::Request req;
    req.id = "again-" + std::to_string(i);
    req.config = configs[i];
    req.n_molecules = n_molecules;
    again.push_back(server.submit(req));
  }
  server.drain();
  for (std::size_t i = 0; i < again.size(); ++i) {
    const svc::Response& r = again[i].wait();
    if (!r.ok() || r.payload != want_payload[i]) {
      std::printf("FAIL: resubmitted %s wrong or missing payload\n",
                  r.id.c_str());
      ++failures;
    }
  }
  const std::int64_t sim2 = reg.counter("svc.jobs.simulated");
  if (sim2 != sim1) {
    std::printf("FAIL: resubmission ran %lld new simulations (want 0)\n",
                static_cast<long long>(sim2 - sim1));
    ++failures;
  }
  std::printf("phase 2: resubmitting all %zu configs ran %lld new "
              "simulations (want 0) -- %s\n",
              configs.size(), static_cast<long long>(sim2 - sim1),
              sim2 == sim1 ? "OK" : "FAILED");
  tele.print_latency(server);
  failures += tele.finalize(&server, jout);
  server.shutdown();

  std::printf("\nsmdserve --demo: %d failures\n", failures);
  jout.root().set("mode", "demo");
  jout.root().set("n_molecules", n_molecules);
  jout.root().set("workers", opts.workers);
  jout.root().set("unique_configs", static_cast<std::int64_t>(configs.size()));
  jout.root().set("duplicates_per_config", kDup);
  jout.root().set("simulated_phase1", sim1 - sim0);
  jout.root().set("simulated_phase2", sim2 - sim1);
  jout.root().set("failures", failures);
  jout.root().set("telemetry", reg.to_json());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  static const char* kUsage =
      "smdserve --requests file|- | --demo  [--molecules N] [--workers N] "
      "[--queue-cap N] [--cache path] [--max-molecules N] "
      "[--json path] [--trace path] "
      "[--events path] [--stats path] [--stats-interval ms]";
  benchio::check_flags(argc, argv, "smdserve", kUsage,
                       {"--requests", "--molecules", "--workers",
                        "--queue-cap", "--cache", "--max-molecules",
                        "--json", "--trace",
                        "--events", "--stats", "--stats-interval"},
                       {"--demo"});
  benchio::JsonOut jout(argc, argv, "smdserve");

  svc::ServerOptions opts;
  opts.workers = benchio::counts_or_exit(argc, argv, "smdserve", "workers",
                                         {"worker"}, {2}, kUsage)
                     .front();
  opts.queue_cap = static_cast<std::size_t>(
      benchio::counts_or_exit(argc, argv, "smdserve", "queue-cap", {"slot"},
                              {1024}, kUsage)
          .front());
  opts.cache_path = benchio::output_path_or_exit(argc, argv, "cache");
  opts.max_molecules =
      benchio::counts_or_exit(argc, argv, "smdserve", "max-molecules",
                              benchio::kMolecules, {opts.max_molecules}, kUsage)
          .front();

  Telemetry tele;
  tele.trace_path = benchio::output_path_or_exit(argc, argv, "trace");
  tele.events_path = benchio::output_path_or_exit(argc, argv, "events");
  tele.stats_path = benchio::output_path_or_exit(argc, argv, "stats");
  tele.stats_interval_ms =
      benchio::counts_or_exit(argc, argv, "smdserve", "stats-interval",
                              {"ms", 0}, {0}, kUsage)
          .front();
  if (tele.stats_interval_ms > 0 && tele.events_path.empty() &&
      tele.stats_path.empty()) {
    benchio::usage_error("smdserve",
                         "--stats-interval needs --events or --stats",
                         kUsage);
  }

  const std::string requests = benchio::flag_value(argc, argv, "requests");
  try {
    if (!requests.empty()) {
      return jout.finish(run_requests(requests, opts, tele, jout));
    }
    if (benchio::has_flag(argc, argv, "--demo")) {
      const int n_molecules =
          benchio::molecules_or_exit(argc, argv, "smdserve", 64, kUsage)
              .front();
      return jout.finish(run_demo(n_molecules, opts, tele, jout));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smdserve: %s\n", e.what());
    return 2;
  }
  benchio::usage_error("smdserve", "pick a mode: --requests file|- or --demo",
                       kUsage);
}
