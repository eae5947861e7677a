// Load generator for the simulation service (src/svc): throughput and
// latency percentiles at thousands of concurrent requests, across
// duplicate-request regimes.
//
//   bench_svc_load [--requests N] [--molecules N] [--workers a,b,c]
//                  [--dups a,b,c] [--queue-cap N]
//                  [--engine stepped|event|lockstep]
//                  [--kernel-backend interp|vm|lockstep] [--json path]
//
// For every (worker count, duplicate fraction) combination the bench
// builds a fresh server, submits N requests from a closed-loop client
// thread, drains, and reports jobs/sec plus p50/p95/p99 total latency
// from each response's own wall-clock decomposition. The duplicate
// fraction d maps N requests onto round(N*(1-d)) unique configs (distinct
// dram_gbps machine overrides over the four variants), so:
//   --dups 0    every request simulates (worst case),
//   --dups 50   every config is requested twice (in-flight dedup + memo),
//   --dups 100  one config serves all N requests (one simulation total).
//
// Latency percentiles come from the server's obs::LatencyHistogram
// per-phase histograms (queue wait / execute / serialize / total), not
// from sorting raw samples; the raw samples are kept only to *cross-check*
// the histograms: at every regime, each reported quantile must sit within
// the documented LatencyHistogram::kQuantileRelErr of the exact sorted
// value (opt out with --no-quantile-check). Per-regime total histograms
// are then merged -- exact bucket-wise addition -- into the all-regimes
// summary, exercising mergeability at scale.
//
// The bench is also a checker for the svc invariants (DESIGN.md
// sections 13 and 15) at scale, and exits non-zero if any fails:
//   * counter proof: svc.jobs.simulated rises by exactly the number of
//     unique configs in every regime -- never more;
//   * determinism: for every config, the payload is byte-identical across
//     all worker counts (the first worker count is the reference);
//   * partition: every response's six timing phases sum to its total_ns
//     exactly;
//   * histogram bound: quantiles within kQuantileRelErr of exact.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_io.h"
#include "src/core/report.h"
#include "src/obs/latency_histogram.h"
#include "src/obs/registry.h"
#include "src/svc/server.h"
#include "src/svc/wire.h"
#include "src/util/table.h"

using namespace smd;

namespace {

/// The i-th unique config: cycle the four variants, then nudge the DRAM
/// bandwidth override by a hash-distinct epsilon. Every config is a valid
/// machine and costs the same to simulate, so regimes differ only in
/// duplication, not in per-job work.
tune::Candidate unique_config(int i) {
  tune::Candidate c;
  c.variant = core::kAllVariants[static_cast<std::size_t>(i % 4)];
  c.dram_gbps = 38.4 + 0.01 * static_cast<double>(i / 4);
  return c;
}

/// Exact order statistic over the raw samples -- the ground truth the
/// histogram quantiles are checked against (same rank convention:
/// index floor(q*n), clamped).
double exact_percentile_ns(std::vector<std::int64_t> ns, double q) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const std::size_t idx = std::min(
      ns.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(ns.size())));
  return static_cast<double>(ns[idx]);
}

constexpr double kQuantiles[] = {0.50, 0.95, 0.99};

/// The histogram error-bound check: every reported quantile must be
/// within LatencyHistogram::kQuantileRelErr of the exact sorted value
/// (sub-64 ns samples are bucketed exactly, hence the 1 ns floor).
/// Returns the number of violations and prints each one.
int quantile_cross_check(const std::vector<std::int64_t>& exact_ns,
                         const obs::LatencyHistogram& hist,
                         const char* label) {
  int failures = 0;
  if (hist.count() != exact_ns.size()) {
    std::printf("FAIL: %s histogram holds %llu samples, expected %zu\n",
                label, static_cast<unsigned long long>(hist.count()),
                exact_ns.size());
    ++failures;
  }
  for (const double q : kQuantiles) {
    const double exact = exact_percentile_ns(exact_ns, q);
    const double est = hist.quantile(q);
    const double tol =
        std::max(1.0, exact * obs::LatencyHistogram::kQuantileRelErr);
    if (std::abs(est - exact) > tol) {
      std::printf("FAIL: %s p%02.0f: histogram %.0f ns vs exact %.0f ns "
                  "(tolerance %.0f ns)\n",
                  label, q * 100.0, est, exact, tol);
      ++failures;
    }
  }
  return failures;
}

struct RegimeResult {
  int workers = 0;
  double dup_fraction = 0.0;
  int n_requests = 0;
  int n_unique = 0;
  std::int64_t simulated = 0;
  std::int64_t deduped = 0;
  std::int64_t cache_hits = 0;
  double elapsed_s = 0.0;
  double jobs_per_s = 0.0;
  /// Per-phase latency histograms, copied from the server at drain.
  obs::LatencyHistogram queue_hist;
  obs::LatencyHistogram execute_hist;
  obs::LatencyHistogram serialize_hist;
  obs::LatencyHistogram total_hist;
  int failures = 0;  ///< non-ok responses + counter/identity violations

  double quantile_ms(const obs::LatencyHistogram& h, double q) const {
    return h.quantile(q) / 1e6;
  }
};

/// One (workers, dup fraction) run against a fresh server. `reference`
/// maps unique-config index -> payload from the first worker count; later
/// runs must match it byte-for-byte.
RegimeResult run_regime(int workers, double dup, int n_requests,
                        int n_molecules, std::size_t queue_cap,
                        sim::SimEngine engine,
                        kernel::KernelBackend kernel_backend,
                        bool quantile_check,
                        std::map<int, std::string>& reference) {
  RegimeResult r;
  r.workers = workers;
  r.dup_fraction = dup;
  r.n_requests = n_requests;
  r.n_unique = std::max(
      1, static_cast<int>(static_cast<double>(n_requests) * (1.0 - dup) + 0.5));

  auto& reg = obs::CounterRegistry::global();
  const std::int64_t sim0 = reg.counter("svc.jobs.simulated");
  const std::int64_t dedup0 = reg.counter("svc.jobs.deduped");
  const std::int64_t cache0 = reg.counter("svc.jobs.cache_hit");

  svc::ServerOptions opts;
  opts.workers = workers;
  opts.queue_cap = queue_cap;
  opts.engine = engine;
  opts.kernel_backend = kernel_backend;
  svc::Server server(opts);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<svc::JobHandle> handles;
  handles.reserve(static_cast<std::size_t>(n_requests));
  for (int i = 0; i < n_requests; ++i) {
    svc::Request req;
    req.id = "load-" + std::to_string(i);
    req.config = unique_config(i % r.n_unique);
    req.n_molecules = n_molecules;
    handles.push_back(server.submit(req));
  }
  server.drain();
  r.elapsed_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count();

  // Raw samples, kept ONLY as the ground truth for the histogram
  // cross-check -- reporting reads the histograms.
  std::vector<std::int64_t> total_ns;
  std::vector<std::int64_t> queue_ns;
  std::vector<std::int64_t> execute_ns;
  std::vector<std::int64_t> serialize_ns;
  total_ns.reserve(handles.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const svc::Response& resp = handles[i].wait();
    // Partition invariant: the six phases tile submit->delivery exactly.
    const std::int64_t phase_sum = resp.admission_ns + resp.queue_ns +
                                   resp.lookup_ns + resp.simulate_ns +
                                   resp.serialize_ns + resp.complete_ns;
    if (phase_sum != resp.total_ns) {
      std::printf("FAIL: %s phases sum to %lld ns, total is %lld ns\n",
                  resp.id.c_str(), static_cast<long long>(phase_sum),
                  static_cast<long long>(resp.total_ns));
      ++r.failures;
    }
    if (!resp.ok()) {
      ++r.failures;
      continue;
    }
    total_ns.push_back(resp.total_ns);
    queue_ns.push_back(resp.queue_ns);
    execute_ns.push_back(resp.lookup_ns + resp.simulate_ns);
    serialize_ns.push_back(resp.serialize_ns);
    const int cfg_idx = static_cast<int>(i) % r.n_unique;
    auto [it, inserted] = reference.emplace(cfg_idx, resp.payload);
    if (!inserted && it->second != resp.payload) {
      ++r.failures;  // payload differs across worker counts / requests
    }
  }
  r.queue_hist = server.queue_wait_hist();
  r.execute_hist = server.execute_hist();
  r.serialize_hist = server.serialize_hist();
  r.total_hist = server.total_hist();
  server.shutdown();

  r.simulated = reg.counter("svc.jobs.simulated") - sim0;
  r.deduped = reg.counter("svc.jobs.deduped") - dedup0;
  r.cache_hits = reg.counter("svc.jobs.cache_hit") - cache0;
  if (r.simulated > r.n_unique) ++r.failures;  // over-simulation: dedup broke
  r.jobs_per_s = static_cast<double>(n_requests) / r.elapsed_s;
  if (quantile_check) {
    r.failures += quantile_cross_check(queue_ns, r.queue_hist, "queue");
    r.failures += quantile_cross_check(execute_ns, r.execute_hist, "execute");
    r.failures +=
        quantile_cross_check(serialize_ns, r.serialize_hist, "serialize");
    r.failures += quantile_cross_check(total_ns, r.total_hist, "total");
  }
  return r;
}

obs::Json phase_json(const obs::LatencyHistogram& h) {
  obs::Json j = obs::Json::object();
  j.set("count", h.count());
  j.set("p50_ms", h.quantile(0.50) / 1e6);
  j.set("p95_ms", h.quantile(0.95) / 1e6);
  j.set("p99_ms", h.quantile(0.99) / 1e6);
  j.set("mean_ms", h.mean_ns() / 1e6);
  j.set("max_ms", static_cast<double>(h.max_ns()) / 1e6);
  return j;
}

obs::Json to_json(const RegimeResult& r) {
  obs::Json j = obs::Json::object();
  j.set("workers", r.workers)
      .set("dup_fraction", r.dup_fraction)
      .set("n_requests", r.n_requests)
      .set("n_unique", r.n_unique)
      .set("simulated", r.simulated)
      .set("deduped", r.deduped)
      .set("cache_hits", r.cache_hits)
      .set("elapsed_s", r.elapsed_s)
      .set("jobs_per_s", r.jobs_per_s)
      .set("p50_ms", r.quantile_ms(r.total_hist, 0.50))
      .set("p95_ms", r.quantile_ms(r.total_hist, 0.95))
      .set("p99_ms", r.quantile_ms(r.total_hist, 0.99))
      .set("failures", r.failures);
  obs::Json phases = obs::Json::object();
  phases.set("queue_wait", phase_json(r.queue_hist));
  phases.set("execute", phase_json(r.execute_hist));
  phases.set("serialize", phase_json(r.serialize_hist));
  phases.set("total", phase_json(r.total_hist));
  j.set("phases", std::move(phases));
  j.set("total_histogram", r.total_hist.to_json());
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  static const char* kUsage =
      "bench_svc_load [--requests N] [--molecules N] [--workers a,b,c] "
      "[--dups a,b,c] [--queue-cap N] [--engine stepped|event|lockstep] "
      "[--kernel-backend interp|vm|lockstep] "
      "[--json path] [--no-quantile-check]";
  benchio::check_flags(argc, argv, "bench_svc_load", kUsage,
                       {"--requests", "--molecules", "--workers", "--dups",
                        "--queue-cap", "--engine", "--kernel-backend",
                        "--json"},
                       {"--no-quantile-check"});
  benchio::JsonOut jout(argc, argv, "bench_svc_load");

  const int n_requests = benchio::int_flag_or_exit(
      argc, argv, "bench_svc_load", "requests", 1000, kUsage);
  const int n_molecules =
      benchio::molecules_or_exit(argc, argv, "bench_svc_load", 32, kUsage)
          .front();
  const std::vector<int> workers = benchio::int_list_flag_or_exit(
      argc, argv, "bench_svc_load", "workers", {1, 4}, kUsage);
  const std::vector<int> dup_pcts = benchio::int_list_flag_or_exit(
      argc, argv, "bench_svc_load", "dups", {0, 50, 100}, kUsage);
  const std::size_t queue_cap =
      static_cast<std::size_t>(benchio::int_flag_or_exit(
          argc, argv, "bench_svc_load", "queue-cap", n_requests + 16, kUsage));
  const sim::SimEngine engine =
      sim::parse_engine(benchio::engine_flag(argc, argv));
  const kernel::KernelBackend kernel_backend =
      kernel::parse_kernel_backend(benchio::kernel_backend_flag(argc, argv));
  bool quantile_check = true;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--no-quantile-check") quantile_check = false;
  }

  std::printf("== svc load: %d requests, %d molecules, dup regimes ",
              n_requests, n_molecules);
  for (const int d : dup_pcts) std::printf("%d%% ", d);
  std::printf("==\n\n");

  util::Table t({"workers", "dup", "unique", "simulated", "deduped",
                 "jobs/s", "p50 (ms)", "p95 (ms)", "p99 (ms)", "check"});
  util::Table pt({"workers", "dup", "phase", "p50 (ms)", "p95 (ms)",
                  "p99 (ms)", "max (ms)"});
  std::vector<RegimeResult> rows;
  int failures = 0;
  for (const int d : dup_pcts) {
    // The reference payloads are per-regime: the first worker count
    // defines them, every later worker count must reproduce them exactly.
    std::map<int, std::string> reference;
    for (const int w : workers) {
      const RegimeResult r =
          run_regime(w, static_cast<double>(d) / 100.0, n_requests,
                     n_molecules, queue_cap, engine, kernel_backend,
                     quantile_check, reference);
      failures += r.failures;
      t.add_row({std::to_string(r.workers), std::to_string(d) + "%",
                 std::to_string(r.n_unique), std::to_string(r.simulated),
                 std::to_string(r.deduped), util::Table::num(r.jobs_per_s, 1),
                 util::Table::num(r.quantile_ms(r.total_hist, 0.50), 3),
                 util::Table::num(r.quantile_ms(r.total_hist, 0.95), 3),
                 util::Table::num(r.quantile_ms(r.total_hist, 0.99), 3),
                 r.failures == 0 ? "ok" : "FAIL"});
      const std::pair<const char*, const obs::LatencyHistogram*> phases[] = {
          {"queue", &r.queue_hist},
          {"execute", &r.execute_hist},
          {"serialize", &r.serialize_hist},
          {"total", &r.total_hist}};
      for (const auto& [name, h] : phases) {
        pt.add_row({std::to_string(r.workers), std::to_string(d) + "%", name,
                    util::Table::num(r.quantile_ms(*h, 0.50), 3),
                    util::Table::num(r.quantile_ms(*h, 0.95), 3),
                    util::Table::num(r.quantile_ms(*h, 0.99), 3),
                    util::Table::num(static_cast<double>(h->max_ns()) / 1e6,
                                     3)});
      }
      rows.push_back(r);
    }
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("per-phase latency (histogram quantiles, served requests):\n%s\n",
              pt.render().c_str());

  // Mergeability at scale: folding the per-regime totals bucket-wise must
  // conserve every sample.
  obs::LatencyHistogram merged;
  std::uint64_t sample_sum = 0;
  for (const RegimeResult& r : rows) {
    merged.merge(r.total_hist);
    sample_sum += r.total_hist.count();
  }
  if (merged.count() != sample_sum) {
    std::printf("FAIL: merged histogram holds %llu samples, regimes total "
                "%llu\n",
                static_cast<unsigned long long>(merged.count()),
                static_cast<unsigned long long>(sample_sum));
    ++failures;
  }
  std::printf("all regimes merged: %llu served requests, total latency "
              "p50 %.3f / p95 %.3f / p99 %.3f ms\n",
              static_cast<unsigned long long>(merged.count()),
              merged.quantile(0.50) / 1e6, merged.quantile(0.95) / 1e6,
              merged.quantile(0.99) / 1e6);
  std::printf("invariants: simulated == unique configs per regime; payloads "
              "byte-identical across worker counts; phases partition "
              "total_ns%s -- %s\n",
              quantile_check
                  ? "; histogram quantiles within 1/64 of exact"
                  : "",
              failures == 0 ? "OK" : "FAILED");

  obs::Json record = core::bench_record("bench_svc_load",
                                        tune::Candidate{}.machine(), {});
  record.set("n_requests", n_requests);
  record.set("n_molecules", n_molecules);
  obs::Json regimes = obs::Json::array();
  for (const auto& r : rows) regimes.push_back(to_json(r));
  record.set("regimes", std::move(regimes));
  record.set("merged_total", phase_json(merged));
  record.set("failures", failures);
  jout.set_record(std::move(record));
  return failures == 0 ? 0 : 1;
}
