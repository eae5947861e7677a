#include "src/tune/pareto.h"

#include <algorithm>

#include "src/obs/registry.h"
#include "src/prof/roofline.h"
#include "src/util/table.h"

namespace smd::tune {
namespace {

/// a dominates b: no worse on all three objectives, better on one.
bool dominates(const Metrics& a, const Metrics& b) {
  const bool no_worse = a.time_ms <= b.time_ms && a.mem_words <= b.mem_words &&
                        a.srf_peak_words <= b.srf_peak_words;
  const bool better = a.time_ms < b.time_ms || a.mem_words < b.mem_words ||
                      a.srf_peak_words < b.srf_peak_words;
  return no_worse && better;
}

}  // namespace

std::vector<std::size_t> pareto_front(const std::vector<EvalResult>& results) {
  const auto equal = [](const Metrics& a, const Metrics& b) {
    return a.time_ms == b.time_ms && a.mem_words == b.mem_words &&
           a.srf_peak_words == b.srf_peak_words;
  };
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) continue;
    bool drop = false;
    for (std::size_t j = 0; j < results.size() && !drop; ++j) {
      if (i == j || !results[j].ok()) continue;
      // Dominated, or a duplicate of an earlier point (keep the first).
      drop = dominates(results[j].metrics, results[i].metrics) ||
             (j < i && equal(results[j].metrics, results[i].metrics));
    }
    if (!drop) front.push_back(i);
  }
  return front;
}

std::size_t best_index(const std::vector<EvalResult>& results) {
  std::size_t best = results.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) continue;
    if (best == results.size() ||
        results[i].metrics.time_ms < results[best].metrics.time_ms) {
      best = i;
    }
  }
  return best;
}

std::vector<std::size_t> best_per_variant(
    const std::vector<EvalResult>& results) {
  std::vector<std::size_t> best;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) continue;
    bool found = false;
    for (std::size_t& b : best) {
      if (results[b].cand.variant != results[i].cand.variant) continue;
      found = true;
      if (results[i].metrics.time_ms < results[b].metrics.time_ms) b = i;
    }
    if (!found) best.push_back(i);
  }
  std::sort(best.begin(), best.end(), [&](std::size_t a, std::size_t b) {
    return results[a].metrics.time_ms < results[b].metrics.time_ms;
  });
  return best;
}

std::string format_results_table(const std::vector<EvalResult>& results,
                                 const std::vector<std::size_t>& front) {
  util::Table t({"", "candidate", "time (ms)", "mem (Kwords)", "SRF peak",
                 "GFLOPS", "source"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const EvalResult& r = results[i];
    if (!r.ok()) {
      t.add_row({" ", r.cand.label(), "error", "-", "-", "-", r.error});
      continue;
    }
    const bool on_front =
        std::find(front.begin(), front.end(), i) != front.end();
    std::string tag;
    if (on_front) tag += "*";
    if (r.cached) tag += "c";
    if (r.pruned) tag += "p";
    if (r.shared) tag += "s";
    t.add_row({tag.empty() ? " " : tag, r.cand.label(),
               util::Table::num(r.metrics.time_ms, 3),
               util::Table::num(static_cast<double>(r.metrics.mem_words) / 1e3,
                                1),
               std::to_string(r.metrics.srf_peak_words),
               util::Table::num(r.metrics.solution_gflops, 2),
               r.metrics.source});
  }
  return t.render();
}

obs::Json to_json(const EvalResult& r) {
  obs::Json j = obs::Json::object();
  j.set("config", r.cand.to_json());
  j.set("hash", hash_hex(r.hash));
  j.set("label", r.cand.label());
  j.set("cached", r.cached);
  j.set("pruned", r.pruned);
  j.set("shared", r.shared);
  if (!r.ok()) {
    j.set("error", r.error);
  } else {
    j.set("metrics", r.metrics.to_json());
    // Which resource bound this candidate's run -- lets a sweep consumer
    // separate "needs more compute" from "needs more bandwidth" points
    // without re-running anything.
    j.set("binding_resource",
          prof::binding_verdict(r.metrics.kernel_busy_cycles,
                                r.metrics.mem_busy_cycles));
  }
  return j;
}

obs::Json report_json(const std::vector<EvalResult>& results) {
  const std::vector<std::size_t> front = pareto_front(results);
  obs::Json rows = obs::Json::array();
  for (const EvalResult& r : results) rows.push_back(to_json(r));
  obs::Json front_json = obs::Json::array();
  for (const std::size_t i : front) {
    front_json.push_back(static_cast<std::int64_t>(i));
  }
  obs::Json best_json = obs::Json::array();
  for (const std::size_t i : best_per_variant(results)) {
    best_json.push_back(static_cast<std::int64_t>(i));
  }
  obs::Json out = obs::Json::object();
  out.set("results", std::move(rows));
  out.set("pareto_front", std::move(front_json));
  const std::size_t best = best_index(results);
  out.set("best", best < results.size()
                      ? obs::Json(static_cast<std::int64_t>(best))
                      : obs::Json(nullptr));
  out.set("best_per_variant", std::move(best_json));
  out.set("telemetry", obs::CounterRegistry::global().to_json());
  return out;
}

}  // namespace smd::tune
