// The telemetry name schema: every counter, gauge and latency histogram
// the service stack emits, by exact name and kind.
//
// This is the code-level twin of the telemetry table in DESIGN.md
// section 15 -- svc_test checks the two stay identical in both
// directions (each emitted name documented exactly once, each documented
// name actually known), the same drift guard analysis::known_check_ids
// provides for the check-id table. Adding or renaming a metric without
// touching both places fails the build's test suite, not a reader's
// expectations six months later.
#pragma once

#include <vector>

namespace smd::svc {

struct MetricInfo {
  const char* name;
  /// "counter" (monotonic count), "gauge" (last-set value), or
  /// "histogram" (obs::LatencyHistogram, exported via stats snapshots).
  const char* kind;
};

/// Every metric the svc/tune/obs service stack emits, in the order the
/// DESIGN.md section 15 table documents them.
inline const std::vector<MetricInfo>& known_metric_names() {
  static const std::vector<MetricInfo> kMetrics = {
      {"svc.jobs.submitted", "counter"},
      {"svc.jobs.completed", "counter"},
      {"svc.jobs.cancelled", "counter"},
      {"svc.jobs.rejected", "counter"},
      {"svc.jobs.deduped", "counter"},
      {"svc.jobs.cache_hit", "counter"},
      {"svc.jobs.simulated", "counter"},
      {"svc.jobs.internal_errors", "counter"},
      {"svc.cache.save_errors", "counter"},
      {"svc.queue.depth", "gauge"},
      {"svc.queue.peak_depth", "gauge"},
      {"svc.latency.queue_wait", "histogram"},
      {"svc.latency.execute", "histogram"},
      {"svc.latency.serialize", "histogram"},
      {"svc.latency.total", "histogram"},
      {"tune.evaluated", "counter"},
      {"tune.shared", "counter"},
      {"tune.cache.hits", "counter"},
      {"tune.cache.misses", "counter"},
      {"tune.cache.load_corrupt", "counter"},
      {"tune.cache.load_skipped", "counter"},
      {"obs.events.appended", "counter"},
      {"obs.events.rotated", "counter"},
      {"obs.events.load_torn", "counter"},
      {"obs.exporter.snapshots", "counter"},
      {"obs.exporter.errors", "counter"},
  };
  return kMetrics;
}

}  // namespace smd::svc
