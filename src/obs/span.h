// Request-scoped tracing (DESIGN.md section 15).
//
// A SpanContext is the identity of one timed region: a trace id shared
// by everything that happened on behalf of one request, a span id unique
// within the process, and the parent's span id (0 for the trace root).
// Finished spans are plain SpanRecords — name, context, monotonic-ns
// start/end — collected by a thread-safe SpanLog and exported two ways:
//
//   * append_chrome(): nested "X" slices in the existing TraceSink, one
//     track per trace, with the ids and exact ns timestamps carried in
//     the slice args so the tree reconstructs from the trace file
//     (spans_from_chrome);
//   * span_json()/span_from_json(): one compact object per span for the
//     JSONL structured event log (event_log.h).
//
// The service layer derives its spans from a single non-decreasing
// boundary-timestamp chain per request, so the child spans of a trace
// tile the root exactly — spans_partition_exactly() is the checker for
// that per-request sum-to-total invariant (the request-scoped analogue
// of the cycle-attribution invariant of DESIGN.md section 9).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/trace_event.h"

namespace smd::obs {

/// Steady-clock nanoseconds since a process-wide epoch captured on first
/// use. All spans (any thread) share this one timeline.
std::int64_t monotonic_ns();

struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = trace root
};

struct SpanRecord {
  SpanContext ctx;
  std::string name;
  std::string category = "span";
  std::string arg;  ///< free-form label (e.g. the request id), may be ""
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Chrome pid all span tracks live under (one tid per trace).
inline constexpr int kSpanChromePid = 7;

class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Fresh trace id + root span id (parent 0).
  SpanContext make_root();
  /// Same trace as `parent`, fresh span id, parent_id = parent.span_id.
  SpanContext make_child(const SpanContext& parent);

  void record(SpanRecord rec);

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  std::vector<SpanRecord> snapshot() const;
  void clear();

  /// Emit every recorded span as a complete slice: pid kSpanChromePid,
  /// tid = the trace id (one track per trace, named after the root
  /// span's arg when present), ids + exact ns timestamps in the args.
  void append_chrome(TraceSink* sink) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::atomic<std::uint64_t> next_trace_{1};
  std::atomic<std::uint64_t> next_span_{1};
};

/// One JSONL event line: {"type":"span","trace":"<16hex>","span":...,
/// "parent":...,"name":...,"cat":...,"arg":...,"start_ns":...,"end_ns":...}.
Json span_json(const SpanRecord& rec);
/// Inverse of span_json(); throws std::runtime_error on malformed input.
SpanRecord span_from_json(const Json& j);

/// Rebuild spans from a TraceSink::chrome_json() document — only slices
/// whose args carry span ids are considered, so sim-timeline slices in a
/// merged trace are ignored.
std::vector<SpanRecord> spans_from_chrome(const Json& chrome_doc);

/// The per-trace partition invariant: `trace` (every span of ONE trace,
/// any order) must contain exactly one root, and the root's direct
/// children sorted by start must tile it — first child starts at the
/// root's start, each child starts where the previous ended, the last
/// child ends at the root's end. Implies sum(child durations) ==
/// root duration exactly. On failure returns false and, when `why` is
/// non-null, a one-line reason.
bool spans_partition_exactly(const std::vector<SpanRecord>& trace,
                             std::string* why = nullptr);

}  // namespace smd::obs
