// Chrome trace-event export.
//
// A TraceSink collects complete ("ph":"X") events on (pid, tid) tracks and
// serializes them in the Chrome trace-event JSON format, loadable in
// chrome://tracing and Perfetto. The simulator maps one process per
// variant run and one track per lane (kernel array, each memory SDR slot),
// which renders Figure 7's two-column occupancy picture as a real,
// zoomable trace.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"

namespace smd::obs {

/// Version of the Chrome-trace export layout, stamped into the top-level
/// object next to "traceEvents" (Chrome/Perfetto ignore unknown keys) so
/// trace files carry the same versioning as `--json` bench records.
/// History:
///   1  slices + process/thread metadata; schema_version key added
///   2  slices may carry an "args" object of string values (span ids and
///      exact ns timestamps for request traces — span.h); absent when
///      empty, so version-1 consumers are unaffected
inline constexpr int kTraceSchemaVersion = 2;

/// One complete slice on a (pid, tid) track; times in nanoseconds
/// (simulator cycles at 1 GHz map 1:1 to ns).
struct TraceEvent {
  std::string name;
  std::string category;
  int pid = 0;
  int tid = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  /// Optional key/value payload emitted as the slice's "args" object in
  /// insertion order (values are strings so integer ns survive exactly).
  std::vector<std::pair<std::string, std::string>> args;
};

class TraceSink {
 public:
  void set_process_name(int pid, std::string name);
  void set_track_name(int pid, int tid, std::string name);
  void add(TraceEvent ev) { events_.push_back(std::move(ev)); }

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const std::vector<TraceEvent>& events() const { return events_; }

  /// {"traceEvents": [metadata..., slices...], "displayTimeUnit": "ns"}.
  /// Slice "ts"/"dur" are emitted in microseconds (Chrome's native unit)
  /// as fractional values, so nanosecond resolution survives.
  Json chrome_json() const;

  /// chrome_json() pretty-printed to `path`; throws on I/O failure.
  void write(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::pair<int, std::string>> process_names_;
  std::vector<std::pair<std::pair<int, int>, std::string>> track_names_;
};

}  // namespace smd::obs
