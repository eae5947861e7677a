// Execution timeline tracing (Figure 7).
//
// The stream controller records one interval per stream op -- kernel
// launches on the kernel lane, loads/stores/scatter-add drains on the
// memory lane (one track per SDR slot) -- and this class answers the
// occupancy questions behind the paper's Figure 7: busy cycles per lane,
// kernel/memory overlap, the two-column ASCII snippet, and a Chrome
// trace-event export viewable in chrome://tracing / Perfetto.
//
// Occupancy math is sorted interval-merge, O(n log n) in the number of
// intervals and independent of the cycle horizon, so tracing full
// multi-timestep runs (horizons of 10^8+ cycles) stays cheap.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace_event.h"

namespace smd::sim {

/// kStall is a bookkeeping lane, not a hardware resource: the controller
/// records one interval per run of cycles in which a memory op was ready
/// to issue but no stream descriptor register was free. The profiler
/// (src/prof) intersects it with the kernel/memory lanes to attribute
/// cycles; busy_cycles(Lane::kStall, cycles) always equals the
/// RunStats::sdr_stall_cycles counter.
enum class Lane : int { kKernel = 0, kMemory = 1, kStall = 2 };

struct Interval {
  std::uint64_t start;
  std::uint64_t end;  // exclusive
  Lane lane;
  std::string label;
  int track = 0;  ///< sub-track within the lane (memory: SDR slot)
};

/// Every field (lane as its integer value), for the bit-identity gates.
obs::Json to_json(const Interval& iv);

/// Sorted, disjoint spans covering `spans` ([start, end) pairs) clipped to
/// [0, horizon); empty and inverted spans are dropped. The one interval
/// merge behind Timeline::merged and the profiler's span lists (src/prof).
std::vector<std::pair<std::uint64_t, std::uint64_t>> merge_spans(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans,
    std::uint64_t horizon);

class Timeline {
 public:
  /// Record one interval. Zero-length intervals (start == end) are kept --
  /// they carry labels into the Chrome export as instantaneous markers and
  /// count toward intervals() -- but contribute nothing to any occupancy
  /// quantity. Inverted intervals (end < start) are dropped.
  void add(Lane lane, std::uint64_t start, std::uint64_t end,
           std::string label, int track = 0);

  const std::vector<Interval>& intervals() const { return intervals_; }
  bool empty() const { return intervals_.empty(); }

  /// Cycles where the lane is busy (union of intervals) within [0, horizon).
  std::uint64_t busy_cycles(Lane lane, std::uint64_t horizon) const;
  /// Cycles where both lanes are busy simultaneously within [0, horizon).
  std::uint64_t overlap_cycles(std::uint64_t horizon) const;

  /// Disjoint, sorted busy spans of a lane clipped to [0, horizon).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged(
      Lane lane, std::uint64_t horizon) const;

  /// ASCII rendering: one row per `cycles_per_row` cycles, two columns
  /// (kernel | memory), '#' = busy. Mirrors Figure 7's layout.
  std::string ascii(std::uint64_t horizon, std::uint64_t cycles_per_row) const;

  /// Append one Chrome trace slice per interval to `sink` under process
  /// `pid`: tid 0 = the kernel lane ("clusters"), tid 1 + track = that
  /// memory SDR slot, and a dedicated high tid = the SDR-stall lane.
  /// Cycles convert to ns at `clock_ghz`.
  void append_chrome_events(obs::TraceSink& sink, int pid,
                            double clock_ghz = 1.0) const;

  /// Single-timeline convenience: a complete Chrome trace document.
  obs::Json chrome_trace_json(double clock_ghz = 1.0) const;

 private:
  std::vector<Interval> intervals_;
};

}  // namespace smd::sim
