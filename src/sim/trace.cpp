#include "src/sim/trace.h"

#include <algorithm>
#include <sstream>

namespace smd::sim {
namespace {

using Span = std::pair<std::uint64_t, std::uint64_t>;

std::uint64_t total_length(const std::vector<Span>& spans) {
  std::uint64_t n = 0;
  for (const auto& [s, e] : spans) n += e - s;
  return n;
}

/// Length of the overlap between [lo, hi) and the merged span list,
/// advancing `cursor` past spans that end before `lo` (callers sweep rows
/// left to right, so the walk is amortized O(1) per row).
std::uint64_t coverage(const std::vector<Span>& spans, std::size_t& cursor,
                       std::uint64_t lo, std::uint64_t hi) {
  while (cursor < spans.size() && spans[cursor].second <= lo) ++cursor;
  std::uint64_t covered = 0;
  for (std::size_t i = cursor; i < spans.size() && spans[i].first < hi; ++i) {
    covered += std::min(hi, spans[i].second) - std::max(lo, spans[i].first);
  }
  return covered;
}

}  // namespace

obs::Json to_json(const Interval& iv) {
  obs::Json j = obs::Json::object();
  j.set("start", iv.start)
      .set("end", iv.end)
      .set("lane", static_cast<int>(iv.lane))
      .set("track", iv.track)
      .set("label", iv.label);
  return j;
}

void Timeline::add(Lane lane, std::uint64_t start, std::uint64_t end,
                   std::string label, int track) {
  if (end < start) return;
  intervals_.push_back({start, end, lane, std::move(label), track});
}

std::vector<Span> merge_spans(std::vector<Span> spans, std::uint64_t horizon) {
  // Zero-length spans (a timeline's markers) cover nothing. Clipping a
  // span that crosses the horizon can also leave one empty (start ==
  // horizon).
  std::erase_if(spans, [horizon](const Span& s) {
    return s.first >= horizon || s.second <= s.first;
  });
  for (auto& s : spans) s.second = std::min(s.second, horizon);
  std::sort(spans.begin(), spans.end());
  std::vector<Span> out;
  for (const auto& s : spans) {
    if (!out.empty() && s.first <= out.back().second) {
      out.back().second = std::max(out.back().second, s.second);
    } else {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<Span> Timeline::merged(Lane lane, std::uint64_t horizon) const {
  std::vector<Span> spans;
  for (const auto& iv : intervals_) {
    if (iv.lane == lane) spans.emplace_back(iv.start, iv.end);
  }
  return merge_spans(std::move(spans), horizon);
}

std::uint64_t Timeline::busy_cycles(Lane lane, std::uint64_t horizon) const {
  return total_length(merged(lane, horizon));
}

std::uint64_t Timeline::overlap_cycles(std::uint64_t horizon) const {
  const auto k = merged(Lane::kKernel, horizon);
  const auto m = merged(Lane::kMemory, horizon);
  std::uint64_t n = 0;
  std::size_t i = 0, j = 0;
  while (i < k.size() && j < m.size()) {
    const std::uint64_t lo = std::max(k[i].first, m[j].first);
    const std::uint64_t hi = std::min(k[i].second, m[j].second);
    if (lo < hi) n += hi - lo;
    if (k[i].second < m[j].second) ++i;
    else ++j;
  }
  return n;
}

std::string Timeline::ascii(std::uint64_t horizon,
                            std::uint64_t cycles_per_row) const {
  const auto k = merged(Lane::kKernel, horizon);
  const auto m = merged(Lane::kMemory, horizon);
  std::size_t kc = 0, mc = 0;
  std::ostringstream os;
  os << "    cycle  kernel   memory\n";
  for (std::uint64_t row = 0; row * cycles_per_row < horizon; ++row) {
    const std::uint64_t lo = row * cycles_per_row;
    const std::uint64_t hi = std::min(horizon, lo + cycles_per_row);
    const double kb = static_cast<double>(coverage(k, kc, lo, hi));
    const double mb = static_cast<double>(coverage(m, mc, lo, hi));
    const double span = static_cast<double>(hi - lo);
    auto bar = [&](double frac) {
      const int width = 8;
      const int n = static_cast<int>(frac / span * width + 0.5);
      std::string s(static_cast<std::size_t>(n), '#');
      s.resize(width, ' ');
      return s;
    };
    os << std::string(9 - std::min<std::size_t>(9, std::to_string(lo).size()), ' ')
       << lo << "  " << bar(kb) << " " << bar(mb) << "\n";
  }
  return os.str();
}

void Timeline::append_chrome_events(obs::TraceSink& sink, int pid,
                                    double clock_ghz) const {
  // SDR-stall slices go on a single dedicated track well above any
  // plausible SDR slot count, so they never collide with memory tracks.
  constexpr int kStallTid = 999;
  sink.set_track_name(pid, 0, "clusters (kernel)");
  const double ns_per_cycle = clock_ghz > 0 ? 1.0 / clock_ghz : 1.0;
  std::vector<int> mem_tracks;
  bool stall_track_named = false;
  for (const auto& iv : intervals_) {
    obs::TraceEvent ev;
    ev.name = iv.label;
    ev.pid = pid;
    ev.ts_ns = static_cast<std::uint64_t>(
        static_cast<double>(iv.start) * ns_per_cycle);
    ev.dur_ns = static_cast<std::uint64_t>(
        static_cast<double>(iv.end - iv.start) * ns_per_cycle);
    if (iv.lane == Lane::kKernel) {
      ev.category = "kernel";
      ev.tid = 0;
    } else if (iv.lane == Lane::kStall) {
      ev.category = "stall";
      ev.tid = kStallTid;
      if (!stall_track_named) {
        stall_track_named = true;
        sink.set_track_name(pid, kStallTid, "SDR stall");
      }
    } else {
      ev.category = "memory";
      ev.tid = 1 + iv.track;
      if (std::find(mem_tracks.begin(), mem_tracks.end(), iv.track) ==
          mem_tracks.end()) {
        mem_tracks.push_back(iv.track);
        sink.set_track_name(pid, ev.tid,
                            "memory (SDR " + std::to_string(iv.track) + ")");
      }
    }
    sink.add(std::move(ev));
  }
}

obs::Json Timeline::chrome_trace_json(double clock_ghz) const {
  obs::TraceSink sink;
  sink.set_process_name(0, "streammd");
  append_chrome_events(sink, 0, clock_ghz);
  return sink.chrome_json();
}

}  // namespace smd::sim
