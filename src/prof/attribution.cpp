#include "src/prof/attribution.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/util/table.h"

namespace smd::prof {
namespace {

using Span = std::pair<std::uint64_t, std::uint64_t>;

/// Memory-lane intervals whose label marks a scatter-add drain.
std::vector<Span> scatter_add_spans(const sim::Timeline& tl,
                                    std::uint64_t horizon) {
  std::vector<Span> raw;
  for (const auto& iv : tl.intervals()) {
    if (iv.lane == sim::Lane::kMemory &&
        iv.label.rfind("scatter-add", 0) == 0) {
      raw.emplace_back(iv.start, iv.end);
    }
  }
  return sim::merge_spans(std::move(raw), horizon);
}

/// Is cycle t covered by the (sorted, disjoint) span list?
bool covered(const std::vector<Span>& spans, std::uint64_t t) {
  auto it = std::upper_bound(
      spans.begin(), spans.end(), t,
      [](std::uint64_t v, const Span& s) { return v < s.first; });
  return it != spans.begin() && t < std::prev(it)->second;
}

std::string pct(std::uint64_t part, std::uint64_t total) {
  char buf[32];
  const double p =
      total ? 100.0 * static_cast<double>(part) / static_cast<double>(total)
            : 0.0;
  std::snprintf(buf, sizeof buf, "%.1f%%", p);
  return buf;
}

}  // namespace

StallTaxonomy& StallTaxonomy::operator+=(const StallTaxonomy& o) {
  total_cycles += o.total_cycles;
  kernel_busy += o.kernel_busy;
  overlap += o.overlap;
  memory_exposed += o.memory_exposed;
  scatter_serialization += o.scatter_serialization;
  sdr_stall += o.sdr_stall;
  schedule_drain += o.schedule_drain;
  return *this;
}

StallTaxonomy attribute_window(const sim::Timeline& tl, std::uint64_t lo,
                               std::uint64_t hi) {
  StallTaxonomy t;
  if (hi <= lo) return t;
  t.total_cycles = hi - lo;

  const auto k = tl.merged(sim::Lane::kKernel, hi);
  const auto m = tl.merged(sim::Lane::kMemory, hi);
  const auto s = tl.merged(sim::Lane::kStall, hi);
  const auto sa = scatter_add_spans(tl, hi);

  // Boundary-event sweep: within each elementary segment every predicate
  // is constant, so classifying the segment start classifies every cycle
  // in it. The segments tile [lo, hi) exactly, hence sum() == total.
  std::vector<std::uint64_t> bounds{lo, hi};
  for (const auto* lanes : {&k, &m, &s, &sa}) {
    for (const auto& [a, b] : *lanes) {
      if (a > lo && a < hi) bounds.push_back(a);
      if (b > lo && b < hi) bounds.push_back(b);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const std::uint64_t a = bounds[i];
    const std::uint64_t len = bounds[i + 1] - a;
    const bool in_k = covered(k, a);
    const bool in_m = covered(m, a);
    if (in_k && in_m) {
      t.overlap += len;
    } else if (in_m && covered(sa, a)) {
      t.scatter_serialization += len;
    } else if (in_m) {
      t.memory_exposed += len;
    } else if (covered(s, a)) {
      t.sdr_stall += len;
    } else if (in_k) {
      t.kernel_busy += len;
    } else {
      t.schedule_drain += len;
    }
  }
  return t;
}

StallTaxonomy attribute_cycles(const sim::RunStats& stats) {
  return attribute_window(stats.timeline, 0, stats.cycles);
}

std::vector<KernelSlice> kernel_slices(const sim::Timeline& tl,
                                       std::uint64_t horizon) {
  std::vector<KernelSlice> slices;
  for (const auto& iv : tl.intervals()) {
    if (iv.lane != sim::Lane::kKernel || iv.start >= horizon) continue;
    const std::uint64_t end = std::min(iv.end, horizon);
    auto it = std::find_if(slices.begin(), slices.end(),
                           [&](const KernelSlice& s) { return s.label == iv.label; });
    if (it == slices.end()) {
      slices.push_back({iv.label, 0, 0});
      it = std::prev(slices.end());
    }
    ++it->launches;
    if (end > iv.start) it->busy_cycles += end - iv.start;
  }
  std::sort(slices.begin(), slices.end(),
            [](const KernelSlice& a, const KernelSlice& b) {
              return a.busy_cycles > b.busy_cycles;
            });
  return slices;
}

std::vector<StripWindow> strip_attribution(const sim::RunStats& stats) {
  // One window per kernel launch: the strip "owns" the span from its
  // launch to the next launch (the tail strip runs to the end of the run),
  // and the pre-first-launch priming window joins the first strip.
  std::vector<std::uint64_t> starts;
  for (const auto& iv : stats.timeline.intervals()) {
    if (iv.lane == sim::Lane::kKernel && iv.start < stats.cycles) {
      starts.push_back(iv.start);
    }
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

  std::vector<StripWindow> strips;
  if (stats.cycles == 0) return strips;
  std::uint64_t lo = 0;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::uint64_t hi = i + 1 < starts.size() ? starts[i + 1] : stats.cycles;
    if (hi <= lo) continue;
    StripWindow w;
    w.index = static_cast<int>(strips.size());
    w.lo = lo;
    w.hi = hi;
    w.taxonomy = attribute_window(stats.timeline, lo, hi);
    strips.push_back(std::move(w));
    lo = hi;
  }
  if (strips.empty()) {
    StripWindow w;
    w.lo = 0;
    w.hi = stats.cycles;
    w.taxonomy = attribute_cycles(stats);
    strips.push_back(std::move(w));
  }
  return strips;
}

WasteAccounting waste_accounting(const core::VariantResult& r,
                                 double flops_per_interaction,
                                 int n_molecules) {
  WasteAccounting w;
  w.variant = r.name;
  w.executed_flops = r.run.interp.executed.flops;
  w.useful_flops =
      flops_per_interaction * static_cast<double>(r.n_real_interactions);
  w.wasted_flops = static_cast<double>(w.executed_flops) - w.useful_flops;
  if (w.wasted_flops < 0.0) w.wasted_flops = 0.0;
  if (w.executed_flops > 0) {
    w.wasted_flop_fraction =
        w.wasted_flops / static_cast<double>(w.executed_flops);
  }
  if (r.variant == core::Variant::kExpanded) {
    // The expanded layout stores a 9-word central-position copy in every
    // interaction record (vs. one canonical copy per molecule) and a
    // PBC-shifted 9-word neighbor image per interaction: pure replication
    // traffic that the blocked layouts avoid.
    const std::int64_t n = r.n_computed_interactions;
    w.replication_words = core::kPosWords * (n - n_molecules) +
                          core::kPosWords * n;
    if (w.replication_words < 0) w.replication_words = 0;
  }
  if (r.variant == core::Variant::kVariable) {
    w.cond_overhead_accesses =
        r.run.interp.cond_accesses - r.run.interp.cond_taken;
  }
  return w;
}

obs::Json to_json(const StallTaxonomy& t) {
  obs::Json j = obs::Json::object();
  j.set("total_cycles", t.total_cycles);
  j.set("kernel_busy", t.kernel_busy);
  j.set("overlap", t.overlap);
  j.set("memory_exposed", t.memory_exposed);
  j.set("scatter_serialization", t.scatter_serialization);
  j.set("sdr_stall", t.sdr_stall);
  j.set("schedule_drain", t.schedule_drain);
  j.set("exhaustive", t.exhaustive());
  return j;
}

obs::Json to_json(const WasteAccounting& w) {
  obs::Json j = obs::Json::object();
  j.set("variant", w.variant);
  j.set("executed_flops", w.executed_flops);
  j.set("useful_flops", w.useful_flops);
  j.set("wasted_flops", w.wasted_flops);
  j.set("wasted_flop_fraction", w.wasted_flop_fraction);
  j.set("replication_words", w.replication_words);
  j.set("cond_overhead_accesses", w.cond_overhead_accesses);
  return j;
}

std::string format_attribution(const StallTaxonomy& t,
                               const std::vector<KernelSlice>& slices,
                               const WasteAccounting& waste) {
  std::ostringstream os;
  util::Table tax({"Bucket", "Cycles", "% of total"});
  const std::vector<std::pair<const char*, std::uint64_t>> rows = {
      {"kernel busy (compute only)", t.kernel_busy},
      {"overlap (memory hidden)", t.overlap},
      {"memory exposed", t.memory_exposed},
      {"scatter-add serialization", t.scatter_serialization},
      {"SDR stall", t.sdr_stall},
      {"schedule drain", t.schedule_drain},
  };
  for (const auto& [name, cycles] : rows) {
    tax.add_row({name, std::to_string(cycles), pct(cycles, t.total_cycles)});
  }
  tax.add_row({"total", std::to_string(t.total_cycles),
               t.exhaustive() ? "100.0% (exact)" : "MISMATCH"});
  os << tax.render();

  if (!slices.empty()) {
    util::Table ks({"Kernel", "Launches", "Busy cycles"});
    for (const auto& s : slices) {
      ks.add_row({s.label, std::to_string(s.launches),
                  std::to_string(s.busy_cycles)});
    }
    os << "\n" << ks.render();
  }

  os << "\nwaste (" << waste.variant << "): executed "
     << waste.executed_flops << " flops, useful "
     << static_cast<std::int64_t>(waste.useful_flops) << ", wasted "
     << static_cast<std::int64_t>(waste.wasted_flops) << " ("
     << pct(static_cast<std::uint64_t>(waste.wasted_flops),
            static_cast<std::uint64_t>(waste.executed_flops))
     << ")\n";
  if (waste.replication_words > 0) {
    os << "  replication traffic: " << waste.replication_words
       << " position words stored per-interaction instead of per-molecule\n";
  }
  if (waste.cond_overhead_accesses > 0) {
    os << "  conditional-stream overhead: " << waste.cond_overhead_accesses
       << " slots accessed but not transferred\n";
  }
  return os.str();
}

}  // namespace smd::prof
