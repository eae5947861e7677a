#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "hostbench/hostbench.h"
#include "src/obs/trace_event.h"

namespace smd::hostbench {

void Outcome::fail(const std::string& why) {
  ++failed;
  std::printf("FAIL: %s\n", why.c_str());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Tracer::Chain::Chain(std::string root, std::string arg, std::int64_t t0_ns)
    : root_(std::move(root)), arg_(std::move(arg)), t0_(t0_ns) {}

void Tracer::Chain::mark(std::string child) {
  mark_at(std::move(child), obs::monotonic_ns());
}

void Tracer::Chain::mark_at(std::string child, std::int64_t t_ns) {
  marks_.emplace_back(std::move(child), t_ns);
}

void Tracer::record(const Chain& chain) {
  std::vector<obs::SpanRecord> recs;
  obs::SpanRecord root;
  root.ctx = log_.make_root();
  root.name = chain.root_;
  root.category = "op";
  root.arg = chain.arg_;
  root.start_ns = chain.t0_;
  root.end_ns = chain.end_ns();
  recs.push_back(root);
  std::int64_t begin = chain.t0_;
  for (const auto& [name, end] : chain.marks_) {
    obs::SpanRecord rec;
    rec.ctx = log_.make_child(root.ctx);
    rec.name = name;
    rec.category = "layer";
    rec.start_ns = begin;
    rec.end_ns = end;
    recs.push_back(rec);
    samples_[name].push_back(ms(end - begin));
    begin = end;
  }
  for (obs::SpanRecord& rec : recs) log_.record(std::move(rec));
}

const std::vector<double>& Tracer::samples(const std::string& name) const {
  static const std::vector<double> kNone;
  const auto it = samples_.find(name);
  return it == samples_.end() ? kNone : it->second;
}

double Tracer::median_ms(const std::string& name) const {
  return quantile(samples(name), 0.5);
}

void Tracer::write_chrome(const std::string& path) const {
  obs::TraceSink sink;
  log_.append_chrome(&sink);
  sink.write(path);
}

}  // namespace smd::hostbench
