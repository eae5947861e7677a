#include "src/tune/cache.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "src/obs/registry.h"

namespace smd::tune {

obs::Json Metrics::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("time_ms", time_ms);
  j.set("cycles", static_cast<std::int64_t>(cycles));
  j.set("mem_words", mem_words);
  j.set("srf_peak_words", srf_peak_words);
  j.set("kernel_busy_cycles", static_cast<std::int64_t>(kernel_busy_cycles));
  j.set("mem_busy_cycles", static_cast<std::int64_t>(mem_busy_cycles));
  j.set("solution_gflops", solution_gflops);
  j.set("max_force_rel_err", max_force_rel_err);
  j.set("source", source);
  return j;
}

Metrics Metrics::from_json(const obs::Json& j) {
  Metrics m;
  m.time_ms = j.at("time_ms").as_double();
  m.cycles = static_cast<std::uint64_t>(j.at("cycles").as_int());
  m.mem_words = j.at("mem_words").as_int();
  m.srf_peak_words = j.at("srf_peak_words").as_int();
  m.kernel_busy_cycles =
      static_cast<std::uint64_t>(j.at("kernel_busy_cycles").as_int());
  m.mem_busy_cycles =
      static_cast<std::uint64_t>(j.at("mem_busy_cycles").as_int());
  m.solution_gflops = j.at("solution_gflops").as_double();
  m.max_force_rel_err = j.at("max_force_rel_err").as_double();
  m.source = j.at("source").as_string();
  return m;
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

namespace {

std::uint64_t parse_hash_hex(const std::string& s) {
  if (s.size() != 16) throw std::runtime_error("bad cache key '" + s + "'");
  return std::stoull(s, nullptr, 16);
}

}  // namespace

ResultCache::ResultCache(std::string path, std::string salt)
    : path_(std::move(path)), salt_(std::move(salt)) {}

std::size_t ResultCache::load() {
  if (!enabled()) return 0;
  entries_.clear();
  dirty_ = false;
  std::ifstream in(path_);
  if (!in.good()) return 0;  // missing file: empty cache
  obs::Json doc;
  try {
    doc = obs::load_file(path_);
  } catch (const std::exception&) {
    // Unreadable or torn file (e.g. a crash mid-write before the atomic
    // rename discipline existed): an empty cache, never a poisoned warm
    // start. The counter makes the silent skip observable.
    obs::CounterRegistry::global().add("tune.cache.load_corrupt");
    return 0;
  }
  const obs::Json* version = doc.find("schema_version");
  const obs::Json* salt = doc.find("salt");
  const obs::Json* entries = doc.find("entries");
  if (version == nullptr || !version->is_number() || version->as_int() != 1 ||
      salt == nullptr || !salt->is_string() || salt->as_string() != salt_ ||
      entries == nullptr || !entries->is_object()) {
    return 0;  // model version changed: every entry is stale
  }
  for (const auto& [key, value] : entries->items()) {
    // A malformed entry (hand-edited, or produced by a newer layout) is
    // skipped -- it will simply re-simulate -- instead of discarding the
    // whole cache or throwing out of a warm start.
    try {
      Entry e{Candidate::from_json(value.at("config")),
              Metrics::from_json(value.at("metrics"))};
      entries_.emplace(parse_hash_hex(key), std::move(e));
    } catch (const std::exception&) {
      obs::CounterRegistry::global().add("tune.cache.load_skipped");
    }
  }
  return entries_.size();
}

bool ResultCache::lookup(std::uint64_t hash, Metrics* out) const {
  const auto it = entries_.find(hash);
  if (it == entries_.end()) return false;
  *out = it->second.metrics;
  return true;
}

void ResultCache::insert(std::uint64_t hash, const Candidate& cand,
                         const Metrics& m) {
  entries_.insert_or_assign(hash, Entry{cand, m});
  dirty_ = true;
}

void ResultCache::save() {
  if (!enabled() || !dirty_) return;
  obs::Json entries = obs::Json::object();
  for (const auto& [hash, entry] : entries_) {
    obs::Json e = obs::Json::object();
    e.set("config", entry.config.to_json());
    e.set("metrics", entry.metrics.to_json());
    entries.set(hash_hex(hash), std::move(e));
  }
  obs::Json doc = obs::Json::object();
  doc.set("schema_version", 1);
  doc.set("salt", salt_);
  doc.set("entries", std::move(entries));
  // Atomic temp-file + rename: a crash mid-save leaves the previous cache
  // intact instead of a torn JSON document poisoning every warm start.
  obs::write_file_atomic(doc, path_);
  dirty_ = false;
}

}  // namespace smd::tune
