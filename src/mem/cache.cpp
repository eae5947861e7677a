#include "src/mem/cache.h"

#include <stdexcept>

namespace smd::mem {

obs::Json to_json(const CacheStats& s) {
  obs::Json j = obs::Json::object();
  j.set("accesses", s.accesses)
      .set("hits", s.hits)
      .set("misses", s.misses)
      .set("secondary_misses", s.secondary_misses)
      .set("dirty_evictions", s.dirty_evictions)
      .set("hit_rate", s.hit_rate());
  return j;
}

namespace {

std::int64_t sets_of(const CacheConfig& cfg) {
  const std::int64_t sets =
      cfg.total_words / cfg.line_words / cfg.associativity;
  if (sets <= 0) throw std::runtime_error("cache too small");
  return sets;
}

}  // namespace

CacheTags::CacheTags(const CacheConfig& cfg)
    : cfg_(cfg),
      n_sets_(sets_of(cfg)),
      line_div_(static_cast<std::uint64_t>(cfg.line_words)),
      bank_div_(static_cast<std::uint64_t>(cfg.n_banks)),
      set_div_(static_cast<std::uint64_t>(n_sets_)) {
  ways_.assign(static_cast<std::size_t>(cfg_.total_words / cfg_.line_words),
               Way{});
}

CacheTags::Way* CacheTags::find(std::uint64_t line_addr) {
  const std::size_t s = set_index(line_addr);
  for (int w = 0; w < cfg_.associativity; ++w) {
    Way& way = ways_[s * static_cast<std::size_t>(cfg_.associativity) +
                     static_cast<std::size_t>(w)];
    if (way.valid && way.line == line_addr) return &way;
  }
  return nullptr;
}

const CacheTags::Way* CacheTags::find(std::uint64_t line_addr) const {
  return const_cast<CacheTags*>(this)->find(line_addr);
}

CacheOutcome CacheTags::probe(std::uint64_t word_addr) {
  ++tick_;
  ++stats_.accesses;
  Way* way = find(line_of(word_addr));
  if (way != nullptr) {
    way->lru = tick_;
    ++stats_.hits;
    return CacheOutcome::kHit;
  }
  ++stats_.misses;
  return CacheOutcome::kMiss;
}

void CacheTags::install(std::uint64_t line_addr, bool* evicted_valid,
                        std::uint64_t* evicted_line, bool* evicted_dirty) {
  ++tick_;
  *evicted_valid = false;
  *evicted_dirty = false;
  *evicted_line = 0;
  if (find(line_addr) != nullptr) return;  // already resident
  const std::size_t s = set_index(line_addr);
  Way* victim = nullptr;
  for (int w = 0; w < cfg_.associativity; ++w) {
    Way& way = ways_[s * static_cast<std::size_t>(cfg_.associativity) +
                     static_cast<std::size_t>(w)];
    if (!way.valid) {
      victim = &way;
      break;
    }
    if (victim == nullptr || way.lru < victim->lru) victim = &way;
  }
  if (victim->valid) {
    *evicted_valid = true;
    *evicted_line = victim->line;
    *evicted_dirty = victim->dirty;
    if (victim->dirty) ++stats_.dirty_evictions;
  }
  victim->valid = true;
  victim->dirty = false;
  victim->line = line_addr;
  victim->lru = tick_;
}

void CacheTags::mark_dirty(std::uint64_t word_addr) {
  Way* way = find(line_of(word_addr));
  if (way != nullptr) way->dirty = true;
}

bool CacheTags::resident(std::uint64_t word_addr) const {
  return find(line_of(word_addr)) != nullptr;
}

}  // namespace smd::mem
