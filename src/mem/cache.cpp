#include "src/mem/cache.h"

#include <algorithm>
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
      ways_(static_cast<std::size_t>(cfg.associativity)),
      line_div_(static_cast<std::uint64_t>(cfg.line_words)),
      bank_div_(static_cast<std::uint64_t>(cfg.n_banks)),
      set_div_(static_cast<std::uint64_t>(n_sets_)) {
  const std::size_t slots = static_cast<std::size_t>(n_sets_) * ways_;
  words_.reset(static_cast<std::uint64_t*>(::operator new[](
      2 * slots * sizeof(std::uint64_t), std::align_val_t{64})));
  std::fill_n(words_.get(), 2 * slots, std::uint64_t{0});
  dirty_.assign(slots, 0);
}

void CacheTags::install(std::uint64_t line_addr, bool* evicted_valid,
                        std::uint64_t* evicted_line, bool* evicted_dirty) {
  ++tick_;
  *evicted_valid = false;
  *evicted_dirty = false;
  *evicted_line = 0;
  if (find(line_addr) >= 0) return;  // already resident
  // Victim: the first empty way, else the smallest stamp (ties to the
  // lowest way).
  const std::size_t set = set_index(line_addr);
  std::uint64_t* tags = set_words(set);
  const std::uint64_t* stamps = tags + ways_;
  std::size_t victim = 0;
  for (std::size_t w = 0; w < ways_; ++w) {
    if (tags[w] == 0) {
      victim = w;
      break;
    }
    if (stamps[w] < stamps[victim]) victim = w;
  }
  const std::size_t slot = set * ways_ + victim;
  if (tags[victim] != 0) {
    *evicted_valid = true;
    *evicted_line = tags[victim] - 1;
    *evicted_dirty = dirty_[slot] != 0;
    if (*evicted_dirty) ++stats_.dirty_evictions;
  }
  tags[victim] = line_addr + 1;
  tags[ways_ + victim] = tick_;  // its stamp
  dirty_[slot] = 0;
}

}  // namespace smd::mem
