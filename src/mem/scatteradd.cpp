#include "src/mem/scatteradd.h"

namespace smd::mem {

obs::Json to_json(const ScatterAddStats& s) {
  obs::Json j = obs::Json::object();
  j.set("requests", s.requests)
      .set("combined", s.combined)
      .set("issued", s.issued)
      .set("stalled", s.stalled);
  return j;
}

bool CombiningStore::try_merge(std::uint64_t word_addr, std::uint64_t now) {
  auto it = entries_.find(word_addr);
  if (it == entries_.end()) return false;
  // Merging extends the in-flight addition's window by one FU pass.
  it->second = now + static_cast<std::uint64_t>(cfg_.latency);
  ++stats_.requests;
  ++stats_.combined;
  return true;
}

bool CombiningStore::try_allocate(std::uint64_t word_addr, std::uint64_t now) {
  if (static_cast<int>(entries_.size()) >= cfg_.combining_entries) {
    ++stats_.stalled;
    return false;
  }
  entries_.emplace(word_addr, now + static_cast<std::uint64_t>(cfg_.latency));
  ++stats_.requests;
  ++stats_.issued;
  return true;
}

void CombiningStore::purge_expired(std::uint64_t now) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second <= now) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace smd::mem
