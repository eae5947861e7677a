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

void CombiningStore::compact() {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < packed_; ++i) {
    entries_[kept] = entries_[i];
    kept += entries_[i].expiry > horizon_ ? 1 : 0;
  }
  packed_ = kept;
  compacted_ = horizon_;
}

bool CombiningStore::try_merge(std::uint64_t word_addr, std::uint64_t now) {
  if (compacted_ != horizon_) compact();
  for (std::size_t i = 0; i < packed_; ++i) {
    Entry& e = entries_[i];
    if (e.addr != word_addr) continue;
    // Merging extends the in-flight addition's window by one FU pass.
    e.expiry = now + static_cast<std::uint64_t>(cfg_.latency);
    ++stats_.requests;
    ++stats_.combined;
    return true;
  }
  return false;
}

bool CombiningStore::try_allocate(std::uint64_t word_addr, std::uint64_t now) {
  if (compacted_ != horizon_) compact();
  if (packed_ == entries_.size()) {
    ++stats_.stalled;
    return false;
  }
  entries_[packed_++] = {word_addr,
                         now + static_cast<std::uint64_t>(cfg_.latency)};
  ++stats_.requests;
  ++stats_.issued;
  return true;
}

int CombiningStore::occupancy() const {
  int n = 0;
  for (std::size_t i = 0; i < packed_; ++i) {
    n += entries_[i].expiry > horizon_ ? 1 : 0;
  }
  return n;
}

}  // namespace smd::mem
