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
  for (Entry& e : entries_) {
    if (e.addr != word_addr || e.expiry <= horizon_) continue;
    // Merging extends the in-flight addition's window by one FU pass.
    e.expiry = now + static_cast<std::uint64_t>(cfg_.latency);
    ++stats_.requests;
    ++stats_.combined;
    return true;
  }
  return false;
}

bool CombiningStore::try_allocate(std::uint64_t word_addr, std::uint64_t now) {
  for (Entry& e : entries_) {
    if (e.expiry > horizon_) continue;  // busy
    e = {word_addr, now + static_cast<std::uint64_t>(cfg_.latency)};
    ++stats_.requests;
    ++stats_.issued;
    return true;
  }
  ++stats_.stalled;
  return false;
}

int CombiningStore::occupancy() const {
  int n = 0;
  for (const Entry& e : entries_) n += e.expiry > horizon_ ? 1 : 0;
  return n;
}

}  // namespace smd::mem
