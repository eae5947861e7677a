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
  const std::size_t cap = ring_.size();
  std::size_t i = head_;
  for (std::size_t k = 0; k < count_; ++k) {
    if (ring_[i].addr == word_addr) {
      // Merging extends the in-flight addition's window by one FU pass,
      // past every other entry's: shift the later entries forward and
      // put this one at the back.
      for (++k; k < count_; ++k) {
        const std::size_t next = i + 1 == cap ? 0 : i + 1;
        ring_[i] = ring_[next];
        i = next;
      }
      ring_[i] = {word_addr, now + latency_};
      ++stats_.requests;
      ++stats_.combined;
      return true;
    }
    if (++i == cap) i = 0;
  }
  return false;
}

bool CombiningStore::try_allocate(std::uint64_t word_addr, std::uint64_t now) {
  const std::size_t cap = ring_.size();
  if (count_ == cap) {
    ++stats_.stalled;
    return false;
  }
  std::size_t tail = head_ + count_;
  if (tail >= cap) tail -= cap;
  ring_[tail] = {word_addr, now + latency_};
  ++count_;
  ++stats_.requests;
  ++stats_.issued;
  return true;
}

}  // namespace smd::mem
