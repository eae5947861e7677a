// Scatter-add combining store.
//
// Merrimac's memory system performs atomic floating-point add-and-store at
// full cache bandwidth: each cache bank has a scatter-add functional unit
// (latency 4) fronted by a small combining store (8 entries) that merges
// in-flight additions to the same word, so bursts of updates to one
// location (e.g. the partial forces of a popular molecule) do not
// serialize on the bank (Section 2.2). The FU performs its read-modify-
// write inline at the bank -- one scatter word per bank per cycle -- and
// an addition arriving while the same word is still in the FU pipeline
// merges for free. This class models the merge window and its occupancy;
// the actual summation is applied functionally by the memory system.
#pragma once

#include <cstdint>
#include <vector>

#include "src/obs/json.h"

namespace smd::mem {

/// The memory model gives each cache bank one scatter-add unit, fronted by
/// one combining store (MemSystem's per-bank state).
inline constexpr int kScatterAddUnitsPerBank = 1;

struct ScatterAddConfig {
  int latency = 4;            ///< scatter-add FU latency (merge window)
  int combining_entries = 8;  ///< per bank
};

struct ScatterAddStats {
  std::int64_t requests = 0;
  std::int64_t combined = 0;  ///< merged into an in-flight addition
  std::int64_t issued = 0;    ///< additions that used a bank cycle
  std::int64_t stalled = 0;   ///< retries because all entries were busy
};

/// Every field, for bench records and the bit-identity gates.
obs::Json to_json(const ScatterAddStats& s);

/// Combining store for one cache bank: up to `combining_entries` in-flight
/// additions, a ring in expiry order. An allocation and a merge both set
/// an entry's expiry to now + latency, the latest expiry of any entry
/// (time only moves forward), so an allocation appends at the back, a
/// merge moves its entry to the back, and purging pops expired entries
/// from the front. Which slot holds an entry is never observable: an
/// address has at most one entry in flight.
class CombiningStore {
 public:
  explicit CombiningStore(const ScatterAddConfig& cfg)
      : latency_(static_cast<std::uint64_t>(cfg.latency)),
        ring_(static_cast<std::size_t>(
            cfg.combining_entries > 0 ? cfg.combining_entries : 0)) {}

  /// True if an in-flight addition to `word_addr` exists; merges into it.
  bool try_merge(std::uint64_t word_addr, std::uint64_t now);

  /// Allocate an entry for a new in-flight addition (the FU pass that
  /// performs the read-modify-write). False when all entries are busy.
  /// `word_addr` must have no entry in flight (try_merge returned false).
  bool try_allocate(std::uint64_t word_addr, std::uint64_t now);

  /// Drop entries whose merge window has expired (expiry <= now).
  void purge_expired(std::uint64_t now) {
    while (count_ > 0 && ring_[head_].expiry <= now) {
      if (++head_ == ring_.size()) head_ = 0;
      --count_;
    }
  }

  int occupancy() const { return static_cast<int>(count_); }
  bool empty() const { return count_ == 0; }
  const ScatterAddStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t addr = 0;
    std::uint64_t expiry = 0;  ///< in flight while > the last purge time
  };

  std::uint64_t latency_;
  std::vector<Entry> ring_;  ///< one slot per combining entry
  std::size_t head_ = 0;     ///< the entry that expires first
  std::size_t count_ = 0;    ///< entries in flight, from head_ on
  ScatterAddStats stats_;
};

}  // namespace smd::mem
