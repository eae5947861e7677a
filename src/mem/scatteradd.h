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
#include <unordered_map>
#include <vector>

#include "src/obs/json.h"

namespace smd::mem {

struct ScatterAddConfig {
  int units_per_bank = 1;
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

/// Combining store for one cache bank.
class CombiningStore {
 public:
  explicit CombiningStore(const ScatterAddConfig& cfg) : cfg_(cfg) {}

  /// True if an in-flight addition to `word_addr` exists; merges into it.
  bool try_merge(std::uint64_t word_addr, std::uint64_t now);

  /// Allocate an entry for a new in-flight addition (the FU pass that
  /// performs the read-modify-write). False when all entries are busy.
  bool try_allocate(std::uint64_t word_addr, std::uint64_t now);

  /// Drop entries whose merge window has expired.
  void purge_expired(std::uint64_t now);

  int occupancy() const { return static_cast<int>(entries_.size()); }
  bool empty() const { return entries_.empty(); }
  const ScatterAddStats& stats() const { return stats_; }

 private:
  ScatterAddConfig cfg_;
  std::unordered_map<std::uint64_t, std::uint64_t> entries_;  // addr -> expiry
  ScatterAddStats stats_;
};

}  // namespace smd::mem
