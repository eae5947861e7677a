// Merrimac stream cache tag model.
//
// The node has a 1 MB (128 KWord), 8-bank, line-interleaved stream cache
// with an aggregate bandwidth of 8 words/cycle (64 GB/s). Banks are
// selected by line address; within a bank the tag store is set-associative
// with LRU replacement. Scatter-add makes lines dirty; dirty evictions
// generate DRAM write traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "src/mem/divisor.h"
#include "src/obs/json.h"

namespace smd::mem {

struct CacheConfig {
  int n_banks = 8;
  int line_words = 8;
  std::int64_t total_words = 131072;  ///< 1 MB of 64-bit words
  int associativity = 4;
  int hit_latency = 8;
  int mshrs_per_bank = 8;
  int bank_queue_depth = 16;
};

struct CacheStats {
  std::int64_t accesses = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;          ///< primary misses (line fetches)
  std::int64_t secondary_misses = 0;  ///< folded into an in-flight fetch
  std::int64_t dirty_evictions = 0;

  double hit_rate() const {
    return accesses ? static_cast<double>(hits) / static_cast<double>(accesses) : 0.0;
  }
};

/// Every field plus hit_rate, for bench records and the bit-identity gates.
obs::Json to_json(const CacheStats& s);

/// Result of a tag probe.
enum class CacheOutcome { kHit, kMiss };

/// Set-associative, LRU, bank-partitioned tag array (tags only; data
/// movement is handled functionally by the owner).
class CacheTags {
 public:
  explicit CacheTags(const CacheConfig& cfg);

  std::uint64_t line_of(std::uint64_t word_addr) const {
    return line_div_.quot(word_addr);
  }
  int bank_of_line(std::uint64_t line_addr) const {
    return static_cast<int>(bank_div_.rem(line_addr));
  }
  int bank_of(std::uint64_t word_addr) const {
    return bank_of_line(line_of(word_addr));
  }

  /// Probe (and update LRU on hit). Does not allocate.
  CacheOutcome probe(std::uint64_t word_addr);

  /// Install a line; returns the evicted line address via out params.
  /// `evicted_dirty` reports whether a dirty line was displaced.
  void install(std::uint64_t line_addr, bool* evicted_valid,
               std::uint64_t* evicted_line, bool* evicted_dirty);

  /// Mark the line containing addr dirty (must be resident).
  void mark_dirty(std::uint64_t word_addr);

  /// True if the line containing addr is resident.
  bool resident(std::uint64_t word_addr) const;

  const CacheStats& stats() const { return stats_; }
  CacheStats& stats() { return stats_; }
  const CacheConfig& config() const { return cfg_; }

 private:
  struct Way {
    std::uint64_t line = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;
  };

  std::size_t set_index(std::uint64_t line_addr) const {
    return static_cast<std::size_t>(set_div_.rem(line_addr));
  }
  Way* find(std::uint64_t line_addr);
  const Way* find(std::uint64_t line_addr) const;

  CacheConfig cfg_;
  std::int64_t n_sets_;  ///< total sets across all banks
  Divisor line_div_;     ///< line_words
  Divisor bank_div_;     ///< n_banks
  Divisor set_div_;      ///< n_sets_
  std::vector<Way> ways_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace smd::mem
