// Merrimac stream cache tag model.
//
// The node has a 1 MB (128 KWord), 8-bank, line-interleaved stream cache
// with an aggregate bandwidth of 8 words/cycle (64 GB/s). Banks are
// selected by line address; within a bank the tag store is set-associative
// with LRU replacement. Scatter-add makes lines dirty; dirty evictions
// generate DRAM write traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
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
  /// Probes that missed: line fetches, the secondary misses below, and
  /// every retry of a missing request blocked for an MSHR, a DRAM queue
  /// slot or a combining-store entry.
  std::int64_t misses = 0;
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
///
/// Every slot (slot = set * associativity + way) has a tag word holding
/// line + 1 (0 = empty), an LRU stamp and a dirty flag. The tag and stamp
/// words of one set sit together, all tags then all stamps, in a 64-byte
/// aligned array: with up to four ways a set is one host cache line, so a
/// probe that hits reads and updates that one line.
class CacheTags {
 public:
  explicit CacheTags(const CacheConfig& cfg);

  std::uint64_t line_of(std::uint64_t word_addr) const {
    return line_div_.quot(word_addr);
  }
  /// Word index of `word_addr` within its line.
  std::uint64_t line_offset(std::uint64_t word_addr) const {
    return line_div_.rem(word_addr);
  }
  int bank_of_line(std::uint64_t line_addr) const {
    return static_cast<int>(bank_div_.rem(line_addr));
  }

  /// Probe (and update LRU on hit). Does not allocate.
  CacheOutcome probe(std::uint64_t word_addr) {
    return probe_line(line_of(word_addr)).slot >= 0 ? CacheOutcome::kHit
                                                    : CacheOutcome::kMiss;
  }
  /// A probe_line result: the hit's slot and its LRU stamp word, or
  /// slot -1 and no stamp on a miss.
  struct Probe {
    std::ptrdiff_t slot = -1;
    std::uint64_t* stamp = nullptr;
  };
  /// probe() of a line address.
  Probe probe_line(std::uint64_t line_addr) {
    ++tick_;
    ++stats_.accesses;
    const std::size_t set = set_index(line_addr);
    std::uint64_t* tags = set_words(set);
    const std::ptrdiff_t way = find_way(tags, line_addr);
    if (way < 0) {
      ++stats_.misses;
      return {};
    }
    std::uint64_t* stamp = tags + ways_ + static_cast<std::size_t>(way);
    *stamp = tick_;
    ++stats_.hits;
    return {static_cast<std::ptrdiff_t>(set * ways_) + way, stamp};
  }
  /// A hit on the line of an earlier probe_line hit, counted and stamped
  /// exactly as probe_line would, without the lookup: `stamp` is that
  /// hit's stamp word. Valid while no install() has happened since (only
  /// an install moves a line out of its slot).
  void rehit(std::uint64_t* stamp) {
    ++tick_;
    ++stats_.accesses;
    ++stats_.hits;
    *stamp = tick_;
  }
  /// A miss on the line of an earlier probe_line miss, counted exactly as
  /// probe_line would, without the lookup. Valid while no install() has
  /// happened since (only an install makes a line resident).
  void remiss() {
    ++tick_;
    ++stats_.accesses;
    ++stats_.misses;
  }
  /// probe() only when the line is resident: a resident line counts a hit
  /// and refreshes its LRU stamp; otherwise nothing changes. One lookup
  /// for `if (resident(a)) probe(a)`.
  void refresh_line(std::uint64_t line_addr) {
    std::uint64_t* tags = set_words(set_index(line_addr));
    const std::ptrdiff_t way = find_way(tags, line_addr);
    if (way < 0) return;
    ++tick_;
    ++stats_.accesses;
    tags[ways_ + static_cast<std::size_t>(way)] = tick_;
    ++stats_.hits;
  }

  /// Install a line; returns the evicted line address via out params.
  /// `evicted_dirty` reports whether a dirty line was displaced.
  void install(std::uint64_t line_addr, bool* evicted_valid,
               std::uint64_t* evicted_line, bool* evicted_dirty);

  /// Mark the line containing addr dirty (must be resident).
  void mark_dirty(std::uint64_t word_addr) {
    const std::ptrdiff_t slot = find(line_of(word_addr));
    if (slot >= 0) mark_slot_dirty(slot);
  }
  /// Mark the line in `slot` (a probe_line hit) dirty.
  void mark_slot_dirty(std::ptrdiff_t slot) {
    dirty_[static_cast<std::size_t>(slot)] = 1;
  }

  /// True if the line containing addr is resident.
  bool resident(std::uint64_t word_addr) const {
    return find(line_of(word_addr)) >= 0;
  }

  const CacheStats& stats() const { return stats_; }
  CacheStats& stats() { return stats_; }
  const CacheConfig& config() const { return cfg_; }

 private:
  struct FreeAligned {
    void operator()(std::uint64_t* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };

  std::size_t set_index(std::uint64_t line_addr) const {
    return static_cast<std::size_t>(set_div_.rem(line_addr));
  }
  /// The tag words of set `set`; its stamps follow them.
  std::uint64_t* set_words(std::size_t set) const {
    return words_.get() + set * 2 * ways_;
  }
  /// Way of the set whose tag words are `tags` holding `line_addr`, or -1.
  std::ptrdiff_t find_way(const std::uint64_t* tags,
                          std::uint64_t line_addr) const {
    const std::uint64_t want = line_addr + 1;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (tags[w] == want) return static_cast<std::ptrdiff_t>(w);
    }
    return -1;
  }
  /// Slot holding `line_addr`, or -1.
  std::ptrdiff_t find(std::uint64_t line_addr) const {
    const std::size_t set = set_index(line_addr);
    const std::ptrdiff_t way = find_way(set_words(set), line_addr);
    return way < 0 ? -1 : static_cast<std::ptrdiff_t>(set * ways_) + way;
  }

  CacheConfig cfg_;
  std::int64_t n_sets_;  ///< total sets across all banks
  std::size_t ways_;     ///< associativity
  Divisor line_div_;     ///< line_words
  Divisor bank_div_;     ///< n_banks
  Divisor set_div_;      ///< n_sets_
  /// Per set: `ways_` tag words (line + 1; 0 = empty), then `ways_` LRU
  /// stamps (the tick of the last touch).
  std::unique_ptr<std::uint64_t[], FreeAligned> words_;
  std::vector<std::uint8_t> dirty_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace smd::mem
