// Seeded MemSystem op soups, shared by memsys_golden_test (digests of
// the tick()-driven run) and mem_test (tick() vs tick_until).
//
// A soup is a memory-system configuration with tiny capacities and a
// timed list of ops of every kind over a small memory image. The
// generators are part of the golden digests: changing what they draw
// changes every recorded soup digest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "src/mem/memsys.h"
#include "src/util/rng.h"

namespace smd::mem::soup {

constexpr std::int64_t kMemoryWords = 1536;

template <typename T, std::size_t N>
T pick(util::Rng& rng, const T (&choices)[N]) {
  return choices[rng.uniform_u64(N)];
}

/// Tiny capacities everywhere, so bank queues, MSHRs, combining stores,
/// DRAM read queues and write buffers all fill; a small cache so fills
/// evict (dirty, after scatter-adds).
inline MemSystemConfig config(util::Rng& rng) {
  MemSystemConfig cfg;
  const int banks[] = {1, 2, 3, 4, 8};
  const int lines[] = {2, 4, 8, 12};
  const int assoc[] = {1, 2, 4};
  const int tiny[] = {1, 2, 4};
  cfg.cache.n_banks = pick(rng, banks);
  cfg.cache.line_words = pick(rng, lines);
  cfg.cache.associativity = pick(rng, assoc);
  cfg.cache.total_words =
      static_cast<std::int64_t>(cfg.cache.n_banks) * cfg.cache.associativity *
      cfg.cache.line_words * (1 + static_cast<std::int64_t>(rng.uniform_u64(4)));
  const int hit_latency[] = {0, 1, 3, 8};
  cfg.cache.hit_latency = pick(rng, hit_latency);
  cfg.cache.mshrs_per_bank = pick(rng, tiny);
  cfg.cache.bank_queue_depth = pick(rng, tiny);

  const int channels[] = {1, 2, 3, 8};
  const double rates[] = {0.3, 0.6, 1.0};
  const int access[] = {0, 5, 20};
  const int rows[] = {16, 64, 2048};
  cfg.dram.n_channels = pick(rng, channels);
  cfg.dram.channel_words_per_cycle = pick(rng, rates);
  cfg.dram.access_latency = pick(rng, access);
  cfg.dram.row_words = pick(rng, rows);
  cfg.dram.read_queue_depth = pick(rng, tiny);
  // A dirty writeback posts a whole line, so the buffer must hold one.
  cfg.dram.write_buffer_words =
      cfg.cache.line_words * (1 + static_cast<std::int64_t>(rng.uniform_u64(3)));

  const int sa_latency[] = {1, 2, 4};
  const int entries[] = {1, 2, 8};
  cfg.scatter_add.latency = pick(rng, sa_latency);
  cfg.scatter_add.combining_entries = pick(rng, entries);
  const int ags[] = {1, 2};
  const int per_ag[] = {1, 4};
  cfg.n_address_generators = pick(rng, ags);
  cfg.addrs_per_generator = pick(rng, per_ag);
  return cfg;
}

/// One soup op: what to issue and the cycle to issue it at.
struct Op {
  MemOpDesc desc;
  std::uint64_t issue_at = 0;
  std::vector<double> src;  ///< stores: the words to write
};

inline std::vector<Op> ops(util::Rng& rng) {
  const MemOpKind kinds[] = {
      MemOpKind::kLoadStrided, MemOpKind::kLoadGather,
      MemOpKind::kStoreStrided, MemOpKind::kStoreScatter,
      MemOpKind::kScatterAdd};
  std::vector<Op> ops(6 + rng.uniform_u64(10));
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    t += rng.uniform_u64(40);
    op.issue_at = t;
    MemOpDesc& d = op.desc;
    // Every kind at least once per soup, then a random mix.
    d.kind = i < std::size(kinds) ? kinds[i] : pick(rng, kinds);
    d.record_words = 1 + static_cast<int>(rng.uniform_u64(3));
    d.n_records = rng.uniform_u64(12) == 0
                      ? 0
                      : 1 + static_cast<std::int64_t>(rng.uniform_u64(48));
    const auto rw = static_cast<std::uint64_t>(d.record_words);
    if (d.kind == MemOpKind::kLoadStrided ||
        d.kind == MemOpKind::kStoreStrided) {
      d.stride_words = rng.uniform_u64(2) == 0
                           ? 0
                           : static_cast<std::int64_t>(rw + rng.uniform_u64(6));
      const std::uint64_t span =
          static_cast<std::uint64_t>(d.n_records) *
          static_cast<std::uint64_t>(d.stride_words != 0 ? d.stride_words
                                                         : d.record_words);
      d.base = rng.uniform_u64(static_cast<std::uint64_t>(kMemoryWords) -
                               span);
    } else {
      // A narrow index range for scatter-adds: duplicates on purpose, so
      // additions merge in the combining stores.
      const std::uint64_t range =
          d.kind == MemOpKind::kScatterAdd ? 1 + rng.uniform_u64(16)
                                                : 1 + rng.uniform_u64(200);
      d.base = rng.uniform_u64(static_cast<std::uint64_t>(kMemoryWords) -
                               range * rw);
      for (std::int64_t r = 0; r < d.n_records; ++r) {
        d.indices.push_back(rng.uniform_u64(range));
      }
    }
    if (is_store(d.kind)) {
      for (std::int64_t w = 0; w < d.total_words(); ++w) {
        op.src.push_back(rng.uniform(-4.0, 4.0));
      }
    }
  }
  return ops;
}

/// Soup `seed`: its configuration, its ops and the initial memory image,
/// drawn in that order from one generator.
struct Soup {
  MemSystemConfig cfg;
  std::vector<Op> ops;
  GlobalMemory memory;
};

inline Soup make(int seed) {
  util::Rng rng(0x5eed0000ULL + static_cast<std::uint64_t>(seed));
  Soup s;
  s.cfg = config(rng);
  s.ops = ops(rng);
  s.memory = GlobalMemory(kMemoryWords);
  for (std::int64_t w = 0; w < kMemoryWords; ++w) {
    s.memory.write(static_cast<std::uint64_t>(w), rng.uniform(-8.0, 8.0));
  }
  return s;
}

}  // namespace smd::mem::soup
