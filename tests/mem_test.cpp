#include <gtest/gtest.h>

#include <numeric>

#include "src/mem/addrgen.h"
#include "src/mem/cache.h"
#include "src/mem/dram.h"
#include "src/mem/memsys.h"
#include "src/mem/scatteradd.h"
#include "src/util/rng.h"
#include "tests/mem_soup.h"

namespace smd::mem {
namespace {

MemSystemConfig small_config() {
  MemSystemConfig cfg;
  cfg.cache.total_words = 4096;
  cfg.dram.access_latency = 20;
  return cfg;
}

/// Drive the memory system until every issued op has completed.
std::uint64_t run_to_completion(MemSystem& ms, std::uint64_t limit = 10'000'000) {
  while (!ms.all_done()) {
    ms.tick();
    if (ms.now() > limit) {
      ADD_FAILURE() << "memory system did not drain";
      break;
    }
  }
  return ms.now();
}

TEST(GlobalMemory, AllocReadWrite) {
  GlobalMemory mem;
  const auto a = mem.alloc(10);
  const auto b = mem.alloc(5);
  EXPECT_EQ(b, a + 10);
  mem.write(a + 3, 7.5);
  EXPECT_DOUBLE_EQ(mem.read(a + 3), 7.5);
  mem.add(a + 3, 2.5);
  EXPECT_DOUBLE_EQ(mem.read(a + 3), 10.0);
}

TEST(GlobalMemory, BlockHelpersBoundsChecked) {
  GlobalMemory mem;
  const auto a = mem.alloc(4);
  mem.write_block(a, {1, 2, 3, 4});
  EXPECT_EQ(mem.read_block(a, 4), (std::vector<double>{1, 2, 3, 4}));
  EXPECT_THROW(mem.write_block(a + 2, {1, 2, 3}), std::runtime_error);
  EXPECT_THROW(mem.read_block(a, 5), std::runtime_error);
}

TEST(GlobalMemory, BlockHelpersRejectUnsignedWrap) {
  // Regression: `addr + n` overflow used to wrap past the end-of-memory
  // check and index out of bounds. Addresses near 2^64 must throw, not
  // wrap to small offsets.
  GlobalMemory mem;
  mem.alloc(16);
  const std::uint64_t huge = ~0ULL - 1;
  EXPECT_THROW(mem.write_block(huge, {1.0, 2.0, 3.0}), std::runtime_error);
  EXPECT_THROW(mem.read_block(huge, 4), std::runtime_error);
  EXPECT_THROW((void)mem.read_block(0, -1), std::runtime_error);
  // An exact fit against the upper boundary stays legal (off-by-one guard).
  mem.write_block(14, {7.0, 8.0});
  EXPECT_EQ(mem.read_block(14, 2), (std::vector<double>{7.0, 8.0}));
  EXPECT_THROW(mem.write_block(15, {7.0, 8.0}), std::runtime_error);
}

TEST(AddrGen, StridedDense) {
  MemOpDesc d;
  d.kind = MemOpKind::kLoadStrided;
  d.base = 100;
  d.n_records = 3;
  d.record_words = 2;
  AddressGenerator ag;
  ag.start(&d);
  std::vector<std::uint64_t> addrs;
  while (!ag.done()) {
    addrs.push_back(ag.peek());
    ag.advance();
  }
  EXPECT_EQ(addrs, (std::vector<std::uint64_t>{100, 101, 102, 103, 104, 105}));
}

TEST(AddrGen, StridedWithGap) {
  MemOpDesc d;
  d.kind = MemOpKind::kLoadStrided;
  d.base = 0;
  d.n_records = 2;
  d.record_words = 2;
  d.stride_words = 5;
  AddressGenerator ag;
  ag.start(&d);
  std::vector<std::uint64_t> addrs;
  while (!ag.done()) {
    addrs.push_back(ag.peek());
    ag.advance();
  }
  EXPECT_EQ(addrs, (std::vector<std::uint64_t>{0, 1, 5, 6}));
}

TEST(AddrGen, GatherUsesIndices) {
  MemOpDesc d;
  d.kind = MemOpKind::kLoadGather;
  d.base = 10;
  d.n_records = 3;
  d.record_words = 3;
  d.indices = {2, 0, 5};
  AddressGenerator ag;
  ag.start(&d);
  std::vector<std::uint64_t> addrs;
  while (!ag.done()) {
    addrs.push_back(ag.peek());
    ag.advance();
  }
  EXPECT_EQ(addrs, (std::vector<std::uint64_t>{16, 17, 18, 10, 11, 12, 25, 26, 27}));
}

TEST(AddrGen, ShortIndexStreamThrows) {
  MemOpDesc d;
  d.kind = MemOpKind::kLoadGather;
  d.n_records = 3;
  d.indices = {1};
  AddressGenerator ag;
  EXPECT_THROW(ag.start(&d), std::runtime_error);
}

TEST(CacheTags, HitAfterInstall) {
  CacheConfig cfg;
  cfg.total_words = 1024;
  CacheTags tags(cfg);
  EXPECT_EQ(tags.probe(40), CacheOutcome::kMiss);
  bool ev, dirty;
  std::uint64_t line;
  tags.install(tags.line_of(40), &ev, &line, &dirty);
  EXPECT_FALSE(ev);
  EXPECT_EQ(tags.probe(40), CacheOutcome::kHit);
  EXPECT_EQ(tags.probe(47), CacheOutcome::kHit);  // same 8-word line
  EXPECT_EQ(tags.probe(48), CacheOutcome::kMiss); // next line
}

TEST(CacheTags, LruEvictionOrder) {
  CacheConfig cfg;
  cfg.total_words = 8 * 4 * 8;  // exactly 4 sets... keep small: 4 lines/set
  cfg.n_banks = 1;
  cfg.associativity = 2;
  CacheTags tags(cfg);
  const std::int64_t n_sets = cfg.total_words / cfg.line_words / cfg.associativity;
  bool ev, dirty;
  std::uint64_t evl;
  // Fill one set with two lines, touch the first, install a third:
  // the second (LRU) must be evicted.
  const std::uint64_t l0 = 0, l1 = l0 + static_cast<std::uint64_t>(n_sets),
                      l2 = l0 + 2 * static_cast<std::uint64_t>(n_sets);
  tags.install(l0, &ev, &evl, &dirty);
  tags.install(l1, &ev, &evl, &dirty);
  tags.probe(l0 * 8);  // refresh l0
  tags.install(l2, &ev, &evl, &dirty);
  EXPECT_TRUE(ev);
  EXPECT_EQ(evl, l1);
}

TEST(CacheTags, DirtyEvictionReported) {
  CacheConfig cfg;
  cfg.total_words = 8 * 2;  // 2 lines, 1 set at assoc 2
  cfg.associativity = 2;
  cfg.n_banks = 1;
  CacheTags tags(cfg);
  bool ev, dirty;
  std::uint64_t evl;
  tags.install(0, &ev, &evl, &dirty);
  tags.mark_dirty(0);
  tags.install(1, &ev, &evl, &dirty);
  tags.install(2, &ev, &evl, &dirty);  // evicts line 0 (dirty)
  EXPECT_TRUE(ev);
  EXPECT_TRUE(dirty);
  EXPECT_EQ(tags.stats().dirty_evictions, 1);
}

TEST(Dram, ReadCompletesAfterLatency) {
  DramConfig cfg;
  cfg.access_latency = 10;
  Dram dram(cfg, 8);
  ASSERT_TRUE(dram.try_read_line(3));
  std::vector<std::uint64_t> done;
  for (int t = 0; t < 200 && done.empty(); ++t) {
    dram.tick();
    for (auto line : dram.drain_completed_reads()) done.push_back(line);
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 3u);
  // Latency must be at least access_latency + transfer time.
  EXPECT_GE(dram.now(), 10u);
}

TEST(Dram, PeakBandwidthApproached) {
  // Stream many sequential lines through all channels and verify the
  // sustained rate approaches n_channels * words_per_cycle.
  DramConfig cfg;
  cfg.access_latency = 10;
  Dram dram(cfg, 8);
  const int n_lines = 2000;
  int issued = 0, completed = 0;
  while (completed < n_lines) {
    while (issued < n_lines && dram.try_read_line(static_cast<std::uint64_t>(issued))) ++issued;
    dram.tick();
    completed += static_cast<int>(dram.drain_completed_reads().size());
    ASSERT_LT(dram.now(), 100000u);
  }
  const double words = static_cast<double>(n_lines) * 8;
  const double peak = cfg.channel_words_per_cycle * cfg.n_channels;
  const double achieved = words / static_cast<double>(dram.now());
  EXPECT_GT(achieved, 0.75 * peak);
  EXPECT_LE(achieved, peak * 1.01);
}

TEST(Dram, RandomAccessSlowerThanSequential) {
  auto run = [](bool random) {
    DramConfig cfg;
    Dram dram(cfg, 8);
    util::Rng rng(1);
    const int n_lines = 1500;
    int issued = 0, completed = 0;
    while (completed < n_lines) {
      while (issued < n_lines) {
        const std::uint64_t line =
            random ? rng.uniform_u64(1 << 20) : static_cast<std::uint64_t>(issued);
        if (!dram.try_read_line(line)) break;
        ++issued;
      }
      dram.tick();
      completed += static_cast<int>(dram.drain_completed_reads().size());
    }
    return dram.now();
  };
  EXPECT_GT(run(true), run(false));
}

TEST(Dram, WritesDrain) {
  DramConfig cfg;
  Dram dram(cfg, 8);
  ASSERT_TRUE(dram.try_write_words(100, 64));
  int t = 0;
  while (!dram.writes_drained() && t < 10000) {
    dram.tick();
    ++t;
  }
  EXPECT_TRUE(dram.writes_drained());
  EXPECT_EQ(dram.stats().write_words, 64);
}

TEST(CombiningStore, MergesSameAddress) {
  ScatterAddConfig cfg;
  CombiningStore cs(cfg);
  EXPECT_FALSE(cs.try_merge(42, 0));  // nothing in flight yet
  EXPECT_TRUE(cs.try_allocate(42, 0));
  EXPECT_TRUE(cs.try_merge(42, 1));
  EXPECT_TRUE(cs.try_merge(42, 2));
  EXPECT_EQ(cs.stats().combined, 2);
  EXPECT_EQ(cs.occupancy(), 1);
}

TEST(CombiningStore, CapacityEnforced) {
  ScatterAddConfig cfg;
  cfg.combining_entries = 2;
  CombiningStore cs(cfg);
  EXPECT_TRUE(cs.try_allocate(1, 0));
  EXPECT_TRUE(cs.try_allocate(2, 0));
  EXPECT_FALSE(cs.try_allocate(3, 0));  // full, different address
  EXPECT_TRUE(cs.try_merge(1, 0));      // merge still allowed
  EXPECT_EQ(cs.stats().stalled, 1);
}

TEST(CombiningStore, MergeWindowExpires) {
  ScatterAddConfig cfg;
  cfg.latency = 4;
  CombiningStore cs(cfg);
  cs.try_allocate(7, 10);
  cs.purge_expired(12);
  EXPECT_FALSE(cs.empty());       // still in the pipeline at t=12
  EXPECT_TRUE(cs.try_merge(7, 12));  // merging extends the window
  cs.purge_expired(15);
  EXPECT_FALSE(cs.empty());       // extended to 16
  cs.purge_expired(17);
  EXPECT_TRUE(cs.empty());
  EXPECT_FALSE(cs.try_merge(7, 18));  // window closed
}

TEST(CombiningStore, MergePastEarliestExpiryIsStillPurged) {
  // A merge pushes an entry's expiry past the earliest expiry the store
  // has seen; each entry must still leave at its own expiry, and a freed
  // slot must take the next allocation.
  ScatterAddConfig cfg;
  cfg.latency = 4;
  cfg.combining_entries = 2;
  CombiningStore cs(cfg);
  ASSERT_TRUE(cs.try_allocate(1, 0));  // expires at 4
  ASSERT_TRUE(cs.try_allocate(2, 2));  // expires at 6
  ASSERT_TRUE(cs.try_merge(1, 3));     // now expires at 7
  cs.purge_expired(4);
  EXPECT_EQ(cs.occupancy(), 2);
  EXPECT_FALSE(cs.try_allocate(3, 4));  // still full
  cs.purge_expired(6);
  EXPECT_EQ(cs.occupancy(), 1);         // 2 left, 1 still in flight
  EXPECT_FALSE(cs.try_merge(2, 6));
  EXPECT_TRUE(cs.try_allocate(3, 6));   // reuses 2's slot; expires at 10
  cs.purge_expired(7);
  EXPECT_EQ(cs.occupancy(), 1);         // 1 left, 3 in flight
  EXPECT_FALSE(cs.try_merge(1, 7));
  EXPECT_TRUE(cs.try_merge(3, 7));      // now expires at 11
  cs.purge_expired(10);
  EXPECT_FALSE(cs.empty());
  cs.purge_expired(11);
  EXPECT_TRUE(cs.empty());
  EXPECT_EQ(cs.stats().stalled, 1);
  EXPECT_EQ(cs.stats().issued, 3);
  EXPECT_EQ(cs.stats().combined, 2);
}

// ---------------------------------------------------------------------------
// MemSystem end-to-end
// ---------------------------------------------------------------------------

TEST(MemSystem, StridedLoadFunctionalAndTimed) {
  GlobalMemory mem;
  const auto base = mem.alloc(1000);
  for (int i = 0; i < 1000; ++i) mem.write(base + static_cast<std::uint64_t>(i), i * 0.5);
  MemSystem ms(small_config(), &mem);

  MemOpDesc d;
  d.kind = MemOpKind::kLoadStrided;
  d.base = base;
  d.n_records = 100;
  d.record_words = 4;
  std::vector<double> dst;
  const auto id = ms.issue(d, &dst, nullptr);
  ASSERT_EQ(dst.size(), 400u);
  for (int i = 0; i < 400; ++i) EXPECT_DOUBLE_EQ(dst[static_cast<std::size_t>(i)], i * 0.5);
  EXPECT_FALSE(ms.op_done(id));
  run_to_completion(ms);
  EXPECT_TRUE(ms.op_done(id));
  EXPECT_GT(ms.op_finish_time(id), 0u);
}

TEST(MemSystem, GatherLoadPullsIndexedRecords) {
  GlobalMemory mem;
  const auto base = mem.alloc(90);
  for (int i = 0; i < 90; ++i) mem.write(base + static_cast<std::uint64_t>(i), i);
  MemSystem ms(small_config(), &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kLoadGather;
  d.base = base;
  d.n_records = 3;
  d.record_words = 9;
  d.indices = {5, 0, 9};
  std::vector<double> dst;
  ms.issue(d, &dst, nullptr);
  run_to_completion(ms);
  ASSERT_EQ(dst.size(), 27u);
  EXPECT_DOUBLE_EQ(dst[0], 45.0);
  EXPECT_DOUBLE_EQ(dst[9], 0.0);
  EXPECT_DOUBLE_EQ(dst[18], 81.0);
}

TEST(MemSystem, StoreWritesThrough) {
  GlobalMemory mem;
  const auto base = mem.alloc(64);
  MemSystem ms(small_config(), &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kStoreStrided;
  d.base = base;
  d.n_records = 8;
  d.record_words = 8;
  std::vector<double> src(64);
  std::iota(src.begin(), src.end(), 0.0);
  ms.issue(d, nullptr, &src);
  run_to_completion(ms);
  for (int i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(mem.read(base + static_cast<std::uint64_t>(i)), i);
  }
  EXPECT_EQ(ms.dram_stats().write_words, 64);
}

TEST(MemSystem, ScatterAddAccumulates) {
  GlobalMemory mem;
  const auto base = mem.alloc(10);
  MemSystem ms(small_config(), &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kScatterAdd;
  d.base = base;
  d.n_records = 6;
  d.record_words = 1;
  d.indices = {3, 3, 3, 1, 3, 1};
  const std::vector<double> src = {1, 2, 3, 10, 4, 20};
  ms.issue(d, nullptr, &src);
  run_to_completion(ms);
  EXPECT_DOUBLE_EQ(mem.read(base + 3), 10.0);
  EXPECT_DOUBLE_EQ(mem.read(base + 1), 30.0);
  EXPECT_GT(ms.scatter_add_stats().combined, 0);
}

TEST(MemSystem, ScatterAddMatchesSequentialSumProperty) {
  // Property: for adversarial random index multisets, scatter-add equals a
  // sequential accumulation.
  util::Rng rng(2024);
  GlobalMemory mem;
  const auto base = mem.alloc(32);
  MemSystem ms(small_config(), &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kScatterAdd;
  d.base = base;
  d.n_records = 500;
  d.record_words = 1;
  std::vector<double> src;
  std::vector<double> expect(32, 0.0);
  for (int i = 0; i < 500; ++i) {
    const auto idx = rng.uniform_u64(32);
    const double v = rng.uniform(-1, 1);
    d.indices.push_back(idx);
    src.push_back(v);
    expect[idx] += v;
  }
  ms.issue(d, nullptr, &src);
  run_to_completion(ms);
  for (int i = 0; i < 32; ++i) {
    EXPECT_NEAR(mem.read(base + static_cast<std::uint64_t>(i)), expect[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(MemSystem, RepeatedGatherHitsInCache) {
  GlobalMemory mem;
  const auto base = mem.alloc(256);
  MemSystemConfig cfg = small_config();
  MemSystem ms(cfg, &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kLoadGather;
  d.base = base;
  d.n_records = 16;
  d.record_words = 8;
  for (int i = 0; i < 16; ++i) d.indices.push_back(static_cast<std::uint64_t>(i % 4));
  std::vector<double> dst;
  ms.issue(d, &dst, nullptr);
  run_to_completion(ms);
  // In-flight repeats fold into MSHRs: only 4 distinct lines reach DRAM.
  EXPECT_EQ(ms.dram_stats().read_lines, 4);
  EXPECT_GT(ms.cache_stats().secondary_misses, 0);
  // A second pass over the now-resident lines hits outright.
  std::vector<double> dst2;
  ms.issue(d, &dst2, nullptr);
  run_to_completion(ms);
  EXPECT_EQ(ms.dram_stats().read_lines, 4);  // no new fetches
  EXPECT_GT(ms.cache_stats().hit_rate(), 0.45);
  EXPECT_EQ(dst2, dst);
}

TEST(MemSystem, ConcurrentOpsAllComplete) {
  GlobalMemory mem;
  const auto a = mem.alloc(4096);
  const auto b = mem.alloc(4096);
  MemSystem ms(small_config(), &mem);
  std::vector<double> d1, d2;
  MemOpDesc l1;
  l1.kind = MemOpKind::kLoadStrided;
  l1.base = a;
  l1.n_records = 512;
  l1.record_words = 8;
  MemOpDesc l2 = l1;
  l2.base = b;
  const auto id1 = ms.issue(l1, &d1, nullptr);
  const auto id2 = ms.issue(l2, &d2, nullptr);
  run_to_completion(ms);
  EXPECT_TRUE(ms.op_done(id1));
  EXPECT_TRUE(ms.op_done(id2));
  EXPECT_EQ(ms.stats().words_loaded, 8192);
}

TEST(MemSystem, SequentialLoadApproachesDramPeak) {
  GlobalMemory mem;
  const auto base = mem.alloc(65536);
  MemSystemConfig cfg = small_config();
  MemSystem ms(cfg, &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kLoadStrided;
  d.base = base;
  d.n_records = 8192;
  d.record_words = 8;
  std::vector<double> dst;
  ms.issue(d, &dst, nullptr);
  const auto cycles = run_to_completion(ms);
  const double words_per_cycle = 65536.0 / static_cast<double>(cycles);
  const double dram_peak = cfg.dram.n_channels * cfg.dram.channel_words_per_cycle;
  EXPECT_GT(words_per_cycle, 0.6 * dram_peak);   // streams well
  EXPECT_LT(words_per_cycle, dram_peak * 1.01);  // never exceeds peak
}

TEST(MemSystem, AllDoneWaitsForDramToGoQuiet) {
  // Regression: all_done() used to ignore the DRAM's own state, reporting
  // completion while posted write-through words were still draining at
  // channel bandwidth. After all_done() the DRAM must be idle: further
  // ticks accrue no busy cycles.
  GlobalMemory mem;
  const auto base = mem.alloc(4096);
  MemSystem ms(small_config(), &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kStoreStrided;
  d.base = base;
  d.n_records = 512;
  d.record_words = 8;
  std::vector<double> src(4096, 1.5);
  ms.issue(d, nullptr, &src);
  run_to_completion(ms);
  const auto busy = ms.dram_stats().busy_cycles;
  for (int i = 0; i < 500; ++i) ms.tick();
  EXPECT_EQ(ms.dram_stats().busy_cycles, busy);
  EXPECT_TRUE(ms.all_done());
}

TEST(MemSystem, ScatterAddCombiningFullRetriesAndCountsStall) {
  // Regression: the scatter-add miss-fill path ignored the combining
  // store's try_allocate result, so a full combining store neither held
  // the request head-of-line nor surfaced in the `stalled` counter. With
  // one combining entry per bank and two cold lines on the same bank, the
  // second addition must retry (stalled > 0) and the sums stay exact.
  GlobalMemory mem;
  const auto base = mem.alloc(128);
  ASSERT_EQ(base, 0u);  // line/bank mapping below assumes base 0
  MemSystemConfig cfg = small_config();
  cfg.scatter_add.combining_entries = 1;
  MemSystem ms(cfg, &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kScatterAdd;
  d.base = base;
  d.n_records = 8;
  d.record_words = 1;
  // Words 0 and 64: distinct cache lines, same bank (8 banks x 8-word
  // lines), alternating so every other addition finds the single
  // combining entry held by the other address.
  d.indices = {0, 64, 0, 64, 0, 64, 0, 64};
  const std::vector<double> src = {1, 10, 2, 20, 3, 30, 4, 40};
  ms.issue(d, nullptr, &src);
  run_to_completion(ms);
  EXPECT_DOUBLE_EQ(mem.read(base + 0), 10.0);
  EXPECT_DOUBLE_EQ(mem.read(base + 64), 100.0);
  EXPECT_GT(ms.scatter_add_stats().stalled, 0);
  EXPECT_EQ(ms.scatter_add_stats().requests, 8);
}

TEST(MemSystem, ZeroLengthOpCompletesImmediately) {
  GlobalMemory mem;
  mem.alloc(8);
  MemSystem ms(small_config(), &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kLoadStrided;
  d.n_records = 0;
  std::vector<double> dst;
  const auto id = ms.issue(d, &dst, nullptr);
  EXPECT_TRUE(ms.op_done(id));
  EXPECT_TRUE(dst.empty());
}

TEST(MemSystem, MshrSlotReusedAfterFill) {
  // One bank with one MSHR: every primary miss has to wait for the
  // previous line's fill to free the slot, and a reused slot must carry
  // only its own waiters -- stale ones would retire words twice and
  // complete the op before its last line returned.
  GlobalMemory mem;
  const auto base = mem.alloc(64);
  for (int i = 0; i < 64; ++i) mem.write(base + static_cast<std::uint64_t>(i), i);
  MemSystemConfig cfg = small_config();
  cfg.cache.n_banks = 1;
  cfg.cache.mshrs_per_bank = 1;
  MemSystem ms(cfg, &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kLoadGather;
  d.base = base;
  d.n_records = 8;
  d.record_words = 8;
  d.indices = {0, 0, 1, 1, 2, 2, 3, 3};  // 4 lines, each gathered twice
  std::vector<double> dst;
  const auto id = ms.issue(d, &dst, nullptr);
  // The op completes with the last line's fill: its read leaves the
  // channel at `last_read` and returns access_latency later.
  std::uint64_t last_read = 0;
  while (!ms.all_done()) {
    ms.tick();
    if (last_read == 0 && ms.dram_stats().read_lines == 4) last_read = ms.now();
  }
  EXPECT_EQ(ms.dram_stats().read_lines, 4);
  EXPECT_EQ(ms.op_finish_time(id),
            last_read + static_cast<std::uint64_t>(cfg.dram.access_latency +
                                                   cfg.cache.hit_latency));
  EXPECT_EQ(dst[63], 31.0);
  // Every slot came back: a second pass hits without new fills.
  std::vector<double> again;
  ms.issue(d, &again, nullptr);
  run_to_completion(ms);
  EXPECT_EQ(ms.dram_stats().read_lines, 4);
  EXPECT_EQ(again, dst);
}

/// One bank, direct-mapped, 8 sets of 8-word lines: lines 0 and 8 (words
/// 0-7 and 64-71) share set 0.
MemSystemConfig one_bank_direct_mapped() {
  MemSystemConfig cfg = small_config();
  cfg.cache.n_banks = 1;
  cfg.cache.associativity = 1;
  cfg.cache.total_words = 64;
  return cfg;
}

/// Load line 0 into an idle memory system and let its fill complete.
void preload_line_zero(MemSystem& ms) {
  MemOpDesc d;
  d.kind = MemOpKind::kLoadStrided;
  d.n_records = 1;
  d.record_words = 8;
  std::vector<double> dst;
  ms.issue(d, &dst, nullptr);
  run_to_completion(ms);
  // One primary miss; the other seven words wait on its fill.
  ASSERT_EQ(ms.cache_stats().accesses, 8);
  ASSERT_EQ(ms.cache_stats().hits, 0);
  ASSERT_EQ(ms.cache_stats().misses, 8);
  ASSERT_EQ(ms.cache_stats().secondary_misses, 7);
}

TEST(MemSystem, FillIntoTheSetOfARunOfHitsEvictsItsLine) {
  // A run of same-line hits at a bank, then a fill that installs another
  // line into the same set: the evicted line's next word must miss, even
  // though the bank's previous turns all hit it.
  GlobalMemory mem(128);
  MemSystem ms(one_bank_direct_mapped(), &mem);
  preload_line_zero(ms);

  MemOpDesc hits;  // 96 words, all on resident line 0
  hits.kind = MemOpKind::kLoadGather;
  hits.n_records = 96;
  hits.record_words = 1;
  for (int i = 0; i < 96; ++i) hits.indices.push_back(static_cast<std::uint64_t>(i % 8));
  MemOpDesc evict;  // one word on line 8, queued behind the first hits
  evict.kind = MemOpKind::kLoadStrided;
  evict.base = 64;
  evict.n_records = 1;
  evict.record_words = 1;
  std::vector<double> a, b;
  const auto op_hits = ms.issue(hits, &a, nullptr);
  const auto op_evict = ms.issue(evict, &b, nullptr);

  // Line 8's fill completes op_evict in the tick that installs it.
  while (!ms.op_completed(op_evict) && ms.now() < 100'000) ms.tick();
  ASSERT_TRUE(ms.op_completed(op_evict));
  ASSERT_FALSE(ms.op_completed(op_hits));
  const CacheStats before = ms.cache_stats();
  // Eight preload words, line 8's primary miss, and every line-0 word
  // served so far hit.
  EXPECT_EQ(before.misses, 9);
  EXPECT_EQ(before.secondary_misses, 7);
  EXPECT_EQ(before.hits, before.accesses - 9);
  EXPECT_GT(before.hits, 4);

  // The next line-0 word is a primary miss.
  ms.tick();
  EXPECT_EQ(ms.cache_stats().accesses, before.accesses + 1);
  EXPECT_EQ(ms.cache_stats().hits, before.hits);
  EXPECT_EQ(ms.cache_stats().misses, before.misses + 1);
  EXPECT_EQ(ms.cache_stats().secondary_misses, before.secondary_misses);

  // The line-0 words queued while line 0 is refetched wait on its MSHR
  // (20 of them); the rest hit again.
  run_to_completion(ms);
  EXPECT_EQ(ms.cache_stats().accesses, 8 + 96 + 1);
  EXPECT_EQ(ms.cache_stats().hits, 96 - 1 - 20);
  EXPECT_EQ(ms.cache_stats().misses, 8 + 1 + 1 + 20);
  EXPECT_EQ(ms.cache_stats().secondary_misses, 7 + 20);
  EXPECT_EQ(ms.dram_stats().read_lines, 3);
  EXPECT_EQ(a, std::vector<double>(96, 0.0));
}

TEST(MemSystem, MissBlockedOnTheOnlyMshrCountsEveryRetry) {
  // One bank with one MSHR, two lines read in order: line 0's first word
  // takes the MSHR and its other seven join the fill; line 1's first word
  // then misses every cycle, with no MSHR free and none of its own, until
  // line 0's fill frees the slot, and only then takes it.
  GlobalMemory mem(64);
  MemSystemConfig cfg = small_config();
  cfg.cache.n_banks = 1;
  cfg.cache.mshrs_per_bank = 1;
  MemSystem ms(cfg, &mem);
  MemOpDesc d;
  d.kind = MemOpKind::kLoadStrided;
  d.n_records = 2;
  d.record_words = 8;
  std::vector<double> dst;
  ms.issue(d, &dst, nullptr);
  run_to_completion(ms);
  // Line 1's first word reaches the bank at cycle 9 and misses there every
  // cycle through 47, when line 0's fill returns: 16 word-times of
  // transfer (8 words plus the row change) at 0.6 words a cycle, then 20
  // cycles of access latency.
  const std::int64_t retries = 39;
  EXPECT_EQ(ms.cache_stats().accesses, 16 + retries);
  EXPECT_EQ(ms.cache_stats().hits, 0);
  EXPECT_EQ(ms.cache_stats().misses, 16 + retries);
  EXPECT_EQ(ms.cache_stats().secondary_misses, 14);
  EXPECT_EQ(ms.dram_stats().read_lines, 2);
}

TEST(MemSystem, StalledScatterAddCountsItsProbeOnEveryRetry) {
  // Scatter-adds to distinct words of one resident line through a
  // one-entry combining store: every word after the first finds the
  // entry busy for the FU latency (4 cycles), and each retry counts a
  // probe that hits, as the allocation that succeeds does.
  GlobalMemory mem(128);
  MemSystemConfig cfg = one_bank_direct_mapped();
  cfg.scatter_add.combining_entries = 1;
  MemSystem ms(cfg, &mem);
  preload_line_zero(ms);

  MemOpDesc d;
  d.kind = MemOpKind::kScatterAdd;
  d.n_records = 6;
  d.record_words = 1;
  d.indices = {0, 1, 2, 3, 4, 5};
  const std::vector<double> src = {1, 2, 3, 4, 5, 6};
  ms.issue(d, nullptr, &src);
  run_to_completion(ms);
  const std::int64_t retries = 4 * 5;
  EXPECT_EQ(ms.scatter_add_stats().requests, 6);
  EXPECT_EQ(ms.scatter_add_stats().issued, 6);
  EXPECT_EQ(ms.scatter_add_stats().combined, 0);
  EXPECT_EQ(ms.scatter_add_stats().stalled, retries);
  EXPECT_EQ(ms.cache_stats().accesses, 8 + 6 + retries);
  EXPECT_EQ(ms.cache_stats().hits, 6 + retries);
  EXPECT_EQ(ms.cache_stats().misses, 8);
  EXPECT_EQ(ms.dram_stats().read_lines, 1);
  EXPECT_DOUBLE_EQ(mem.read(5), 6.0);
}

TEST(MemSystem, TickUntilStopsAtFirstCompletion) {
  GlobalMemory mem;
  const auto base = mem.alloc(4096);
  const MemSystemConfig cfg = small_config();
  auto issue_two = [&](MemSystem& ms, std::vector<double>& a,
                       std::vector<double>& b) {
    MemOpDesc shorter;
    shorter.kind = MemOpKind::kLoadStrided;
    shorter.base = base;
    shorter.n_records = 1;
    shorter.record_words = 8;
    MemOpDesc longer = shorter;
    longer.base = base + 1024;
    longer.n_records = 256;
    return std::pair{ms.issue(shorter, &a, nullptr),
                     ms.issue(longer, &b, nullptr)};
  };

  // Reference: per-cycle ticks, noting the cycle each op completes in.
  MemSystem ref(cfg, &mem);
  std::vector<double> ra, rb;
  const auto [ref_a, ref_b] = issue_two(ref, ra, rb);
  std::uint64_t first = 0;
  while (!ref.op_completed(ref_b) && ref.now() < 100'000) {
    ref.tick();
    if (first == 0 && ref.op_completed(ref_a)) first = ref.now();
  }
  ASSERT_TRUE(ref.op_completed(ref_b));
  const std::uint64_t second = ref.now();
  ASSERT_GT(first, 1u);
  ASSERT_LT(first, second);

  MemSystem ms(cfg, &mem);
  std::vector<double> a, b;
  const auto [op_a, op_b] = issue_two(ms, a, b);
  // A target short of the first completion is reached exactly.
  EXPECT_EQ(ms.tick_until(first - 1), first - 1);
  EXPECT_FALSE(ms.op_completed(op_a));
  // A far target: the call returns at the end of the completing cycle,
  // with the finish time known but the pipeline drain still ahead.
  EXPECT_EQ(ms.tick_until(1'000'000), first);
  EXPECT_EQ(ms.now(), first);
  EXPECT_TRUE(ms.op_completed(op_a));
  EXPECT_FALSE(ms.op_completed(op_b));
  EXPECT_EQ(ms.op_finish_time(op_a),
            first + static_cast<std::uint64_t>(cfg.cache.hit_latency));
  EXPECT_FALSE(ms.op_done(op_a));
  EXPECT_EQ(ms.tick_until(1'000'000), second);
  EXPECT_TRUE(ms.op_completed(op_b));
  EXPECT_EQ(ms.op_finish_time(op_a), ref.op_finish_time(ref_a));
  EXPECT_EQ(ms.op_finish_time(op_b), ref.op_finish_time(ref_b));
  // Nothing left to complete: the target is reached.
  EXPECT_EQ(ms.tick_until(second + 500), second + 500);
  EXPECT_TRUE(ms.all_done());
}

/// Runs soup `seed` to cycle `end`, issuing every op at exactly its cycle,
/// either tick() by tick() or in tick_until strides that stop at the next
/// issue cycle. Each early return of tick_until is checked against the
/// contract: some op completed in the cycle it returned at. A positive
/// `n_banks` replaces the soup's bank count.
struct SoupRun {
  obs::Json record;
  std::vector<std::vector<double>> loaded;
  GlobalMemory memory;
};

SoupRun run_soup(int seed, bool strided, std::uint64_t end, int n_banks = 0) {
  soup::Soup s = soup::make(seed);
  if (n_banks > 0) s.cfg.cache.n_banks = n_banks;
  SoupRun out;
  out.loaded.resize(s.ops.size());
  MemSystem ms(s.cfg, &s.memory);
  std::vector<MemSystem::OpId> ids;
  std::size_t next = 0;
  while (ms.now() < end) {
    while (next < s.ops.size() && s.ops[next].issue_at <= ms.now()) {
      ids.push_back(ms.issue(s.ops[next].desc, &out.loaded[next],
                             &s.ops[next].src));
      ++next;
    }
    if (!strided) {
      ms.tick();
      continue;
    }
    const std::uint64_t target =
        next < s.ops.size() ? std::min(s.ops[next].issue_at, end) : end;
    std::vector<bool> completed;
    for (const auto id : ids) completed.push_back(ms.op_completed(id));
    const std::uint64_t reached = ms.tick_until(target);
    EXPECT_EQ(reached, ms.now());
    EXPECT_LE(reached, target);
    if (reached < target) {
      int newly = 0;
      for (std::size_t k = 0; k < ids.size(); ++k) {
        if (completed[k] || !ms.op_completed(ids[k])) continue;
        ++newly;
        EXPECT_EQ(ms.op_finish_time(ids[k]),
                  reached + static_cast<std::uint64_t>(s.cfg.cache.hit_latency))
            << "soup " << seed << " op " << k;
      }
      EXPECT_GT(newly, 0) << "soup " << seed << ": tick_until stopped at "
                          << reached << " with no completion";
    }
  }
  EXPECT_TRUE(ms.all_done()) << "soup " << seed;
  obs::Json finish = obs::Json::array();
  for (const auto id : ids) finish.push_back(ms.op_finish_time(id));
  out.record = obs::Json::object();
  out.record.set("finish_times", std::move(finish))
      .set("mem", to_json(ms.stats()))
      .set("cache", to_json(ms.cache_stats()))
      .set("dram", to_json(ms.dram_stats()))
      .set("scatter_add", to_json(ms.scatter_add_stats()));
  out.memory = s.memory;
  return out;
}

TEST(MemSystem, TickUntilMatchesTickOnOpSoups) {
  constexpr std::uint64_t kEnd = 50'000;
  for (int seed = 0; seed < 50; ++seed) {
    const SoupRun stepped = run_soup(seed, false, kEnd);
    const SoupRun strided = run_soup(seed, true, kEnd);
    EXPECT_EQ(obs::diff(stepped.record, strided.record), "") << "soup " << seed;
    EXPECT_EQ(stepped.loaded, strided.loaded) << "soup " << seed;
    EXPECT_EQ(diff_memory(stepped.memory, strided.memory), "")
        << "soup " << seed;
  }
}

TEST(MemSystem, TickUntilMatchesTickOnOpSoupsWithMoreBanksThanOneWord) {
  // 130 banks: more than one 64-bit word of per-bank state, the last word
  // partly used.
  constexpr std::uint64_t kEnd = 50'000;
  constexpr int kBanks = 130;
  for (int seed = 0; seed < 50; ++seed) {
    const SoupRun stepped = run_soup(seed, false, kEnd, kBanks);
    const SoupRun strided = run_soup(seed, true, kEnd, kBanks);
    EXPECT_EQ(obs::diff(stepped.record, strided.record), "") << "soup " << seed;
    EXPECT_EQ(stepped.loaded, strided.loaded) << "soup " << seed;
    EXPECT_EQ(diff_memory(stepped.memory, strided.memory), "")
        << "soup " << seed;
  }
}

}  // namespace
}  // namespace smd::mem
