#include "src/mem/memsys.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "src/obs/registry.h"

namespace smd::mem {

std::uint64_t GlobalMemory::alloc(std::int64_t n) {
  const auto base = static_cast<std::uint64_t>(words_.size());
  words_.resize(words_.size() + static_cast<std::size_t>(n), 0.0);
  return base;
}

void GlobalMemory::write_block(std::uint64_t addr, const std::vector<double>& data) {
  // Overflow-safe form of `addr + data.size() > words_.size()`: the naive
  // sum wraps for addresses near 2^64 and sails past the check.
  if (addr > words_.size() || data.size() > words_.size() - addr) {
    throw std::runtime_error("write_block out of range");
  }
  std::copy(data.begin(), data.end(), words_.begin() + static_cast<std::ptrdiff_t>(addr));
}

std::vector<double> GlobalMemory::read_block(std::uint64_t addr, std::int64_t n) const {
  if (n < 0) throw std::runtime_error("read_block negative length");
  if (addr > words_.size() ||
      static_cast<std::uint64_t>(n) > words_.size() - addr) {
    throw std::runtime_error("read_block out of range");
  }
  return {words_.begin() + static_cast<std::ptrdiff_t>(addr),
          words_.begin() + static_cast<std::ptrdiff_t>(addr) + n};
}

std::string diff_memory(const GlobalMemory& a, const GlobalMemory& b) {
  if (a.size() != b.size()) {
    return "memory size: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  const auto word = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g (0x%016llx)", v,
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(v)));
    return std::string(buf);
  };
  for (std::uint64_t w = 0; w < static_cast<std::uint64_t>(a.size()); ++w) {
    const double va = a.read(w);
    const double vb = b.read(w);
    if (std::bit_cast<std::uint64_t>(va) != std::bit_cast<std::uint64_t>(vb)) {
      return "memory word " + std::to_string(w) + ": " + word(va) + " vs " +
             word(vb);
    }
  }
  return "";
}

obs::Json to_json(const MemSystemStats& s) {
  obs::Json j = obs::Json::object();
  j.set("ops", s.ops)
      .set("words_loaded", s.words_loaded)
      .set("words_stored", s.words_stored)
      .set("addr_generated", s.addr_generated)
      .set("busy_cycles", s.busy_cycles);
  return j;
}

MemSystem::Bank::Bank(const CacheConfig& cache, const ScatterAddConfig& sa,
                      BankReq* ring_slots)
    : ring(ring_slots),
      mshrs(static_cast<std::size_t>(std::max(cache.mshrs_per_bank, 0))),
      combining(sa) {}

int MemSystem::Bank::find_mshr(std::uint64_t line) const {
  for (int i = 0; i < n_mshrs; ++i) {
    if (mshrs[static_cast<std::size_t>(i)].line == line) return i;
  }
  return -1;
}

MemSystem::Mshr& MemSystem::Bank::add_mshr(std::uint64_t line, bool dirty) {
  Mshr& m = mshrs[static_cast<std::size_t>(n_mshrs++)];
  m.line = line;
  m.dirty = dirty;
  m.waiters.clear();
  return m;
}

void MemSystem::Bank::release_mshr(int slot) {
  // Keep the live slots packed at the front; swapping moves the waiter
  // vectors' buffers, not their contents.
  --n_mshrs;
  if (slot != n_mshrs) {
    std::swap(mshrs[static_cast<std::size_t>(slot)],
              mshrs[static_cast<std::size_t>(n_mshrs)]);
  }
}

MemSystem::MemSystem(const MemSystemConfig& cfg, GlobalMemory* mem)
    : cfg_(cfg),
      mem_(mem),
      tags_(cfg.cache),
      dram_(cfg.dram, cfg.cache.line_words),
      depth_(std::max(cfg.cache.bank_queue_depth, 0)),
      line_words_(static_cast<std::uint64_t>(cfg.cache.line_words)) {
  const auto n_banks = static_cast<std::size_t>(std::max(cfg.cache.n_banks, 0));
  rings_.resize(n_banks * static_cast<std::size_t>(depth_));
  banks_.reserve(n_banks);
  for (std::size_t b = 0; b < n_banks; ++b) {
    banks_.emplace_back(cfg.cache, cfg.scatter_add,
                        rings_.data() + b * static_cast<std::size_t>(depth_));
  }
  active_.assign((n_banks + 63) / 64, 0);
  ag_.resize(static_cast<std::size_t>(cfg.n_address_generators));
}

MemSystem::OpId MemSystem::issue(const MemOpDesc& desc,
                                 std::vector<double>* load_dst,
                                 const std::vector<double>* store_src) {
  transfer(desc, *mem_, load_dst, store_src);
  return enqueue(desc);
}

void MemSystem::transfer(const MemOpDesc& desc, GlobalMemory& mem,
                         std::vector<double>* load_dst,
                         const std::vector<double>* store_src) {
  const std::int64_t total = desc.total_words();
  AddressGenerator walk;
  walk.start(&desc);
  if (is_load(desc.kind)) {
    if (load_dst == nullptr) throw std::runtime_error("load without destination");
    load_dst->clear();
    load_dst->reserve(static_cast<std::size_t>(total));
    while (!walk.done()) {
      load_dst->push_back(mem.read(walk.peek()));
      walk.advance();
    }
    return;
  }
  if (store_src == nullptr) throw std::runtime_error("store without source");
  if (static_cast<std::int64_t>(store_src->size()) < total) {
    throw std::runtime_error("store source shorter than op");
  }
  std::size_t i = 0;
  while (!walk.done()) {
    const double v = (*store_src)[i++];
    if (desc.kind == MemOpKind::kScatterAdd) {
      mem.add(walk.peek(), v);
    } else {
      mem.write(walk.peek(), v);
    }
    walk.advance();
  }
}

MemSystem::OpId MemSystem::enqueue(const MemOpDesc& desc) {
  const std::int64_t total = desc.total_words();
  const OpId id = static_cast<OpId>(ops_.size());

  Op op;
  if (total == 0) {
    op.done = true;
    op.finish_time = now_;
    last_finish_ = std::max(last_finish_, now_);
  } else {
    Generator g;
    g.op = id;
    g.kind = desc.kind;
    g.walk.start(&desc);  // throws on a short index stream, before any change
    ag_queue_.push_back(g);
    ++ag_ops_;
    ++active_ops_;
  }
  ops_.push_back(op);
  pending_.push_back(total + 1);  // the words, plus the walk itself
  ++stats_.ops;
  const MemOpKind kind = desc.kind;
  auto& reg = obs::CounterRegistry::global();
  reg.add("mem.ops_issued");
  if (is_load(kind)) {
    stats_.words_loaded += total;
    reg.add("mem.words_loaded", total);
  } else {
    stats_.words_stored += total;
    reg.add("mem.words_stored", total);
    if (kind == MemOpKind::kScatterAdd) reg.add("mem.scatter_add_words", total);
  }
  return id;
}

void MemSystem::complete(Op& op) {
  op.done = true;
  // Pipeline drain: last word still crosses the cache and SRF ports.
  op.finish_time = now_ + static_cast<std::uint64_t>(cfg_.cache.hit_latency);
  last_finish_ = std::max(last_finish_, op.finish_time);
  --active_ops_;
  ++ops_completed_;
}

void MemSystem::start_run(Generator& g) {
  const std::uint64_t addr = g.walk.peek();
  const std::uint64_t line = tags_.line_of(addr);
  const auto in_line = static_cast<int>(line_words_ - (addr - line * line_words_));
  g.addr = addr;
  g.bank = static_cast<std::size_t>(tags_.bank_of_line(line));
  g.left = std::min(g.walk.record_words_left(), in_line);
  g.walk.skip(g.left);
}

void MemSystem::generate_addresses() {
  const int quota = cfg_.addrs_per_generator;
  for (Generator& g : ag_) {
    if (g.op < 0) {
      if (ag_queue_.empty()) continue;
      g = ag_queue_.front();  // an idle generator takes the next walk
      ag_queue_.pop_front();
    }
    // A run lives in one bank, so the bank and the room left in its
    // queue are looked up once per run (or per cycle the run spans).
    int generated = 0;
    while (generated < quota) {
      if (g.left == 0) {
        if (g.walk.done()) break;
        start_run(g);
      }
      Bank& bank = banks_[g.bank];
      const int n = std::min(std::min(quota - generated, depth_ - bank.queued),
                             g.left);
      if (n <= 0) break;  // backpressure: the queue is full, retry next cycle
      for (int k = 0; k < n; ++k) {
        bank.push({g.op, g.kind, g.addr + static_cast<std::uint64_t>(k)}, depth_);
      }
      mark_active(g.bank);
      g.addr += static_cast<std::uint64_t>(n);
      g.left -= n;
      generated += n;
    }
    queued_ += generated;
    stats_.addr_generated += generated;
    if (g.left == 0 && g.walk.done()) {
      retire_word(g.op);  // the walk's own share of pending_
      g.op = -1;  // free the generator
      --ag_ops_;
    }
  }
}

std::ptrdiff_t MemSystem::lookup_tags(Bank& bank, std::uint64_t addr,
                                      std::uint64_t* line, int* mshr) {
  *line = tags_.line_of(addr);
  const CacheTags::Probe hit = tags_.probe_line(*line);
  if (hit.slot >= 0) {
    bank.memo_first = *line * line_words_;
    bank.memo_stamp = hit.stamp;
    bank.memo_slot = hit.slot;
    bank.memo_installs = installs_;
    return hit.slot;
  }
  *mshr = bank.find_mshr(*line);
  remember_miss(bank, *line, *mshr);
  return -1;
}

bool MemSystem::bank_process_one(Bank& bank) {
  // Highest priority: write back evicted dirty lines.
  if (bank.writebacks > 0) {
    const std::uint64_t line = bank.pending_writebacks.front();
    if (dram_.try_write_words(line * line_words_, cfg_.cache.line_words)) {
      bank.pending_writebacks.pop_front();
      --bank.writebacks;
      --writebacks_;
      return true;
    }
    return false;  // DRAM write buffer full; bank blocked this cycle
  }

  if (bank.queued == 0) return false;
  const BankReq req = bank.front();
  // Every path that takes the request pops it and retires its word (a
  // load miss retires on the fill instead).
  const auto take = [&](bool retire) {
    bank.pop(depth_);
    --queued_;
    if (retire) retire_word(req.op);
    return true;
  };

  switch (req.kind) {
    case MemOpKind::kLoadStrided:
    case MemOpKind::kLoadGather: {
      std::uint64_t line = 0;
      int slot = -1;
      if (lookup(bank, req.addr, &line, &slot) >= 0) return take(true);
      if (slot >= 0) {
        tags_.stats().secondary_misses++;
        bank.mshrs[static_cast<std::size_t>(slot)].waiters.push_back(req.op);
        return take(false);
      }
      if (bank.n_mshrs < cfg_.cache.mshrs_per_bank &&
          dram_.try_read_line(line)) {
        remember_miss(bank, line, bank.n_mshrs);
        bank.add_mshr(line, false).waiters.push_back(req.op);
        ++mshrs_in_use_;
        return take(false);
      }
      return false;  // MSHRs or DRAM queue full: head-of-line block
    }
    case MemOpKind::kStoreStrided:
    case MemOpKind::kStoreScatter: {
      // Write-through, no-allocate; keep a resident copy coherent.
      if (!dram_.try_write_words(req.addr, 1)) return false;
      tags_.refresh_line(tags_.line_of(req.addr));  // refresh LRU
      return take(true);
    }
    case MemOpKind::kScatterAdd: {
      // The combining store's horizon is the end of the previous cycle:
      // an entry is in flight while its expiry is this cycle or later.
      bank.combining.purge_expired(now_ - 1);
      // An addition to a word already in the FU pipeline merges for free.
      if (bank.combining.try_merge(req.addr, now_)) return take(true);
      // Otherwise this is a new in-flight addition: the FU performs its
      // read-modify-write inline at the bank (one word/bank/cycle -- the
      // paper's "full cache bandwidth"). A resident line is updated and
      // dirtied; a miss fetches the line, dirtying it on fill. A stalled
      // allocation still counts its probe.
      std::uint64_t line = 0;
      int slot = -1;
      const std::ptrdiff_t hit = lookup(bank, req.addr, &line, &slot);
      if (hit >= 0) {
        if (!bank.combining.try_allocate(req.addr, now_)) return false;
        tags_.mark_slot_dirty(hit);
        return take(true);
      }
      if (slot >= 0) {
        if (!bank.combining.try_allocate(req.addr, now_)) return false;
        tags_.stats().secondary_misses++;
        bank.mshrs[static_cast<std::size_t>(slot)].dirty = true;
        return take(true);
      }
      if (bank.n_mshrs < cfg_.cache.mshrs_per_bank &&
          dram_.can_accept_read(line)) {
        // The combining-store entry must be secured before the word is
        // retired: a full store counts a `stalled` retry (as on the hit
        // and secondary-miss paths) and the request stays head-of-line
        // for the next cycle instead of being dropped.
        if (!bank.combining.try_allocate(req.addr, now_)) return false;
        if (!dram_.try_read_line(line)) {
          throw std::logic_error("scatter-add miss fill: DRAM rejected a "
                                 "read it advertised capacity for");
        }
        remember_miss(bank, line, bank.n_mshrs);
        bank.add_mshr(line, true);
        ++mshrs_in_use_;
        return take(true);
      }
      return false;
    }
  }
  return false;
}

void MemSystem::handle_fills() {
  for (const std::uint64_t line : dram_.drain_completed_reads()) {
    const auto b = static_cast<std::size_t>(tags_.bank_of_line(line));
    Bank& bank = banks_[b];
    const int slot = bank.find_mshr(line);
    if (slot < 0) continue;
    bool evicted = false, dirty = false;
    std::uint64_t evicted_line = 0;
    tags_.install(line, &evicted, &evicted_line, &dirty);
    ++installs_;
    if (evicted && dirty) {
      bank.pending_writebacks.push_back(evicted_line);
      ++bank.writebacks;
      ++writebacks_;
      mark_active(b);
    }
    const Mshr& mshr = bank.mshrs[static_cast<std::size_t>(slot)];
    if (mshr.dirty) {
      tags_.mark_dirty(line * line_words_);
    }
    for (const OpId op : mshr.waiters) retire_word(op);
    bank.release_mshr(slot);
    --mshrs_in_use_;
  }
}

void MemSystem::tick() {
  ++now_;
  if (ag_ops_ > 0) generate_addresses();
  // Visit the active banks in bank order, as a loop over every bank that
  // skips the idle ones would.
  for (std::size_t w = 0; w < active_.size(); ++w) {
    for (std::uint64_t bits = active_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t b =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      Bank& bank = banks_[b];
      bank_process_one(bank);
      if (bank.idle()) active_[w] &= ~(std::uint64_t{1} << (b & 63));
    }
  }
  dram_.tick();
  if (!dram_.drain_completed_reads().empty()) handle_fills();
  if (active_ops_ > 0) ++stats_.busy_cycles;
}

bool MemSystem::op_done(OpId id) const {
  const Op& op = ops_[static_cast<std::size_t>(id)];
  return op.done && op.finish_time <= now_;
}

std::uint64_t MemSystem::op_finish_time(OpId id) const {
  return ops_[static_cast<std::size_t>(id)].finish_time;
}

bool MemSystem::all_done() const {
  // Every op retired and past its pipeline drain, no writeback or fill
  // outstanding -- and the DRAM gone quiet too: in-flight channel reads,
  // undrained read completions, and posted writes are all memory-system
  // business even after every op has retired (write-through stores retire
  // when the write is *posted*, not when it reaches DRAM).
  return active_ops_ == 0 && last_finish_ <= now_ && writebacks_ == 0 &&
         mshrs_in_use_ == 0 && dram_.idle();
}

std::uint64_t MemSystem::next_event_time() const {
  if (has_cycle_work()) return now_ + 1;
  return dram_.next_completion_time();
}

std::uint64_t MemSystem::tick_until(std::uint64_t t) {
  const std::uint64_t completed = ops_completed_;
  while (now_ < t && ops_completed_ == completed) {
    if (!has_cycle_work()) {
      // Pure wait: the only future activity is the tick that pops the next
      // DRAM read completion (if any). Jump to just before it -- or to the
      // target -- replaying the per-cycle effects exactly: DRAM credit
      // accrual and the busy-cycle counter. Combining-window expiry needs
      // no replay: a bank purges to the previous cycle when a scatter-add
      // reaches it.
      const std::uint64_t fill = dram_.next_completion_time();
      std::uint64_t jump_to = t;
      if (fill != Dram::kNever && fill - 1 < jump_to) jump_to = fill - 1;
      if (jump_to > now_) {
        const std::uint64_t dt = jump_to - now_;
        dram_.advance_idle(dt);
        if (active_ops_ > 0) stats_.busy_cycles += static_cast<std::int64_t>(dt);
        now_ = jump_to;
        continue;
      }
    }
    tick();
  }
  return now_;
}

ScatterAddStats MemSystem::scatter_add_stats() const {
  ScatterAddStats total;
  for (const auto& bank : banks_) {
    const auto& s = bank.combining.stats();
    total.requests += s.requests;
    total.combined += s.combined;
    total.issued += s.issued;
    total.stalled += s.stalled;
  }
  return total;
}

}  // namespace smd::mem
