#include "src/mem/memsys.h"

#include <bit>
#include <cstdio>
#include <stdexcept>

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

MemSystem::MemSystem(const MemSystemConfig& cfg, GlobalMemory* mem)
    : cfg_(cfg), mem_(mem), tags_(cfg.cache), dram_(cfg.dram, cfg.cache.line_words) {
  banks_.reserve(static_cast<std::size_t>(cfg.cache.n_banks));
  for (int b = 0; b < cfg.cache.n_banks; ++b) banks_.emplace_back(cfg.scatter_add);
  ag_current_.assign(static_cast<std::size_t>(cfg.n_address_generators), -1);
}

MemSystem::OpId MemSystem::issue(MemOpDesc desc, std::vector<double>* load_dst,
                                 const std::vector<double>* store_src) {
  const std::int64_t total = desc.total_words();
  const OpId id = static_cast<OpId>(ops_.size());

  // Functional transfer, exact and immediate. Timing completes later; the
  // stream controller's scoreboard keeps consumers from running early.
  if (is_load(desc.kind)) {
    if (load_dst == nullptr) throw std::runtime_error("load without destination");
    load_dst->clear();
    load_dst->reserve(static_cast<std::size_t>(total));
    AddressGenerator walk;
    walk.start(&desc);
    while (!walk.done()) {
      load_dst->push_back(mem_->read(walk.peek()));
      walk.advance();
    }
    stats_.words_loaded += total;
  } else {
    if (store_src == nullptr) throw std::runtime_error("store without source");
    if (static_cast<std::int64_t>(store_src->size()) < total) {
      throw std::runtime_error("store source shorter than op");
    }
    AddressGenerator walk;
    walk.start(&desc);
    std::int64_t i = 0;
    while (!walk.done()) {
      const double v = (*store_src)[static_cast<std::size_t>(i++)];
      if (desc.kind == MemOpKind::kScatterAdd) {
        mem_->add(walk.peek(), v);
      } else {
        mem_->write(walk.peek(), v);
      }
      walk.advance();
    }
    stats_.words_stored += total;
  }

  Op op;
  op.desc = std::move(desc);
  op.outstanding = total;
  if (total == 0) {
    op.done = true;
    op.finish_time = now_;
  }
  ops_.push_back(std::move(op));
  if (!ops_.back().done) {
    ops_.back().ag.start(&ops_.back().desc);
    ag_queue_.push_back(id);
    ++active_ops_;
  }
  ++stats_.ops;
  const MemOpKind kind = ops_.back().desc.kind;
  auto& reg = obs::CounterRegistry::global();
  reg.add("mem.ops_issued");
  if (is_load(kind)) {
    reg.add("mem.words_loaded", total);
  } else {
    reg.add("mem.words_stored", total);
    if (kind == MemOpKind::kScatterAdd) reg.add("mem.scatter_add_words", total);
  }
  return id;
}

void MemSystem::retire_word(OpId id) {
  Op& op = ops_[static_cast<std::size_t>(id)];
  if (--op.outstanding == 0 && op.addresses_done) {
    op.done = true;
    // Pipeline drain: last word still crosses the cache and SRF ports.
    op.finish_time = now_ + static_cast<std::uint64_t>(cfg_.cache.hit_latency);
    --active_ops_;
  }
}

void MemSystem::generate_addresses() {
  // Assign queued ops to idle address generators.
  for (auto& cur : ag_current_) {
    if (cur < 0 && !ag_queue_.empty()) {
      cur = ag_queue_.front();
      ag_queue_.pop_front();
    }
  }
  for (auto& cur : ag_current_) {
    if (cur < 0) continue;
    Op& op = ops_[static_cast<std::size_t>(cur)];
    int budget = cfg_.addrs_per_generator;
    while (budget > 0 && !op.ag.done()) {
      const std::uint64_t addr = op.ag.peek();
      Bank& bank = banks_[static_cast<std::size_t>(tags_.bank_of(addr))];
      if (static_cast<int>(bank.queue.size()) >= cfg_.cache.bank_queue_depth) {
        break;  // backpressure: retry next cycle
      }
      bank.queue.push_back({cur, addr, op.desc.kind});
      op.ag.advance();
      ++stats_.addr_generated;
      --budget;
    }
    if (op.ag.done()) {
      op.addresses_done = true;
      if (op.outstanding == 0 && !op.done) {
        op.done = true;
        op.finish_time = now_ + static_cast<std::uint64_t>(cfg_.cache.hit_latency);
        --active_ops_;
      }
      cur = -1;  // free the generator
    }
  }
}

bool MemSystem::bank_process_one(int b) {
  Bank& bank = banks_[static_cast<std::size_t>(b)];

  // Highest priority: write back evicted dirty lines.
  if (!bank.pending_writebacks.empty()) {
    const std::uint64_t line = bank.pending_writebacks.front();
    if (dram_.try_write_words(line * static_cast<std::uint64_t>(cfg_.cache.line_words),
                              cfg_.cache.line_words)) {
      bank.pending_writebacks.pop_front();
      return true;
    }
    return false;  // DRAM write buffer full; bank blocked this cycle
  }

  if (bank.queue.empty()) return false;
  const BankReq req = bank.queue.front();

  switch (req.kind) {
    case MemOpKind::kLoadStrided:
    case MemOpKind::kLoadGather: {
      if (tags_.probe(req.addr) == CacheOutcome::kHit) {
        bank.queue.pop_front();
        retire_word(req.op);
        return true;
      }
      const std::uint64_t line = tags_.line_of(req.addr);
      auto it = bank.mshrs.find(line);
      if (it != bank.mshrs.end()) {
        tags_.stats().secondary_misses++;
        it->second.waiters.push_back(req.op);
        bank.queue.pop_front();
        return true;
      }
      if (static_cast<int>(bank.mshrs.size()) < cfg_.cache.mshrs_per_bank &&
          dram_.try_read_line(line)) {
        bank.mshrs.emplace(line, Mshr{{req.op}, false});
        bank.queue.pop_front();
        return true;
      }
      return false;  // MSHRs or DRAM queue full: head-of-line block
    }
    case MemOpKind::kStoreStrided:
    case MemOpKind::kStoreScatter: {
      // Write-through, no-allocate; keep a resident copy coherent.
      if (!dram_.try_write_words(req.addr, 1)) return false;
      if (tags_.resident(req.addr)) tags_.probe(req.addr);  // refresh LRU
      bank.queue.pop_front();
      retire_word(req.op);
      return true;
    }
    case MemOpKind::kScatterAdd: {
      // An addition to a word already in the FU pipeline merges for free.
      if (bank.combining.try_merge(req.addr, now_)) {
        bank.queue.pop_front();
        retire_word(req.op);
        return true;
      }
      // Otherwise this is a new in-flight addition: the FU performs its
      // read-modify-write inline at the bank (one word/bank/cycle -- the
      // paper's "full cache bandwidth"). A resident line is updated and
      // dirtied; a miss fetches the line, dirtying it on fill.
      const std::uint64_t line = tags_.line_of(req.addr);
      if (tags_.probe(req.addr) == CacheOutcome::kHit) {
        if (!bank.combining.try_allocate(req.addr, now_)) return false;
        tags_.mark_dirty(req.addr);
        bank.queue.pop_front();
        retire_word(req.op);
        return true;
      }
      auto it = bank.mshrs.find(line);
      if (it != bank.mshrs.end()) {
        if (!bank.combining.try_allocate(req.addr, now_)) return false;
        tags_.stats().secondary_misses++;
        it->second.dirty = true;
        bank.queue.pop_front();
        retire_word(req.op);
        return true;
      }
      if (static_cast<int>(bank.mshrs.size()) < cfg_.cache.mshrs_per_bank &&
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
        bank.mshrs.emplace(line, Mshr{{}, true});
        bank.queue.pop_front();
        retire_word(req.op);
        return true;
      }
      return false;
    }
  }
  return false;
}

void MemSystem::handle_fills() {
  for (const std::uint64_t line : dram_.drain_completed_reads()) {
    Bank& bank = banks_[static_cast<std::size_t>(
        tags_.bank_of(line * static_cast<std::uint64_t>(cfg_.cache.line_words)))];
    auto it = bank.mshrs.find(line);
    if (it == bank.mshrs.end()) continue;
    bool evicted = false, dirty = false;
    std::uint64_t evicted_line = 0;
    tags_.install(line, &evicted, &evicted_line, &dirty);
    if (evicted && dirty) bank.pending_writebacks.push_back(evicted_line);
    if (it->second.dirty) {
      tags_.mark_dirty(line * static_cast<std::uint64_t>(cfg_.cache.line_words));
    }
    for (const OpId op : it->second.waiters) retire_word(op);
    bank.mshrs.erase(it);
  }
}

void MemSystem::tick() {
  ++now_;
  generate_addresses();
  for (int b = 0; b < cfg_.cache.n_banks; ++b) bank_process_one(b);
  for (auto& bank : banks_) bank.combining.purge_expired(now_);
  dram_.tick();
  handle_fills();
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
  if (active_ops_ > 0) return false;
  for (const auto& op : ops_) {
    if (!op.done || op.finish_time > now_) return false;
  }
  for (const auto& bank : banks_) {
    if (!bank.pending_writebacks.empty() || !bank.mshrs.empty()) return false;
  }
  // The DRAM must have gone quiet too: in-flight channel reads, undrained
  // read completions, and posted writes are all memory-system business even
  // after every op has retired (write-through stores retire when the write
  // is *posted*, not when it reaches DRAM).
  return dram_.idle();
}

bool MemSystem::has_cycle_work() const {
  if (!ag_queue_.empty()) return true;
  for (const OpId cur : ag_current_) {
    if (cur >= 0) return true;
  }
  for (const auto& bank : banks_) {
    if (!bank.queue.empty() || !bank.pending_writebacks.empty()) return true;
  }
  return dram_.channels_busy();
}

std::uint64_t MemSystem::next_event_time() const {
  if (has_cycle_work()) return now_ + 1;
  return dram_.next_completion_time();
}

void MemSystem::tick_until(std::uint64_t t) {
  while (now_ < t) {
    if (!has_cycle_work()) {
      // Pure wait: the only future activity is the tick that pops the next
      // DRAM read completion (if any). Jump to just before it -- or to the
      // target -- replaying the per-cycle effects exactly: DRAM credit
      // accrual, the busy-cycle counter, and combining-window expiry
      // (purging once at the landing cycle removes the same entry set as
      // purging every cycle would, and no requests arrive in between).
      const std::uint64_t fill = dram_.next_completion_time();
      std::uint64_t jump_to = t;
      if (fill != Dram::kNever && fill - 1 < jump_to) jump_to = fill - 1;
      if (jump_to > now_) {
        const std::uint64_t dt = jump_to - now_;
        dram_.advance_idle(dt);
        if (active_ops_ > 0) stats_.busy_cycles += static_cast<std::int64_t>(dt);
        now_ = jump_to;
        for (auto& bank : banks_) bank.combining.purge_expired(now_);
        continue;
      }
    }
    tick();
  }
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
