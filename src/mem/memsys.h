// The Merrimac node memory system.
//
// Glues the address generators, the banked stream cache, the scatter-add
// combining stores and the DRDRAM channels into a cycle-driven engine that
// services stream memory operations (Section 2.2):
//
//   AGs (8 addr/cycle total) -> bank queues -> cache banks (1 word/cycle
//   each, 8 banks = 64 GB/s) -> MSHRs -> DRAM channels (38.4 GB/s peak).
//
// Functional data movement is exact: loads copy from GlobalMemory into the
// destination buffer, stores copy back, and scatter-add performs real
// floating-point accumulation -- so simulated kernels produce real forces.
// Timing is modeled per word through the pipeline above. The two halves
// are separate calls (transfer, enqueue): timing never reads the data, so
// the stream controller applies the transfers on a helper thread.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/mem/addrgen.h"
#include "src/mem/cache.h"
#include "src/mem/dram.h"
#include "src/mem/scatteradd.h"
#include "src/obs/json.h"

namespace smd::mem {

struct MemSystemConfig {
  CacheConfig cache;
  DramConfig dram;
  ScatterAddConfig scatter_add;
  int n_address_generators = 2;
  int addrs_per_generator = 4;  ///< per cycle; 2 x 4 = 8 addresses/cycle
};

/// Flat 64-bit-word global memory with a bump allocator, shared by the
/// scalar program and the stream unit (Merrimac's single address space).
class GlobalMemory {
 public:
  explicit GlobalMemory(std::int64_t initial_words = 0)
      : words_(static_cast<std::size_t>(initial_words), 0.0) {}

  /// Allocate `n` words; returns the base word address.
  std::uint64_t alloc(std::int64_t n);

  double read(std::uint64_t addr) const { return words_[addr]; }
  void write(std::uint64_t addr, double v) { words_[addr] = v; }
  void add(std::uint64_t addr, double v) { words_[addr] += v; }

  std::int64_t size() const { return static_cast<std::int64_t>(words_.size()); }

  /// Bulk helpers for program setup/readback.
  void write_block(std::uint64_t addr, const std::vector<double>& data);
  std::vector<double> read_block(std::uint64_t addr, std::int64_t n) const;

 private:
  std::vector<double> words_;
};

/// Bitwise memory-image comparison, the memory half of every bit-identity
/// gate: "" when both images hold the same words with the same bit
/// patterns (so 0.0 and -0.0 differ), else the size mismatch or the first
/// differing word, as "memory word <w>: <a> (0x<bits>) vs <b> (0x<bits>)".
std::string diff_memory(const GlobalMemory& a, const GlobalMemory& b);

struct MemSystemStats {
  std::int64_t ops = 0;
  std::int64_t words_loaded = 0;     ///< SRF <- memory words
  std::int64_t words_stored = 0;     ///< SRF -> memory words (incl. scatter-add)
  std::int64_t addr_generated = 0;
  std::int64_t busy_cycles = 0;      ///< cycles with at least one active op
};

/// Every field, for bench records and the bit-identity gates.
obs::Json to_json(const MemSystemStats& s);

/// Cycle-driven stream memory system.
class MemSystem {
 public:
  using OpId = int;

  MemSystem(const MemSystemConfig& cfg, GlobalMemory* mem);
  // Banks point into rings_ and into the tag store.
  MemSystem(const MemSystem&) = delete;
  MemSystem& operator=(const MemSystem&) = delete;

  /// Issue a stream memory operation: transfer() its data now, then
  /// enqueue() its timing. Calls must come in an order that respects data
  /// dependences.
  OpId issue(const MemOpDesc& desc, std::vector<double>* load_dst,
             const std::vector<double>* store_src);

  /// The functional half of issue, exact and immediate:
  ///  * loads: `load_dst` is resized and filled from `mem`;
  ///  * stores/scatter-add: `store_src` must hold total_words() values,
  ///    which are written to (or added into) `mem`.
  /// Throws std::runtime_error on a missing buffer or a short source.
  static void transfer(const MemOpDesc& desc, GlobalMemory& mem,
                       std::vector<double>* load_dst,
                       const std::vector<double>* store_src);

  /// The timing half of issue: queues the op's address walk through the
  /// pipeline and counts its words. No data moves, so the stream
  /// controller can apply transfer() elsewhere, in issue order. The walk
  /// reads a gather's or scatter's index vector in place, without a copy:
  /// an indexed `desc` must outlive its op (until op_completed), as a
  /// stream program's descriptors outlive the run.
  OpId enqueue(const MemOpDesc& desc);

  /// Advance one cycle.
  void tick();

  /// Advance toward cycle `t` (t > now()) and return the cycle reached:
  /// `t`, or earlier -- the end of the first cycle in which an op
  /// completes, i.e. the cycle its op_finish_time becomes known. Bit-
  /// identical to that many calls of tick(). Busy stretches run through
  /// the per-cycle model here, without returning to the caller; pure-wait
  /// stretches (no address generation, no bank work, no DRAM channel
  /// activity) are fast-forwarded in O(1). op_done can only flip at a
  /// finish time, so a caller that stops at every return value and at
  /// every known finish time observes every op_done change promptly.
  std::uint64_t tick_until(std::uint64_t t);

  /// Earliest future cycle at which the visible state (op_done answers,
  /// statistics) may change: now()+1 while any per-cycle machinery is
  /// active, the next DRAM read-completion cycle when only fills are
  /// outstanding, or kNever when nothing at all is in flight (pending
  /// op_finish_time pipeline drains are the caller's to track).
  static constexpr std::uint64_t kNever = Dram::kNever;
  std::uint64_t next_event_time() const;

  bool op_done(OpId id) const;
  /// True once the op's last word retired (its finish_time is final);
  /// op_done additionally waits for the pipeline-drain finish_time.
  bool op_completed(OpId id) const {
    return ops_[static_cast<std::size_t>(id)].done;
  }
  /// Cycle at which the op completed (valid once op_completed).
  std::uint64_t op_finish_time(OpId id) const;
  bool all_done() const;
  std::uint64_t now() const { return now_; }

  const MemSystemStats& stats() const { return stats_; }
  const CacheStats& cache_stats() const { return tags_.stats(); }
  const DramStats& dram_stats() const { return dram_.stats(); }
  ScatterAddStats scatter_add_stats() const;

 private:
  struct Op {
    bool done = false;
    std::uint64_t finish_time = 0;
  };

  /// An op's address walk, waiting for or held by an address generator,
  /// and the run it is generating: consecutive words of one record inside
  /// one line, so in one bank. The run is kept from cycle to cycle, so a
  /// generator stopped by a full queue resumes it without recomputing
  /// line, bank and offset.
  struct Generator {
    OpId op = -1;  ///< -1: an idle generator
    MemOpKind kind = MemOpKind::kLoadStrided;
    AddressGenerator walk;  ///< past the run; reads the caller's desc.indices
    std::uint64_t addr = 0;  ///< the run's next word
    std::size_t bank = 0;    ///< the run's bank
    int left = 0;            ///< words left in the run
  };

  struct BankReq {
    OpId op;
    MemOpKind kind;
    std::uint64_t addr;
  };

  /// An outstanding line fill and the ops waiting on it. Slots are reused,
  /// so a waiter vector keeps its capacity from fill to fill.
  struct Mshr {
    std::uint64_t line = 0;
    bool dirty = false;  ///< a scatter-add RMW targets the line
    std::vector<OpId> waiters;
  };

  /// One cache bank, sized by CacheConfig: a ring of bank_queue_depth
  /// requests (a slice of MemSystem::rings_) and mshrs_per_bank MSHR
  /// slots, the first n_mshrs in use.
  struct Bank {
    Bank(const CacheConfig& cache, const ScatterAddConfig& sa,
         BankReq* ring_slots);

    bool idle() const { return queued == 0 && writebacks == 0; }
    const BankReq& front() const { return ring[head]; }
    void push(const BankReq& req, int depth) {
      int tail = head + queued;
      if (tail >= depth) tail -= depth;
      ring[tail] = req;
      ++queued;
    }
    void pop(int depth) {
      if (++head == depth) head = 0;
      --queued;
    }
    /// Slot index of the MSHR tracking `line`, or -1.
    int find_mshr(std::uint64_t line) const;
    Mshr& add_mshr(std::uint64_t line, bool dirty);
    void release_mshr(int slot);

    BankReq* ring;  // bank_queue_depth slots
    int head = 0;
    int queued = 0;
    int writebacks = 0;  // pending_writebacks.size()
    /// Last-lookup memo: the line (by its first word) of the bank's last
    /// tag lookup. A hit keeps its tag slot and LRU stamp word; a miss, no
    /// stamp and the MSHR slot of the line's outstanding fill, or -1 when
    /// there is none. It holds while MemSystem::installs_ still reads
    /// memo_installs: only a fill's install moves a line into or out of a
    /// tag slot or frees an MSHR, and every new MSHR becomes the memo.
    /// ~0 matches no install count.
    std::uint64_t memo_first = 0;
    std::uint64_t* memo_stamp = nullptr;  ///< null: a miss
    std::ptrdiff_t memo_slot = -1;
    std::uint64_t memo_installs = ~std::uint64_t{0};
    std::vector<Mshr> mshrs;
    int n_mshrs = 0;
    std::deque<std::uint64_t> pending_writebacks;   // line addresses
    CombiningStore combining;
  };

  void retire_word(OpId id) {
    if (--pending_[static_cast<std::size_t>(id)] == 0) {
      complete(ops_[static_cast<std::size_t>(id)]);
    }
  }
  void complete(Op& op);
  /// The tag probe of a bank's request to `addr`, counted and stamped as
  /// CacheTags::probe_line would. Returns the hit's tag slot; on a miss,
  /// -1 with `*mshr` set to the MSHR slot of the line's outstanding fill,
  /// or to -1 when there is none and then `*line` to the line. Through the
  /// bank's memo when it holds the line, without a lookup.
  std::ptrdiff_t lookup(Bank& bank, std::uint64_t addr, std::uint64_t* line,
                        int* mshr) {
    if (bank.memo_installs != installs_ ||
        addr - bank.memo_first >= line_words_) {
      return lookup_tags(bank, addr, line, mshr);
    }
    if (bank.memo_stamp != nullptr) {
      tags_.rehit(bank.memo_stamp);
      return bank.memo_slot;
    }
    tags_.remiss();
    *mshr = static_cast<int>(bank.memo_slot);
    if (*mshr < 0) *line = tags_.line_of(addr);
    return -1;
  }
  /// lookup() past the memo; the result becomes the memo.
  std::ptrdiff_t lookup_tags(Bank& bank, std::uint64_t addr,
                             std::uint64_t* line, int* mshr);
  /// Make the miss on `line` the bank's memo: its fill's MSHR `slot`, or
  /// -1 when none is outstanding.
  void remember_miss(Bank& bank, std::uint64_t line, int slot) {
    bank.memo_first = line * line_words_;
    bank.memo_stamp = nullptr;
    bank.memo_slot = slot;
    bank.memo_installs = installs_;
  }
  bool bank_process_one(Bank& bank);
  void handle_fills();
  void generate_addresses();
  /// Start `g`'s next run at its walk's next word.
  void start_run(Generator& g);
  void mark_active(std::size_t bank) {
    active_[bank >> 6] |= std::uint64_t{1} << (bank & 63);
  }
  bool has_cycle_work() const {
    return ag_ops_ > 0 || queued_ > 0 || writebacks_ > 0 ||
           dram_.channels_busy();
  }

  MemSystemConfig cfg_;
  GlobalMemory* mem_;
  CacheTags tags_;
  Dram dram_;
  int depth_;                        // bank_queue_depth
  std::uint64_t line_words_;         // line_words
  std::uint64_t installs_ = 0;       // lines installed so far (banks' memos)
  std::vector<BankReq> rings_;       // every bank's ring, bank by bank
  std::vector<Bank> banks_;
  /// Active-bank set, one bit per bank in 64-bit words: set when a
  /// request or a writeback lands in the bank, cleared when the bank is
  /// idle after its turn. tick() visits the set bits in bank order.
  std::vector<std::uint64_t> active_;
  std::vector<Op> ops_;
  /// Per op: words not yet retired, plus 1 until its address walk ends;
  /// the op completes when this reaches 0. Kept apart from ops_ so a
  /// retirement touches one small array.
  std::vector<std::int64_t> pending_;
  std::deque<Generator> ag_queue_;   // walks waiting for a generator
  std::vector<Generator> ag_;        // the address generators
  std::uint64_t now_ = 0;
  MemSystemStats stats_;
  int active_ops_ = 0;               // issued, not yet completed
  int ag_ops_ = 0;                   // queued for or holding an AG
  std::int64_t queued_ = 0;          // requests in all bank queues
  std::int64_t writebacks_ = 0;      // pending writebacks, all banks
  std::int64_t mshrs_in_use_ = 0;    // all banks
  std::uint64_t ops_completed_ = 0;  // tick_until's stop signal
  std::uint64_t last_finish_ = 0;    // latest finish_time so far
};

}  // namespace smd::mem
