// DRDRAM-style external memory model.
//
// Merrimac directly attaches 2 GB of Rambus DRDRAM delivering 38.4 GB/s of
// peak sequential bandwidth and roughly half that for random access
// (Section 2.2). We model the memory as line-interleaved channels, each
// with a fixed words-per-cycle transfer rate, a fixed access latency, and a
// row-activation penalty when consecutive accesses on a channel touch
// different rows -- which is what separates streaming from random access
// bandwidth.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/mem/divisor.h"
#include "src/obs/json.h"

namespace smd::mem {

struct DramConfig {
  int n_channels = 8;
  /// Per-channel transfer rate in 64-bit words per processor cycle.
  /// 8 channels x 0.6 w/c x 8 B x 1 GHz = 38.4 GB/s peak.
  double channel_words_per_cycle = 0.6;
  int access_latency = 100;     ///< cycles from service start to data return
  int row_words = 2048;         ///< words per DRAM row (16 KB)
  int row_miss_penalty_words = 8;  ///< extra word-times on a row change
  int read_queue_depth = 16;    ///< per channel
  std::int64_t write_buffer_words = 256;  ///< per channel posted-write buffer
};

struct DramStats {
  std::int64_t read_lines = 0;
  std::int64_t read_words = 0;
  std::int64_t write_words = 0;
  std::int64_t row_misses = 0;
  std::int64_t busy_cycles = 0;  ///< cycles where any channel transferred
};

/// Every field, for bench records and the bit-identity gates.
obs::Json to_json(const DramStats& s);

/// Cycle-driven DRAM model. Reads are requested at line granularity and
/// complete asynchronously; writes are posted at word granularity.
class Dram {
 public:
  Dram(const DramConfig& cfg, int line_words);

  /// Enqueue a line read; returns false when the channel queue is full.
  bool try_read_line(std::uint64_t line_addr);

  /// True when try_read_line(line_addr) would succeed (no side effects).
  bool can_accept_read(std::uint64_t line_addr) const;

  /// Post `n` write words at `addr`; returns false when the buffer is full.
  bool try_write_words(std::uint64_t addr, int n);

  /// Advance one cycle.
  void tick() {
    ++now_;
    if (channels_busy()) tick_channels();
    completed_now_.clear();
    if (!completions_.empty() && completions_.front().first <= now_) {
      pop_completions();
    }
  }

  /// Line reads whose data returned on the last tick(), in (completion
  /// cycle, line) order; valid until the next tick().
  const std::vector<std::uint64_t>& drain_completed_reads() const {
    return completed_now_;
  }

  bool writes_drained() const;
  bool idle() const;

  /// True when any channel has per-cycle work: a read being serviced or
  /// queued, or posted writes draining. Pending read *completions* (data
  /// in flight back to the cache) do not count -- they need no channel
  /// cycles, only the passage of time. The live set holds exactly the
  /// busy channels, so this is a test of its words.
  bool channels_busy() const {
    for (const std::uint64_t w : live_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Cycle at which the earliest pending read completion becomes visible
  /// (the tick that pops it), or kNever when none is in flight.
  static constexpr std::uint64_t kNever = ~0ULL;
  std::uint64_t next_completion_time() const;

  /// Fast-forward `dt` cycles of pure waiting. Precondition:
  /// !channels_busy() and now() + dt < next_completion_time(). Every
  /// channel is then idle, and an idle channel's credit accrual is
  /// replayed when a request wakes it, so this only moves the clock:
  /// bit-identical to dt calls of tick().
  void advance_idle(std::uint64_t dt) { now_ += dt; }

  const DramStats& stats() const { return stats_; }
  std::uint64_t now() const { return now_; }

 private:
  struct Channel {
    std::vector<std::uint64_t> read_queue;  // ring of read_queue_depth lines
    int read_head = 0;
    int reads_queued = 0;
    double pending_write_words = 0.0;  // fractional: drains at < 1 word/cycle
    std::uint64_t last_row = ~0ULL;
    double credit = 0.0;
    double read_cost_left = 0.0;  // word-times left on the line in service
    bool in_service = false;
    std::uint64_t serving_line = 0;
    std::uint64_t idle_since = 0;  // last tick accrued, while not live

    bool busy() const {
      return in_service || reads_queued > 0 || pending_write_words > 0.0;
    }
  };

  /// The per-channel half of tick(): bandwidth credit, read service and
  /// write drain, for the live channels.
  void tick_channels();
  /// Move the reads completing by now() into completed_now_.
  void pop_completions();
  int channel_of_line(std::uint64_t line_addr) const {
    return static_cast<int>(channel_div_.rem(line_addr));
  }
  /// Make channel `c` live for a request, first replaying the credit
  /// accrual of the idle ticks since it left the live set.
  void wake(int c);

  DramConfig cfg_;
  int line_words_;
  double cap_;           ///< idle credit cap: four lines of word-times
  Divisor line_div_;     ///< line_words
  Divisor channel_div_;  ///< n_channels
  Divisor row_div_;      ///< row_words
  /// Live channels, one bit each: the busy ones. A request makes its
  /// channel live; a tick that leaves a channel idle clears it. An idle
  /// tick only accrues credit up to the cap, so wake() replays those ticks
  /// when the next request comes. Channels start idle, with no credit.
  std::vector<std::uint64_t> live_;
  std::uint64_t now_ = 0;
  std::vector<Channel> channels_;
  /// (completion_cycle, line_addr), in completion-cycle order: every read
  /// completes a fixed latency after the cycle its transfer ends.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> completions_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> completing_;
  std::vector<std::uint64_t> completed_now_;
  DramStats stats_;
};

}  // namespace smd::mem
