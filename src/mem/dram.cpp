#include "src/mem/dram.h"

#include <algorithm>
#include <bit>

namespace smd::mem {

obs::Json to_json(const DramStats& s) {
  obs::Json j = obs::Json::object();
  j.set("read_lines", s.read_lines)
      .set("read_words", s.read_words)
      .set("write_words", s.write_words)
      .set("row_misses", s.row_misses)
      .set("busy_cycles", s.busy_cycles);
  return j;
}

Dram::Dram(const DramConfig& cfg, int line_words)
    : cfg_(cfg), line_words_(line_words),
      cap_(4.0 * static_cast<double>(line_words)),
      line_div_(static_cast<std::uint64_t>(line_words)),
      channel_div_(static_cast<std::uint64_t>(cfg.n_channels)),
      row_div_(static_cast<std::uint64_t>(cfg.row_words)),
      channels_(static_cast<std::size_t>(cfg.n_channels)) {
  const auto n = channels_.size();
  live_.assign((n + 63) / 64, 0);
  for (auto& ch : channels_) {
    ch.read_queue.resize(
        static_cast<std::size_t>(std::max(cfg.read_queue_depth, 0)));
  }
}

void Dram::wake(int c) {
  std::uint64_t& word = live_[static_cast<std::size_t>(c) >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (c & 63);
  if ((word & bit) != 0) return;
  word |= bit;
  // The idle ticks' accrual, one tick at a time as tick() would have
  // done it; once the credit saturates at the cap it stays there.
  Channel& ch = channels_[static_cast<std::size_t>(c)];
  for (std::uint64_t t = ch.idle_since; t < now_; ++t) {
    ch.credit += cfg_.channel_words_per_cycle;
    if (ch.credit > cap_) {
      ch.credit = cap_;
      break;
    }
  }
}

bool Dram::try_read_line(std::uint64_t line_addr) {
  const int c = channel_of_line(line_addr);
  Channel& ch = channels_[static_cast<std::size_t>(c)];
  if (ch.reads_queued >= cfg_.read_queue_depth) return false;
  int tail = ch.read_head + ch.reads_queued;
  if (tail >= cfg_.read_queue_depth) tail -= cfg_.read_queue_depth;
  ch.read_queue[static_cast<std::size_t>(tail)] = line_addr;
  ++ch.reads_queued;
  wake(c);
  return true;
}

bool Dram::can_accept_read(std::uint64_t line_addr) const {
  const Channel& ch =
      channels_[static_cast<std::size_t>(channel_of_line(line_addr))];
  return ch.reads_queued < cfg_.read_queue_depth;
}

bool Dram::try_write_words(std::uint64_t addr, int n) {
  const int c = channel_of_line(line_div_.quot(addr));
  Channel& ch = channels_[static_cast<std::size_t>(c)];
  if (ch.pending_write_words + n > cfg_.write_buffer_words) return false;
  ch.pending_write_words += n;
  stats_.write_words += n;
  wake(c);
  return true;
}

void Dram::pop_completions() {
  // The reads due by now, reported in (completion cycle, line) order.
  completing_.clear();
  while (!completions_.empty() && completions_.front().first <= now_) {
    completing_.push_back(completions_.front());
    completions_.pop_front();
  }
  std::sort(completing_.begin(), completing_.end());
  for (const auto& done : completing_) completed_now_.push_back(done.second);
}

void Dram::tick_channels() {
  bool any_busy = false;
  for (std::size_t w = 0; w < live_.size(); ++w) {
    for (std::uint64_t bits = live_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t c =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      Channel& ch = channels_[c];
      ch.credit += cfg_.channel_words_per_cycle;

      // Start servicing the next read when idle.
      if (!ch.in_service && ch.reads_queued > 0) {
        ch.serving_line = ch.read_queue[static_cast<std::size_t>(ch.read_head)];
        if (++ch.read_head == cfg_.read_queue_depth) ch.read_head = 0;
        --ch.reads_queued;
        ch.in_service = true;
        double cost = static_cast<double>(line_words_);
        const std::uint64_t row = row_div_.quot(
            ch.serving_line * static_cast<std::uint64_t>(line_words_));
        if (row != ch.last_row) {
          cost += cfg_.row_miss_penalty_words;
          ++stats_.row_misses;
          ch.last_row = row;
        }
        ch.read_cost_left = cost;
      }

      if (ch.in_service) {
        any_busy = true;
        const double spend =
            ch.credit < ch.read_cost_left ? ch.credit : ch.read_cost_left;
        ch.credit -= spend;
        ch.read_cost_left -= spend;
        if (ch.read_cost_left <= 1e-12) {
          ch.in_service = false;
          completions_.emplace_back(
              now_ + static_cast<std::uint64_t>(cfg_.access_latency),
              ch.serving_line);
          ++stats_.read_lines;
          stats_.read_words += line_words_;
        }
      } else if (ch.pending_write_words > 0.0) {
        // Drain posted writes with spare bandwidth.
        any_busy = true;
        const double spend = ch.credit < ch.pending_write_words
                                 ? ch.credit
                                 : ch.pending_write_words;
        ch.credit -= spend;
        ch.pending_write_words -= spend;
        if (ch.pending_write_words < 1e-9) ch.pending_write_words = 0.0;
      }

      // Don't bank unbounded credit while idle.
      if (ch.credit > cap_) ch.credit = cap_;
      if (!ch.busy()) {
        ch.idle_since = now_;  // wake() replays the ticks after this one
        live_[w] &= ~(std::uint64_t{1} << (c & 63));
      }
    }
  }
  if (any_busy) ++stats_.busy_cycles;
}

bool Dram::writes_drained() const {
  for (const auto& ch : channels_) {
    if (ch.pending_write_words > 0) return false;
  }
  return true;
}

bool Dram::idle() const {
  if (!completions_.empty()) return false;
  return !channels_busy();
}

std::uint64_t Dram::next_completion_time() const {
  return completions_.empty() ? kNever : completions_.front().first;
}

}  // namespace smd::mem
