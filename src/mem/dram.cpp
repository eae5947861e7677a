#include "src/mem/dram.h"

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
      line_div_(static_cast<std::uint64_t>(line_words)),
      channel_div_(static_cast<std::uint64_t>(cfg.n_channels)),
      row_div_(static_cast<std::uint64_t>(cfg.row_words)),
      channels_(static_cast<std::size_t>(cfg.n_channels)) {}

bool Dram::try_read_line(std::uint64_t line_addr) {
  Channel& ch = channels_[static_cast<std::size_t>(channel_of_line(line_addr))];
  if (static_cast<int>(ch.read_queue.size()) >= cfg_.read_queue_depth) return false;
  ch.read_queue.push_back(line_addr);
  busy_ = true;
  return true;
}

bool Dram::can_accept_read(std::uint64_t line_addr) const {
  const Channel& ch =
      channels_[static_cast<std::size_t>(channel_of_line(line_addr))];
  return static_cast<int>(ch.read_queue.size()) < cfg_.read_queue_depth;
}

bool Dram::try_write_words(std::uint64_t addr, int n) {
  Channel& ch = channels_[static_cast<std::size_t>(
      channel_of_line(line_div_.quot(addr)))];
  if (ch.pending_write_words + n > cfg_.write_buffer_words) return false;
  ch.pending_write_words += n;
  stats_.write_words += n;
  busy_ = true;
  return true;
}

void Dram::tick() {
  ++now_;
  // Every channel idle with its credit at the idle cap is a fixed point:
  // a tick would add credit and clamp it straight back to the cap.
  if (busy_ || !capped_) tick_channels();
  completed_now_.clear();
  while (!completions_.empty() && completions_.top().first <= now_) {
    completed_now_.push_back(completions_.top().second);
    completions_.pop();
  }
}

void Dram::tick_channels() {
  const double cap = 4.0 * static_cast<double>(line_words_);
  bool any_busy = false;
  busy_ = false;
  capped_ = true;
  for (auto& ch : channels_) {
    ch.credit += cfg_.channel_words_per_cycle;

    // Start servicing the next read when idle.
    if (!ch.in_service && !ch.read_queue.empty()) {
      ch.serving_line = ch.read_queue.front();
      ch.read_queue.pop_front();
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
      const double spend = ch.credit < ch.read_cost_left ? ch.credit : ch.read_cost_left;
      ch.credit -= spend;
      ch.read_cost_left -= spend;
      if (ch.read_cost_left <= 1e-12) {
        ch.in_service = false;
        completions_.push({now_ + static_cast<std::uint64_t>(cfg_.access_latency),
                           ch.serving_line});
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
    if (ch.credit > cap) ch.credit = cap;
    if (ch.in_service || !ch.read_queue.empty() || ch.pending_write_words > 0) {
      busy_ = true;
    }
    if (ch.credit != cap) capped_ = false;
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
  return completions_.empty() ? kNever : completions_.top().first;
}

void Dram::advance_idle(std::uint64_t dt) {
  now_ += dt;
  if (capped_) return;
  // With every channel idle, a tick only accrues credit and clamps it at
  // the idle cap; once a channel saturates, every further tick leaves it
  // exactly at the cap, so the replay loop can stop there.
  const double cap = 4.0 * static_cast<double>(line_words_);
  capped_ = true;
  for (auto& ch : channels_) {
    for (std::uint64_t k = 0; k < dt; ++k) {
      ch.credit += cfg_.channel_words_per_cycle;
      if (ch.credit > cap) {
        ch.credit = cap;
        break;
      }
    }
    if (ch.credit != cap) capped_ = false;
  }
}

}  // namespace smd::mem
