// Division by a divisor fixed at construction.
//
// The memory model maps every word address to a line, a bank, a cache set
// and a DRAM channel and row. Those divisors come from the configuration
// and are powers of two on the paper's machine, where quotient and
// remainder reduce to a shift and a mask; other geometries (6 banks,
// 12-word lines) keep the division.
#pragma once

#include <bit>
#include <cstdint>

namespace smd::mem {

class Divisor {
 public:
  /// `d` must be positive.
  explicit Divisor(std::uint64_t d)
      : d_(d), shift_(std::has_single_bit(d) ? std::countr_zero(d) : -1) {}

  std::uint64_t quot(std::uint64_t x) const {
    return shift_ >= 0 ? x >> shift_ : x / d_;
  }
  std::uint64_t rem(std::uint64_t x) const {
    return shift_ >= 0 ? x & (d_ - 1) : x % d_;
  }

 private:
  std::uint64_t d_;
  int shift_;
};

}  // namespace smd::mem
