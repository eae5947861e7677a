// "lo:hi:step" value ranges: one expander with one set of bounds for the
// smdtune sweep axes (tune::ConfigSpace::parse) and the bench drivers'
// value lists (benchio::parse_value_list).
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace smd::util {

/// Most values one range may expand to.
inline constexpr std::size_t kMaxRangeValues = 4096;

/// The values lo, lo + step, ... up to hi (inclusive) of a "lo:hi:step"
/// token. Throws std::invalid_argument naming the token on a malformed
/// token or number, and on a range that would never end or exhaust
/// memory: a non-finite bound or step, an empty range, a step too small
/// to change the value, or more than kMaxRangeValues values.
inline std::vector<double> expand_range(const std::string& token) {
  const auto number = [](const std::string& s) {
    std::size_t pos = 0;
    try {
      const double v = std::stod(s, &pos);
      if (pos == s.size()) return v;
    } catch (const std::exception&) {
    }
    throw std::invalid_argument("bad number '" + s + "'");
  };
  const std::size_t c1 = token.find(':');
  const std::size_t c2 = c1 == std::string::npos ? c1 : token.find(':', c1 + 1);
  if (c2 == std::string::npos || token.find(':', c2 + 1) != std::string::npos) {
    throw std::invalid_argument("bad range '" + token + "' (want lo:hi:step)");
  }
  const double lo = number(token.substr(0, c1));
  const double hi = number(token.substr(c1 + 1, c2 - c1 - 1));
  const double step = number(token.substr(c2 + 1));
  if (!std::isfinite(lo) || !std::isfinite(hi) || !std::isfinite(step)) {
    throw std::invalid_argument("non-finite range '" + token + "'");
  }
  if (step <= 0.0 || hi < lo) {
    throw std::invalid_argument("empty range '" + token + "'");
  }
  std::vector<double> out;
  for (double v = lo; v <= hi + 1e-9 * step; v += step) {
    if (v + step <= v) {
      throw std::invalid_argument("step of range '" + token +
                                  "' does not advance the value");
    }
    if (out.size() == kMaxRangeValues) {
      throw std::invalid_argument("range '" + token + "' has more than " +
                                  std::to_string(kMaxRangeValues) + " values");
    }
    out.push_back(v);
  }
  return out;
}

}  // namespace smd::util
