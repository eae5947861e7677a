// FNV-1a digests for the golden-oracle suites (memsys_golden_test,
// kernel_golden_test). Recorded digests are compared as hex strings, so a
// mismatch prints both values in the form the constant tables use.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace smd::golden {

/// FNV-1a over bytes; integers are fed little-endian so digests do not
/// depend on the host byte order.
class Fnv1a {
 public:
  void str(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;  // FNV prime
  }
  std::uint64_t h_ = 1469598103934665603ULL;  // FNV offset basis
};

/// A digest spelled as a C++ literal ("0x...ULL").
inline std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace smd::golden
