// Log-bucketed, mergeable latency histogram with a documented worst-case
// quantile error bound (DESIGN.md section 15).
//
// Samples are nonnegative integer nanoseconds. The bucket scheme
// ("ns-log2x32") is fixed and global, never per-instance:
//
//   * v < 64 ns          one bucket per nanosecond (exact);
//   * v in [2^m, 2^(m+1)) the octave splits into 32 equal sub-buckets
//     of width 2^(m-5).
//
// Because every instance shares the one scheme, merge() is plain
// bucket-wise addition: commutative, associative, and bit-identical to a
// histogram fed the union of the samples. That is what lets per-worker
// or per-regime histograms fold into service-wide ones without error.
//
// Quantile error bound: quantile(q) locates the bucket holding the exact
// order statistic (same rank convention as index `floor(q*n)` into the
// sorted samples) and reports the exact value below 64 ns and the bucket
// midpoint above, so its result differs from the true sorted quantile by
// at most half a bucket width — a relative error of at most
// kQuantileRelErr = 1/64 (1.5625%). obs_test verifies the bound against
// exact sorted samples; bench_svc_load re-verifies it at load on real
// service latencies.
//
// Threading: every method is internally synchronized; the copy
// constructor takes the source's lock, so copying a live histogram is a
// consistent snapshot.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/obs/json.h"

namespace smd::obs {

class LatencyHistogram {
 public:
  /// Worst-case |quantile(q) - exact sorted quantile| / exact, for
  /// samples >= 64 ns (below 64 ns the histogram is exact).
  static constexpr double kQuantileRelErr = 1.0 / 64.0;
  /// Scheme tag stamped into the JSON export; from_json rejects others.
  static constexpr const char* kScheme = "ns-log2x32";

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram& other);
  /// Replace this histogram with a consistent snapshot of `other`
  /// (source locked during the copy; self-assignment is a no-op).
  LatencyHistogram& operator=(const LatencyHistogram& other);

  /// Record one sample; negative values clamp to 0.
  void record(std::int64_t ns);

  /// Bucket-wise fold of `other` into this histogram — exact, order
  /// independent.
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const;
  std::int64_t sum_ns() const;
  std::int64_t min_ns() const;  ///< 0 when empty
  std::int64_t max_ns() const;  ///< 0 when empty
  double mean_ns() const;       ///< 0 when empty

  /// Estimated q-th quantile in ns (q clamped to [0,1]; 0 when empty),
  /// within kQuantileRelErr of the exact sorted value — see the header
  /// comment for the bound's derivation.
  double quantile(double q) const;

  /// {"scheme","count","sum_ns","min_ns","max_ns","buckets":[[i,n],...]}
  /// with buckets in ascending index order — byte-stable across runs
  /// with the same samples.
  Json to_json() const;
  /// Inverse of to_json(); throws std::runtime_error on a malformed
  /// document or an unknown scheme tag.
  static LatencyHistogram from_json(const Json& j);

  // Scheme geometry, exposed for tests: the bucket holding `v`, and its
  // half-open range [lo, hi).
  static std::size_t bucket_index(std::uint64_t v);
  static std::uint64_t bucket_lo(std::size_t index);
  static std::uint64_t bucket_hi(std::size_t index);

 private:
  void record_locked(std::uint64_t v, std::uint64_t n);

  mutable std::mutex mu_;
  std::vector<std::uint64_t> counts_;  ///< grown to the highest index seen
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace smd::obs
