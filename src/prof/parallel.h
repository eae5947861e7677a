// Parallel-performance attribution: where did every node-nanosecond of a
// multi-node step go?
//
// The per-node ledgers of src/net/parallel.h tile each node's copy of the
// step exactly (integer nanoseconds, barrier wait explicit). Summing them
// across nodes therefore decomposes the step's total node-time --
// P x step_ns -- into four disjoint buckets with the same exact
// sum-to-total invariant as prof::StallTaxonomy (DESIGN.md section 9):
//
//   compute         interaction evaluation overlapped with local memory,
//   communication   halo gather + force scatter-add bandwidth time,
//   serialization   per-message network tier latency (does not shrink
//                   with P; the latency wall of strong scaling),
//   imbalance       barrier wait for the slowest node (GROMACS's load
//                   imbalance term).
//
// exhaustive() is the invariant the `smdprof --scaling` ctest and the
// randomized property test in tests/prof_test.cpp pin: the four buckets
// sum *exactly* to total_node_ns for every workload x node count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/run.h"
#include "src/net/multinode.h"
#include "src/net/parallel.h"
#include "src/obs/json.h"

namespace smd::prof {

/// Exhaustive, disjoint decomposition of a multi-node step's node-time.
struct ParallelTaxonomy {
  std::int64_t nodes = 1;
  std::uint64_t step_ns = 0;         ///< barrier makespan
  std::uint64_t total_node_ns = 0;   ///< nodes * step_ns
  std::uint64_t compute_ns = 0;
  std::uint64_t communication_ns = 0;
  std::uint64_t serialization_ns = 0;
  std::uint64_t imbalance_ns = 0;

  std::uint64_t sum() const {
    return compute_ns + communication_ns + serialization_ns + imbalance_ns;
  }
  /// The defining invariant: every node-nanosecond lands in one bucket.
  bool exhaustive() const { return sum() == total_node_ns; }

  /// Fraction of total node-time spent computing -- the GROMACS-style
  /// parallel efficiency of the decomposition (1.0 = perfect scaling of
  /// the compute phase with zero overhead).
  double parallel_efficiency() const;
  double communication_fraction() const;
  double serialization_fraction() const;
  double imbalance_fraction() const;
};

/// The multi-node workload of `problem`, calibrated from its simulated
/// `variable` run (memory words and cycles per real interaction); the one
/// calibration of `smdprof --scaling`, the baseline and
/// bench_scaling_multinode. Throws std::invalid_argument when the run has
/// no interaction pairs within the cutoff.
net::ScalingWorkload scaling_workload(const core::Problem& problem,
                                      const core::VariantResult& variable);

/// Fold a per-node breakdown into the four-bucket taxonomy.
ParallelTaxonomy attribute_parallel(const net::StepBreakdown& b);

obs::Json to_json(const ParallelTaxonomy& t);

/// Human-readable sweep report: one row per node count with the bucket
/// shares and the derived metrics (efficiency, imbalance ratio, halo
/// fraction, critical node). Used by `smdprof --scaling`.
std::string format_parallel_table(
    const std::vector<net::StepBreakdown>& breakdowns);

}  // namespace smd::prof
