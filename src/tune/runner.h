// Parallel design-space runner.
//
// Evaluates a candidate list through the existing cycle-accurate path
// (core::run_variant -> sim::Machine) on a std::thread worker pool. Each
// worker owns its simulator and writes counters straight to the shared,
// mutex-guarded obs registry, where they add, so every counter total is
// the same at any --jobs. Results are written by candidate index, so the
// output -- and, with a cache, the file on disk -- is byte-identical for
// any --jobs value.
//
// Before paying for simulation, an analytical pre-pass estimates every
// candidate via core/blocking (layout traffic + real kernel schedule, or
// the blocked-implementation profile) and drops candidates another
// candidate dominates on both time and traffic by more than the
// configured slack factor.
//
// Candidates that differ only in a knob their variant does not read (L
// for `expanded` and `variable`) share a run_hash and would simulate bit
// for bit alike, so each such group runs once: the first candidate of the
// group, in candidate order, is simulated and the others copy its result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/blocking.h"
#include "src/core/run.h"
#include "src/tune/cache.h"
#include "src/tune/space.h"

namespace smd::tune {

struct EvalResult {
  Candidate cand;
  std::uint64_t hash = 0;
  Metrics metrics;
  bool cached = false;  ///< served from the persistent cache
  bool pruned = false;  ///< analytic pre-pass skipped the simulation
  /// Copied from an earlier candidate with the same run_hash.
  bool shared = false;
  std::string error;    ///< non-empty when evaluation failed

  bool ok() const { return error.empty(); }
};

struct RunnerOptions {
  int jobs = 1;
  /// Path of the persistent result cache; "" disables it.
  std::string cache_path;
  /// Salt mixed into every config hash (see tune::kModelVersion).
  std::string salt = kModelVersion;
  /// Dominated-candidate pruning slack (> 1 enables; 0/1 disables). A
  /// candidate is pruned when another candidate's analytic estimate is at
  /// least `slack` times better on *both* run time and memory traffic.
  double prune_slack = 0.0;
  bool verbose = false;
};

/// Evaluate one candidate synchronously (what pool workers call) on
/// Candidate::machine(): validates the machine config, then either a full
/// simulated variant run (blocking_cells == 0) or the blocked-
/// implementation profile. Throws on invalid configurations.
Metrics evaluate(const core::Problem& problem, const Candidate& cand);

/// The cheap analytic estimate of one candidate (the pruning pre-pass).
core::AnalyticEstimate estimate(const core::Problem& problem,
                                const Candidate& cand);

class Runner {
 public:
  Runner(const core::Problem& problem, RunnerOptions opts);

  /// Evaluate all candidates; results are index-aligned with the input.
  /// Registry counters: tune.evaluated (simulations that succeeded),
  /// tune.errors (that failed), tune.shared (results copied within a
  /// run_hash group), tune.cache.hits, tune.cache.misses, tune.pruned.
  std::vector<EvalResult> run(const std::vector<Candidate>& cands);

  const RunnerOptions& options() const { return opts_; }

 private:
  const core::Problem& problem_;
  RunnerOptions opts_;
};

}  // namespace smd::tune
