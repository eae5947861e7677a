// Benchmark-regression baselines.
//
// The simulator is fully deterministic (fixed dataset seed, cycle-accurate
// counts), so a baseline of cycle-derived metrics is byte-stable across
// runs and builds on an unchanged tree -- any delta is a real behaviour
// change, not noise. `smdprof --record-baseline` writes one
// (BENCH_baseline.json, committed at the repo root); `smdprof
// --check-baseline` re-runs the experiment and exits nonzero unless
// re-recording would write the same file: any difference in values,
// improvements included, names each differing path through obs::diff,
// and equal values in other bytes (reordered keys, other indentation)
// name the first differing line. Refresh the file
// (scripts/bench_baseline.sh) together with the change that moves the
// numbers on purpose.
#pragma once

#include <string>
#include <vector>

#include "src/core/run.h"
#include "src/net/parallel.h"
#include "src/obs/json.h"
#include "src/sim/config.h"

namespace smd::prof {

/// Baseline file layout version.
/// History:
///   1  per-variant single-node metrics
///   2  adds the "scaling" section: per-node-count parallel decomposition
///      metrics (step_ns, bucket node-times, efficiency, imbalance, halo)
///      captured from the multi-node ledger model
///   3  drops bench_schema_version (the --json record version, which no
///      check read); the file is checked by exact diff
inline constexpr int kBaselineSchemaVersion = 3;

/// The baseline document of a run_all_variants() result: the setup, the
/// machine, each variant's metrics, and one "p=<nodes>" entry per
/// multi-node breakdown. Objects keep insertion order, so the written
/// file is diffable line by line.
obs::Json capture_baseline(const std::vector<core::VariantResult>& results,
                           const core::ExperimentSetup& setup,
                           const sim::MachineConfig& cfg,
                           const std::vector<net::StepBreakdown>& scaling);

/// Read a baseline file, and its bytes into `*text` when given. Throws
/// std::runtime_error when it cannot be read or parsed, or when its
/// schema_version is not kBaselineSchemaVersion.
obs::Json load_baseline(const std::string& path, std::string* text = nullptr);

/// obs::diff of a baseline file's document against a capture, taken as the
/// capture would be written (a non-finite value compares as the null the
/// file holds): "" iff re-recording would write the same values.
std::string diff_baseline(const obs::Json& file, const obs::Json& capture);

/// The first line where a baseline file's bytes differ from what
/// --record-baseline writes for the capture (obs::file_text), as
/// "line N: `<file line>` vs `<recorded line>`" (a side past its last line
/// reads `missing`); "" when the bytes are the same.
std::string diff_baseline_text(const std::string& file_text,
                               const obs::Json& capture);

}  // namespace smd::prof
