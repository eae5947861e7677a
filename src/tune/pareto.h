// Report layer for tuner sweeps: Pareto front over (run time, memory
// traffic, SRF pressure), best-per-variant tables, and the unified JSON
// record smdtune --json emits (schema shared with the bench records:
// candidates, front, telemetry snapshot).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/tune/runner.h"

namespace smd::tune {

/// Indices of the non-dominated successful results, minimizing
/// (time_ms, mem_words, srf_peak_words), in input order. A result
/// dominates another when it is <= on all three metrics and < on at
/// least one.
std::vector<std::size_t> pareto_front(const std::vector<EvalResult>& results);

/// Index of the fastest successful result; results.size() when none.
std::size_t best_index(const std::vector<EvalResult>& results);

/// Fastest successful result per variant, ordered by runtime (best
/// first) -- the paper's Figure 9 ordering when the sweep covers the four
/// variants.
std::vector<std::size_t> best_per_variant(
    const std::vector<EvalResult>& results);

/// Human-readable results table. Tags: * on the Pareto front, c cached,
/// p pruned, s shared (another candidate's run).
std::string format_results_table(const std::vector<EvalResult>& results,
                                 const std::vector<std::size_t>& front);

obs::Json to_json(const EvalResult& r);

/// {"results": [...], "pareto_front": [indices], "best": index|null,
///  "best_per_variant": [...], "telemetry": registry snapshot}
obs::Json report_json(const std::vector<EvalResult>& results);

}  // namespace smd::tune
