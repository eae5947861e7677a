// Shared reporting of reproduced tables/figures, used by the bench
// binaries and examples so all output is uniform and diff-friendly:
// ASCII tables for humans, and the unified to_json() family + bench
// records for machines (the BENCH_*.json trajectory).
#pragma once

#include <string>
#include <vector>

#include "src/core/blocking.h"
#include "src/core/run.h"
#include "src/obs/json.h"
#include "src/sim/config.h"

namespace smd::core {

/// Paper Table 1: machine parameters.
std::string format_machine_table(const sim::MachineConfig& cfg);

/// Paper Table 2: dataset properties.
std::string format_dataset_table(const Problem& problem,
                                 const std::vector<VariantResult>& results);

/// Paper Table 3: variant descriptions.
std::string format_variants_table();

/// Paper Table 4: arithmetic intensity (calculated vs measured).
std::string format_arithmetic_intensity_table(
    const std::vector<VariantResult>& results);

/// Paper Figure 8: locality (% of references per register-hierarchy level).
std::string format_locality_table(const std::vector<VariantResult>& results);

/// Paper Figure 9: performance. `p4_solution_gflops` <= 0 omits the
/// Pentium 4 row.
std::string format_performance_table(const std::vector<VariantResult>& results,
                                     double p4_solution_gflops,
                                     double optimal_solution_gflops);

/// Figures 11-12: blocking model curves.
std::string format_blocking_table(const std::vector<BlockingPoint>& pts,
                                  const BlockingPoint& minimum);

// ---- Machine-readable reporting. ----------------------------------------
//
// Every stats struct the simulator produces serializes through a to_json
// declared next to the struct (kernel::InterpStats, the mem::*Stats,
// sim::RunStats), so bench records, the CLI's --json output, the tests
// and the bit-identity gates all agree on field names. Integers stay
// integers; derived fractions are emitted alongside the raw counts they
// come from.

obs::Json to_json(const sim::MachineConfig& cfg);
obs::Json to_json(const VariantResult& r);
obs::Json to_json(const BlockingPoint& p);

/// The unified bench record written by `--json <path>`: schema version,
/// bench name, machine config, per-variant results, and a snapshot of the
/// global telemetry registry.
obs::Json bench_record(const std::string& bench_name,
                       const sim::MachineConfig& cfg,
                       const std::vector<VariantResult>& results);

}  // namespace smd::core
