// Schema versions of the repo's machine-readable artifacts.
//
// Every `--json` record (bench binaries, streammd_cli, smdcheck, smdtune,
// smdprof) carries `schema_version` so downstream consumers can reject a
// layout they were not written for instead of silently mis-reading renamed
// or re-scoped fields. BENCH_baseline.json has its own version
// (prof::kBaselineSchemaVersion).
//
// History:
//   1  original bench-record layout (telemetry PR)
//   2  timelines gain the SDR-stall lane (n_intervals now counts stall
//      runs and zero-length marker intervals; Chrome traces gain an
//      "SDR stall" track), and records may embed smdprof sections
//   3  the machine record drops four keys: the per-cluster FPU count and
//      SRF words per cycle (sched.n_fpus and sched.srf_words_per_cycle
//      hold them), and the stream-issue overhead and scatter-add units
//      per bank, which the model never read
//   4  smdprof's baseline_check is {"ok", "diff"}: n_regressions is gone,
//      and diff holds the obs::diff of the baseline file against this
//      build ("" when ok)
#pragma once

namespace smd::core {

/// Version stamped into every bench/CLI JSON record. Bump whenever a field
/// is renamed, removed, or changes meaning -- not for pure additions that
/// keep existing fields intact... unless the addition changes how existing
/// fields must be interpreted (as the stall lane did to n_intervals).
inline constexpr int kBenchSchemaVersion = 4;

}  // namespace smd::core
