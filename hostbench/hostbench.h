// Host-time benchmark of the StreamMD simulator: shared declarations.
//
// Three workloads (workloads.cpp), each one process and at most three busy
// threads. An untraced run reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics, timing calls into each
// module's public functions from these files and recording one span per
// call (trace.cpp, layers.cpp). See hostbench/README.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/run.h"
#include "src/obs/json.h"
#include "src/obs/span.h"
#include "src/svc/wire.h"
#include "src/tune/runner.h"
#include "src/tune/space.h"

namespace smd::hostbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One run's result: ops attempted, failures (failed ops plus failed
/// correctness checks), and the metrics of the requested kind.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;
  /// Every op latency of the timed region, ms, for the run record.
  obs::Json latency_ms = obs::Json::array();

  /// Count one failed op or check and say why on stdout.
  void fail(const std::string& why);
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

struct RunSpec {
  std::string workload;
  int molecules = 0;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

inline double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Quantile with linear interpolation between order statistics (q = 0.5 is
/// the usual median). 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// Size of the service workload's jobs, and of the service probe's.
inline constexpr int kServiceMolecules = 32;

inline constexpr core::Variant kVariants[] = {
    core::Variant::kExpanded, core::Variant::kFixed, core::Variant::kVariable,
    core::Variant::kDuplicated};

/// Span recorder for traced runs. Every traced op is a root span whose
/// children come from one non-decreasing boundary chain, so they tile the
/// op by construction; record() keeps each child's duration under its name
/// for the per-layer medians.
class Tracer {
 public:
  /// The boundary chain of one op: construction stamps the start, each
  /// mark() ends the child span named by it.
  class Chain {
   public:
    /// Starts at `t0_ns`, by default now.
    explicit Chain(std::string root, std::string arg = "",
                   std::int64_t t0_ns = obs::monotonic_ns());
    void mark(std::string child);
    void mark_at(std::string child, std::int64_t t_ns);
    std::int64_t start_ns() const { return t0_; }
    std::int64_t end_ns() const {
      return marks_.empty() ? t0_ : marks_.back().second;
    }

   private:
    friend class Tracer;
    std::string root_;
    std::string arg_;
    std::int64_t t0_ = 0;
    std::vector<std::pair<std::string, std::int64_t>> marks_;
  };

  void record(const Chain& chain);

  /// Durations recorded under a span name, ms.
  const std::vector<double>& samples(const std::string& name) const;
  double median_ms(const std::string& name) const;

  std::size_t span_count() const { return log_.size(); }

  /// Write every span as a Chrome trace; throws on I/O failure.
  void write_chrome(const std::string& path) const;

 private:
  obs::SpanLog log_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Largest force error against the reference a simulated run may show.
inline constexpr double kMaxForceRelErr = 1e-12;

/// The experiment setup every workload builds its problem from.
core::ExperimentSetup experiment(int n_molecules, std::uint64_t seed);

/// Problem::make, step by step, with the md.* layers as spans.
core::Problem make_problem_traced(const core::ExperimentSetup& setup,
                                  Tracer& tracer);

/// What a traced recomposition of core::run_variant produced.
struct VariantRun {
  sim::RunStats run;
  double max_force_rel_err = 0.0;
  std::int64_t schedules_in_sim = 0;  ///< sim.kernels_scheduled during run()
  int kernels_compiled = 0;           ///< distinct kernels in the program
  double sim_run_ms = 0.0;
};

/// core::run_variant on the default Merrimac machine, recomposed from its
/// public steps with one span per step (core.*, sim.run).
VariantRun traced_run_variant(const core::Problem& problem, core::Variant v,
                              Tracer& tracer);

/// Fail `out` unless a recomposed run repeats the reference cycles and
/// words and its forces match the reference.
void check_variant_run(const VariantRun& vr, core::Variant v,
                       std::uint64_t ref_cycles, std::int64_t ref_words,
                       Outcome& out);

/// One standalone call each into the analysis and kernel layers, on the
/// inputs a run of variant `v` hands them.
struct StandaloneCosts {
  double stream_check_ms = 0.0;
  double schedule_ms = 0.0;
  double vm_compile_ms = 0.0;
};
StandaloneCosts probe_standalone(const core::Problem& problem, core::Variant v,
                                 Tracer& tracer);

/// core/analysis/kernel/sim/mem metrics from recomposed rounds of the four
/// variants (kVariants order) and each variant's standalone costs.
void report_variant_layers(const std::vector<std::vector<VariantRun>>& rounds,
                           const std::vector<StandaloneCosts>& standalone,
                           const Tracer& tracer, Outcome& out);

/// mem.gather_words_per_host_s: MemSystem::issue + tick_until driven
/// directly with the problem's expanded-layout neighbor gather.
void probe_memory(const core::Problem& problem, Tracer& tracer, Outcome& out);

/// tune.evaluate_ms / tune.estimate_ms over `cands`, single-threaded;
/// returns the evaluated metrics.
std::vector<tune::Metrics> probe_tune(const core::Problem& problem,
                                      const std::vector<tune::Candidate>& cands,
                                      Tracer& tracer, Outcome& out);

/// svc.* metrics from a batch of responses and the jobs it simulated.
void report_service(const std::vector<svc::Response>& resps,
                    std::int64_t simulated, Outcome& out);

/// A server's recorded spans, grouped by trace.
using SpansByTrace = std::map<std::uint64_t, std::vector<obs::SpanRecord>>;
SpansByTrace spans_by_trace(const obs::SpanLog& log);

/// The server's span tree for a response, or nullptr after failing `out`
/// when it is missing or its phases do not partition the request.
const std::vector<obs::SpanRecord>* request_spans(const SpansByTrace& by_trace,
                                                  const svc::Response& r,
                                                  Outcome& out);

/// The workloads. Each runs for spec.seconds and fills `out` with the
/// end-to-end metrics, or with the per-layer metrics when spec.trace.
void run_variants(const RunSpec& spec, Tracer& tracer, Outcome& out);
void run_service(const RunSpec& spec, Tracer& tracer, Outcome& out);
void run_tune(const RunSpec& spec, Tracer& tracer, Outcome& out);

}  // namespace smd::hostbench
