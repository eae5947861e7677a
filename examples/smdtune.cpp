// smdtune: design-space exploration driver over the StreamMD simulator.
//
//   smdtune --paper [--molecules N] [--jobs N] [--cache path] [--json path]
//   smdtune --sweep "axis=v1,v2;axis=lo:hi:step" [--molecules N] [--jobs N]
//           [--cache path] [--prune slack] [--json path] [--verbose]
//   smdtune --list-axes
//
// --paper reproduces the paper's tuned points as a search outcome instead
// of a replayed constant:
//   * the Figure 9 variant ordering (variable > fixed > expanded),
//   * the Section 3.3 fixed-list length L = 8 neighborhood,
//   * the Figure 12 blocking-scheme run-time minimum at a few molecules
//     per cluster (paper regime: memory-bound 2.5x).
// Exit status is non-zero if the variant ordering or the blocking minimum
// fails to reproduce, so the ctest registration is a real golden check.
//
// --sweep evaluates an arbitrary axis product (see tune/space.h for axis
// names) on a worker pool and reports the Pareto front over (run time,
// memory traffic, SRF pressure). Candidates that differ only in L where
// the variant does not read it run once (rows tagged s). Results memoize
// in --cache: a re-run performs zero simulations (verify via
// tune.cache.hits in the JSON report's telemetry snapshot).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_io.h"
#include "src/core/blocking.h"
#include "src/core/report.h"
#include "src/core/run.h"
#include "src/obs/registry.h"
#include "src/tune/pareto.h"
#include "src/tune/runner.h"
#include "src/tune/space.h"
#include "src/util/table.h"

using namespace smd;

namespace {

const tune::EvalResult* find_variant(const std::vector<tune::EvalResult>& rs,
                                     core::Variant v) {
  for (const auto& r : rs) {
    if (r.cand.variant == v && r.ok()) return &r;
  }
  return nullptr;
}

double pct(double a, double b) { return (a / b - 1.0) * 100.0; }

/// --paper: the three tuned points of the paper, as a search.
int run_paper(const core::Problem& problem, tune::RunnerOptions ropts,
              benchio::JsonOut& jout) {
  int failures = 0;

  // ---- 1. Variant ordering (Figure 9). ------------------------------------
  std::vector<tune::Candidate> cands;
  for (core::Variant v : core::kAllVariants) {
    tune::Candidate c;
    c.variant = v;
    cands.push_back(c);
  }
  tune::Runner runner(problem, ropts);
  const std::vector<tune::EvalResult> variants = runner.run(cands);
  std::printf("== smdtune --paper: variant search (Figure 9) ==\n\n%s\n",
              tune::format_results_table(variants, tune::pareto_front(variants))
                  .c_str());

  const tune::EvalResult* expanded =
      find_variant(variants, core::Variant::kExpanded);
  const tune::EvalResult* fixed = find_variant(variants, core::Variant::kFixed);
  const tune::EvalResult* variable =
      find_variant(variants, core::Variant::kVariable);
  bool ordering_ok = false;
  obs::Json ordering = obs::Json::object();
  if (expanded != nullptr && fixed != nullptr && variable != nullptr) {
    ordering_ok = variable->metrics.time_ms < fixed->metrics.time_ms &&
                  fixed->metrics.time_ms < expanded->metrics.time_ms;
    const double ve = pct(variable->metrics.solution_gflops,
                          expanded->metrics.solution_gflops);
    const double vf = pct(variable->metrics.solution_gflops,
                          fixed->metrics.solution_gflops);
    const double fe =
        pct(fixed->metrics.solution_gflops, expanded->metrics.solution_gflops);
    std::printf("ordering (paper: variable > fixed > expanded; +84%%/+46%%):\n"
                "  variable vs expanded: %+.0f%%\n"
                "  variable vs fixed   : %+.0f%%\n"
                "  fixed vs expanded   : %+.0f%%\n"
                "  ordering %s\n\n",
                ve, vf, fe, ordering_ok ? "REPRODUCED" : "NOT reproduced");
    ordering.set("variable_vs_expanded_pct", ve);
    ordering.set("variable_vs_fixed_pct", vf);
    ordering.set("fixed_vs_expanded_pct", fe);
  } else {
    std::printf("ordering: a variant run failed; cannot check\n\n");
  }
  ordering.set("ok", ordering_ok);
  if (!ordering_ok) ++failures;

  // ---- 2. Fixed-list length L = 8 neighborhood (Section 3.3). --------------
  std::vector<tune::Candidate> lcands;
  for (const int L : {4, 6, 8, 12, 16}) {
    tune::Candidate c;
    c.variant = core::Variant::kFixed;
    c.fixed_list_length = L;
    lcands.push_back(c);
  }
  const std::vector<tune::EvalResult> lsweep = runner.run(lcands);
  std::printf("== fixed-list length L neighborhood (paper tuned L = 8) ==\n\n%s\n",
              tune::format_results_table(lsweep, tune::pareto_front(lsweep))
                  .c_str());
  const std::size_t lbest = tune::best_index(lsweep);
  if (lbest < lsweep.size()) {
    std::printf("best L on this dataset: %d\n\n",
                lsweep[lbest].cand.fixed_list_length);
  }

  // ---- 3. Blocking minimum (Figure 12, paper regime). ----------------------
  // Calibrate the analytic model from the simulated `variable` run, then
  // put it in the paper's memory-bound regime (memory ~2.5x kernel time).
  obs::Json blocking = obs::Json::object();
  bool blocking_ok = false;
  if (variable != nullptr) {
    core::BlockingModelParams params;
    params.cutoff = problem.setup.cutoff;
    params.variable_kernel_cycles =
        static_cast<double>(variable->metrics.kernel_busy_cycles);
    params.variable_memory_cycles = 2.5 * params.variable_kernel_cycles;
    params.variable_words_per_interaction =
        static_cast<double>(variable->metrics.mem_words) /
        static_cast<double>(problem.half_list.n_pairs());
    params.interactions_per_molecule =
        static_cast<double>(problem.half_list.n_pairs()) /
        static_cast<double>(problem.system.n_molecules());
    const core::BlockingModel model(params);
    const std::vector<core::BlockingPoint> sweep = model.sweep(0.6, 4.2, 13);
    const core::BlockingPoint min = model.minimum();
    std::printf("== blocking-scheme minimum (Figure 12, paper regime) ==\n\n%s\n",
                core::format_blocking_table(sweep, min).c_str());
    blocking_ok = min.time_rel < 1.0 && min.size > 0.4 && min.size < 6.0 &&
                  min.molecules >= 1.0 && min.molecules <= 64.0;
    std::printf("minimum: %.2fx variable at cluster size %.2f "
                "(%.1f molecules) -- %s\n\n",
                min.time_rel, min.size, min.molecules,
                blocking_ok ? "interior few-molecule minimum REPRODUCED"
                            : "NOT the paper's shape");
    obs::Json pts = obs::Json::array();
    for (const auto& p : sweep) pts.push_back(core::to_json(p));
    blocking.set("sweep", std::move(pts));
    blocking.set("minimum", core::to_json(min));
  }
  blocking.set("ok", blocking_ok);
  if (!blocking_ok) ++failures;

  jout.root().set("mode", "paper");
  jout.root().set("n_molecules", problem.setup.n_molecules);
  jout.root().set("jobs", ropts.jobs);
  obs::Json vjson = obs::Json::array();
  for (const auto& r : variants) vjson.push_back(tune::to_json(r));
  obs::Json ljson = obs::Json::array();
  for (const auto& r : lsweep) ljson.push_back(tune::to_json(r));
  jout.root().set("variants", std::move(vjson));
  jout.root().set("ordering", std::move(ordering));
  jout.root().set("l_sweep", std::move(ljson));
  if (lbest < lsweep.size()) {
    jout.root().set("best_L", lsweep[lbest].cand.fixed_list_length);
  }
  jout.root().set("blocking", std::move(blocking));
  jout.root().set("telemetry", obs::CounterRegistry::global().to_json());

  std::printf("smdtune --paper: %d of 2 golden points failed\n", failures);
  return failures == 0 ? 0 : 1;
}

int run_sweep(const core::Problem& problem, const std::string& spec,
              tune::RunnerOptions ropts, benchio::JsonOut& jout) {
  const tune::ConfigSpace space = tune::ConfigSpace::parse(spec);
  const std::vector<tune::Candidate> cands = space.enumerate();
  std::printf("== smdtune --sweep: %zu candidates, %d jobs%s ==\n\n",
              cands.size(), ropts.jobs,
              ropts.cache_path.empty()
                  ? ""
                  : (", cache " + ropts.cache_path).c_str());
  tune::Runner runner(problem, ropts);
  const std::vector<tune::EvalResult> results = runner.run(cands);
  const std::vector<std::size_t> front = tune::pareto_front(results);
  std::printf("%s\n", tune::format_results_table(results, front).c_str());
  std::printf("legend: * Pareto-optimal (time, traffic, SRF), c cached, "
              "p pruned, s shared (same run as an earlier candidate)\n\n");

  const std::size_t best = tune::best_index(results);
  if (best < results.size()) {
    std::printf("best: %s  (%.3f ms, %.1f Kwords, SRF peak %lld)\n",
                results[best].cand.label().c_str(),
                results[best].metrics.time_ms,
                static_cast<double>(results[best].metrics.mem_words) / 1e3,
                static_cast<long long>(results[best].metrics.srf_peak_words));
  }
  std::printf("best per variant:\n");
  for (const std::size_t i : tune::best_per_variant(results)) {
    std::printf("  %-40s %.3f ms\n", results[i].cand.label().c_str(),
                results[i].metrics.time_ms);
  }
  auto& reg = obs::CounterRegistry::global();
  std::printf(
      "\ncache: %lld hits, %lld misses; %lld simulated, %lld shared, "
      "%lld pruned\n",
      static_cast<long long>(reg.counter("tune.cache.hits")),
      static_cast<long long>(reg.counter("tune.cache.misses")),
      static_cast<long long>(reg.counter("tune.evaluated")),
      static_cast<long long>(reg.counter("tune.shared")),
      static_cast<long long>(reg.counter("tune.pruned")));

  obs::Json report = tune::report_json(results);
  jout.root().set("mode", "sweep");
  jout.root().set("spec", spec);
  jout.root().set("n_molecules", problem.setup.n_molecules);
  jout.root().set("jobs", ropts.jobs);
  for (auto& [key, value] : report.items()) jout.root().set(key, value);

  int errors = 0;
  for (const auto& r : results) {
    if (!r.ok()) ++errors;
  }
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  static const char* kUsage =
      "smdtune --paper | --sweep \"axis=...\" | --list-axes "
      "[--molecules N] [--jobs N] [--cache path] [--prune slack] "
      "[--json path] [--verbose] [--engine stepped|event|lockstep] "
      "[--kernel-backend interp|vm|lockstep]";
  benchio::check_flags(argc, argv, "smdtune", kUsage,
                       {"--sweep", "--molecules", "--jobs", "--cache",
                        "--prune", "--json", "--engine", "--kernel-backend"},
                       {"--paper", "--list-axes", "--verbose"});
  benchio::JsonOut jout(argc, argv, "smdtune");

  if (benchio::has_flag(argc, argv, "--list-axes")) {
    std::printf("sweep axes (axis=v1,v2 or axis=lo:hi:step, ';'-separated):\n");
    for (const auto& a : tune::axis_names()) std::printf("  %s\n", a.c_str());
    return 0;
  }

  tune::RunnerOptions ropts;
  ropts.jobs = benchio::int_flag_or_exit(argc, argv, "smdtune", "jobs", 1,
                                         kUsage);
  ropts.cache_path = benchio::flag_value(argc, argv, "cache");
  ropts.verbose = benchio::has_flag(argc, argv, "--verbose");
  ropts.prune_slack = benchio::double_flag_or_exit(argc, argv, "smdtune",
                                                   "prune", ropts.prune_slack,
                                                   kUsage);
  ropts.engine = sim::parse_engine(benchio::engine_flag(argc, argv));
  ropts.kernel_backend =
      kernel::parse_kernel_backend(benchio::kernel_backend_flag(argc, argv));

  core::ExperimentSetup setup;
  setup.n_molecules =
      benchio::molecules_or_exit(argc, argv, "smdtune", 900, kUsage).front();
  const core::Problem problem = core::Problem::make(setup);

  const std::string spec = benchio::flag_value(argc, argv, "sweep");
  try {
    if (benchio::has_flag(argc, argv, "--paper")) {
      return run_paper(problem, ropts, jout);
    }
    if (!spec.empty()) {
      return run_sweep(problem, spec, ropts, jout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smdtune: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr,
               "usage: smdtune --paper | --sweep \"axis=...\" | --list-axes\n"
               "       [--molecules N] [--jobs N] [--cache path] "
               "[--prune slack] [--json path] [--verbose]\n"
               "       [--engine stepped|event|lockstep]\n");
  return 2;
}
