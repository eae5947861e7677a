// smdprof: cycle-attribution profiler and benchmark-regression gate.
//
//   smdprof --explain   [--molecules N] [--json path]
//   smdprof --roofline  [--molecules N] [--json path]
//   smdprof --scaling   [--nodes a,b,c] [--molecules N] [--json path]
//                       [--trace path]
//   smdprof --record-baseline path [--molecules N]
//   smdprof --check-baseline path  [--molecules N] [--json path]
//   smdprof --diff baseA baseB
//
// --explain decomposes every cycle of each variant run into the stall
// taxonomy of src/prof/attribution.h (kernel-busy / overlap / exposed
// memory / scatter-add serialization / SDR stall / schedule drain), prints
// per-kernel slices and per-variant waste accounting, and acts as a golden
// check: it exits non-zero if any taxonomy fails to sum exactly to the
// run's total cycles or if the paper's run-time ordering
// (variable < fixed < expanded, Figure 9) does not reproduce.
//
// --roofline places each variant against the machine's compute and DRAM
// bandwidth roofs (Table 4 arithmetic intensities) and reports both the
// model's predicted binding resource and the measured one.
//
// --scaling runs the multi-node per-node decomposition (src/net/parallel.h
// calibrated from the `variable` run): for every node count it prints the
// compute / communication / serialization / load-imbalance shares of
// total node-time plus the derived metrics (parallel efficiency,
// imbalance ratio, halo fraction, critical node), and acts as a golden
// check -- it exits non-zero if any node count's ParallelTaxonomy fails
// the exact sum-to-total invariant or any per-node ledger does not tile
// the step. --trace exports one Chrome-trace lane per simulated node.
//
// --record-baseline / --check-baseline / --diff drive the regression
// harness of src/prof/baseline.h. The simulator is deterministic, so the
// recorded metrics are byte-stable; --check-baseline reads the file, re-runs
// the experiment and exits 1 on any difference from what --record-baseline
// would write now, naming each differing path (obs::diff). --diff prints
// the obs::diff of two files: exit 0 if identical, 1 if not. An unreadable
// file or one of another schema version exits 2 before any work.
// BENCH_baseline.json at the repo root is the committed baseline that
// scripts/check.sh gates on.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_io.h"
#include "src/core/run.h"
#include "src/net/multinode.h"
#include "src/obs/json.h"
#include "src/obs/trace_event.h"
#include "src/prof/attribution.h"
#include "src/prof/baseline.h"
#include "src/prof/parallel.h"
#include "src/prof/roofline.h"

using namespace smd;

namespace {

struct Experiment {
  core::ExperimentSetup setup;
  core::Problem problem;
  sim::MachineConfig cfg;
  std::vector<core::VariantResult> results;
};

Experiment run_experiment(int n_molecules, bool variable_only = false) {
  core::ExperimentSetup setup;
  setup.n_molecules = n_molecules;
  Experiment e{setup, core::Problem::make(setup),
               sim::MachineConfig::merrimac(), {}};
  std::printf("simulating %d molecules (%s, %s engine)...\n", n_molecules,
              variable_only ? "variable variant" : "all four variants",
              sim::engine_name(e.cfg.engine));
  if (variable_only) {
    e.results.push_back(
        core::run_variant(e.problem, core::Variant::kVariable, e.cfg));
  } else {
    e.results = core::run_all_variants(e.problem, e.cfg);
  }
  return e;
}

const core::VariantResult* by_variant(const Experiment& e, core::Variant v) {
  for (const auto& r : e.results) {
    if (r.variant == v) return &r;
  }
  return nullptr;
}

int run_explain(const Experiment& e, benchio::JsonOut& json) {
  int failures = 0;
  obs::Json variants = obs::Json::array();
  for (const auto& r : e.results) {
    const prof::StallTaxonomy tax = prof::attribute_cycles(r.run);
    const auto slices = prof::kernel_slices(r.run.timeline, r.run.cycles);
    const prof::WasteAccounting waste = prof::waste_accounting(
        r, e.problem.flops_per_interaction, e.setup.n_molecules);
    std::printf("\n=== %s (%.3f ms, %llu cycles) ===\n", r.name.c_str(),
                r.time_ms, static_cast<unsigned long long>(r.run.cycles));
    std::fputs(prof::format_attribution(tax, slices, waste).c_str(), stdout);
    if (!tax.exhaustive()) {
      std::printf("FAIL: taxonomy sums to %llu of %llu cycles\n",
                  static_cast<unsigned long long>(tax.sum()),
                  static_cast<unsigned long long>(tax.total_cycles));
      ++failures;
    }
    // The per-strip windows tile the run, so their taxonomies must re-add
    // to the whole-run decomposition bucket by bucket.
    prof::StallTaxonomy strip_sum;
    const auto strips = prof::strip_attribution(r.run);
    for (const auto& s : strips) strip_sum += s.taxonomy;
    if (strip_sum.sum() != tax.sum() ||
        strip_sum.total_cycles != tax.total_cycles) {
      std::printf("FAIL: %zu strip windows do not re-add to the run total\n",
                  strips.size());
      ++failures;
    }
    std::printf("strips: %zu windows, largest drain %llu cycles\n",
                strips.size(),
                static_cast<unsigned long long>([&] {
                  std::uint64_t worst = 0;
                  for (const auto& s : strips) {
                    if (s.taxonomy.schedule_drain > worst) {
                      worst = s.taxonomy.schedule_drain;
                    }
                  }
                  return worst;
                }()));
    obs::Json jv = obs::Json::object();
    jv.set("variant", r.name);
    jv.set("taxonomy", prof::to_json(tax));
    jv.set("waste", prof::to_json(waste));
    jv.set("n_strips", static_cast<std::int64_t>(strips.size()));
    variants.push_back(std::move(jv));
  }
  json.root().set("explain", std::move(variants));

  // Figure 9 ordering check on run time.
  const auto* expanded = by_variant(e, core::Variant::kExpanded);
  const auto* fixed = by_variant(e, core::Variant::kFixed);
  const auto* variable = by_variant(e, core::Variant::kVariable);
  if (expanded == nullptr || fixed == nullptr || variable == nullptr) {
    std::printf("FAIL: missing variant results\n");
    ++failures;
  } else if (!(variable->time_ms < fixed->time_ms &&
               fixed->time_ms < expanded->time_ms)) {
    std::printf(
        "FAIL: paper ordering variable < fixed < expanded not reproduced "
        "(%.3f / %.3f / %.3f ms)\n",
        variable->time_ms, fixed->time_ms, expanded->time_ms);
    ++failures;
  } else {
    std::printf(
        "\nordering OK: variable %.3f < fixed %.3f < expanded %.3f ms\n",
        variable->time_ms, fixed->time_ms, expanded->time_ms);
  }
  return failures == 0 ? 0 : 1;
}

/// Node counts the baseline pins. Fixed (independent of --nodes) so the
/// committed scaling metrics keep a stable shape across records.
const std::vector<std::int64_t> kBaselineScalingNodes = {1,  2,  4, 8,
                                                         16, 32, 64};

/// Multi-node workload calibrated from the single-node `variable` run.
net::ScalingWorkload scaling_workload(const Experiment& e) {
  const auto* variable = by_variant(e, core::Variant::kVariable);
  if (variable == nullptr) {
    throw std::runtime_error("no `variable` run to calibrate scaling from");
  }
  return prof::scaling_workload(e.problem, *variable);
}

std::vector<net::StepBreakdown> scaling_breakdowns(
    const net::ScalingModel& model, const std::vector<std::int64_t>& nodes) {
  std::vector<net::StepBreakdown> out;
  out.reserve(nodes.size());
  for (const auto n : nodes) out.push_back(model.breakdown(n));
  return out;
}

int run_scaling(const Experiment& e, const std::vector<std::int64_t>& nodes,
                benchio::JsonOut& json, const std::string& trace_path) {
  const net::ScalingWorkload w = scaling_workload(e);
  const net::ScalingModel model(w, net::NetworkConfig{});
  const auto breakdowns = scaling_breakdowns(model, nodes);

  std::printf("\n== Per-node parallel decomposition (calibrated: %.3f "
              "cycles/interaction) ==\n%s",
              w.cycles_per_interaction,
              prof::format_parallel_table(breakdowns).c_str());

  // Golden checks: the four buckets must sum exactly to total node-time,
  // every ledger must tile the step, and the partition must conserve
  // molecules -- for every node count.
  int failures = 0;
  obs::Json points = obs::Json::array();
  for (const auto& b : breakdowns) {
    const prof::ParallelTaxonomy tax = prof::attribute_parallel(b);
    if (!tax.exhaustive()) {
      std::printf("FAIL: P=%lld taxonomy sums to %llu of %llu node-ns\n",
                  static_cast<long long>(b.nodes),
                  static_cast<unsigned long long>(tax.sum()),
                  static_cast<unsigned long long>(tax.total_node_ns));
      ++failures;
    }
    std::int64_t owned = 0;
    for (const auto& ledger : b.ledgers) {
      owned += ledger.molecules;
      if (ledger.total_ns() != b.step_ns) {
        std::printf("FAIL: P=%lld node %lld ledger (%llu ns) does not tile "
                    "the %llu ns step\n",
                    static_cast<long long>(b.nodes),
                    static_cast<long long>(ledger.node),
                    static_cast<unsigned long long>(ledger.total_ns()),
                    static_cast<unsigned long long>(b.step_ns));
        ++failures;
      }
    }
    if (owned != w.n_molecules) {
      std::printf("FAIL: P=%lld partition owns %lld of %lld molecules\n",
                  static_cast<long long>(b.nodes),
                  static_cast<long long>(owned),
                  static_cast<long long>(w.n_molecules));
      ++failures;
    }

    const net::ScalingPoint pt = model.at(b.nodes);
    obs::Json jp = prof::to_json(tax);
    jp.set("speedup", pt.speedup)
        .set("efficiency", pt.efficiency)
        .set("halo_fraction", b.halo_fraction)
        .set("imbalance_ratio", b.imbalance_ratio)
        .set("critical_node", b.critical_node);
    obs::Json ledgers = obs::Json::array();
    for (const auto& ledger : b.ledgers) {
      obs::Json jl = obs::Json::object();
      jl.set("node", ledger.node)
          .set("molecules", ledger.molecules)
          .set("halo_molecules", ledger.halo_molecules)
          .set("tier", net::tier_name(ledger.tier))
          .set("halo_gather_ns", ledger.halo_gather_ns)
          .set("compute_ns", ledger.compute_ns)
          .set("force_scatter_ns", ledger.force_scatter_ns)
          .set("network_latency_ns", ledger.network_latency_ns)
          .set("imbalance_wait_ns", ledger.imbalance_wait_ns);
      ledgers.push_back(std::move(jl));
    }
    jp.set("ledgers", std::move(ledgers));
    points.push_back(std::move(jp));
  }
  obs::Json js = obs::Json::object();
  obs::Json jw = obs::Json::object();
  jw.set("n_molecules", w.n_molecules)
      .set("cutoff_nm", w.cutoff)
      .set("words_per_interaction", w.words_per_interaction)
      .set("cycles_per_interaction", w.cycles_per_interaction)
      .set("load_jitter", w.load_jitter)
      .set("seed", w.seed);
  js.set("workload", std::move(jw));
  js.set("points", std::move(points));
  json.root().set("scaling", std::move(js));

  if (!trace_path.empty()) {
    obs::TraceSink sink;
    for (const auto& b : breakdowns) net::append_trace(b, sink);
    sink.write(trace_path);
    std::printf("per-node trace written to %s (%zu slices)\n",
                trace_path.c_str(), sink.size());
  }
  std::printf("scaling decomposition %s (%zu node counts)\n",
              failures == 0 ? "OK" : "FAILED", breakdowns.size());
  return failures == 0 ? 0 : 1;
}

int run_roofline(const Experiment& e, benchio::JsonOut& json) {
  std::vector<prof::RooflinePoint> points;
  for (const auto& r : e.results) {
    points.push_back(prof::roofline_point(r, e.cfg));
  }
  std::fputs(prof::format_roofline_table(points).c_str(), stdout);
  obs::Json arr = obs::Json::array();
  for (const auto& p : points) arr.push_back(prof::to_json(p));
  json.root().set("roofline", std::move(arr));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  static const char* kUsage =
      "smdprof --explain | --roofline | --scaling | --record-baseline path | "
      "--check-baseline path | --diff baseA baseB  [--molecules N] "
      "[--nodes a,b,c] [--json path] [--trace path]";
  // The one positional is the second baseline of --diff A B.
  const std::vector<std::string> positionals = benchio::check_flags(
      argc, argv, "smdprof", kUsage,
      {"--molecules", "--nodes", "--json", "--trace", "--record-baseline",
       "--check-baseline", "--diff"},
      {"--explain", "--roofline", "--scaling"}, 1);
  const std::string diff = benchio::flag_value(argc, argv, "diff");
  if (diff.empty() && !positionals.empty()) {
    benchio::usage_error("smdprof",
                         "unexpected argument '" + positionals.front() + "'",
                         kUsage);
  }
  const std::string trace = benchio::output_path_or_exit(argc, argv, "trace");
  const std::string record =
      benchio::output_path_or_exit(argc, argv, "record-baseline");
  try {
    benchio::JsonOut json(argc, argv, "smdprof");

    if (!diff.empty()) {
      if (positionals.empty()) {
        std::fprintf(stderr, "usage: smdprof --diff baseA baseB\n");
        return 2;
      }
      const std::string d =
          obs::diff(prof::load_baseline(diff),
                    prof::load_baseline(positionals.front()));
      std::printf("%s\n", d.empty() ? "baselines identical" : d.c_str());
      return json.finish(d.empty() ? 0 : 1);
    }

    const int n_molecules =
        benchio::molecules_or_exit(argc, argv, "smdprof", 900, kUsage).front();

    const std::string check = benchio::flag_value(argc, argv, "check-baseline");
    const bool explain = benchio::has_flag(argc, argv, "--explain");
    const bool roofline = benchio::has_flag(argc, argv, "--roofline");
    const bool scaling = benchio::has_flag(argc, argv, "--scaling");
    if (!explain && !roofline && !scaling && record.empty() && check.empty()) {
      std::fprintf(stderr,
                   "usage: smdprof --explain | --roofline | --scaling | "
                   "--record-baseline path | --check-baseline path | "
                   "--diff baseA baseB  [--molecules N] [--nodes a,b,c] "
                   "[--json path] [--trace path]\n");
      return 2;
    }

    // Parse --nodes up front: a malformed list or a count below 1 must fail
    // with the usual `--flag: message` / exit 2 before the (expensive)
    // simulation runs.
    std::vector<std::int64_t> nodes = kBaselineScalingNodes;
    if (!benchio::flag_value(argc, argv, "nodes").empty()) {
      nodes.clear();
      for (const int n : benchio::counts_or_exit(
               argc, argv, "smdprof", "nodes", {"node"}, {}, kUsage, true)) {
        nodes.push_back(n);
      }
    }

    // Read the baseline before the experiment: an unreadable file or one
    // of another schema version exits 2 without simulating.
    std::string base_text;
    const obs::Json base =
        check.empty() ? obs::Json() : prof::load_baseline(check, &base_text);

    // --scaling only needs the `variable` run it calibrates from; the
    // other modes (and the baseline, which also snapshots per-variant
    // metrics) need all four variants.
    const bool variable_only =
        scaling && !explain && !roofline && record.empty() && check.empty();
    const Experiment e = run_experiment(n_molecules, variable_only);
    int status = 0;
    if (explain) status |= run_explain(e, json);
    if (roofline) status |= run_roofline(e, json);
    if (scaling) {
      status |= run_scaling(e, nodes, json, trace);
    }

    // The baseline additionally pins the multi-node decomposition on the
    // fixed default sweep.
    if (!record.empty() || !check.empty()) {
      const net::ScalingModel model(scaling_workload(e), net::NetworkConfig{});
      const obs::Json now = prof::capture_baseline(
          e.results, e.setup, e.cfg,
          scaling_breakdowns(model, kBaselineScalingNodes));
      if (!record.empty()) {
        obs::write_file(now, record);
        std::printf("baseline recorded to %s (%zu variants, %zu scaling "
                    "points)\n",
                    record.c_str(), now.at("variants").size(),
                    now.at("scaling").size());
      }
      if (!check.empty()) {
        // Equal values are not enough: the file must be the bytes
        // --record-baseline would write.
        std::string d = prof::diff_baseline(base, now);
        if (d.empty()) d = prof::diff_baseline_text(base_text, now);
        if (d.empty()) {
          std::printf("baseline check OK: %s matches this build\n",
                      check.c_str());
        } else {
          std::printf("baseline check FAILED (%s vs this build): %s\n",
                      check.c_str(), d.c_str());
          status = 1;
        }
        obs::Json jr = obs::Json::object();
        jr.set("ok", d.empty());
        jr.set("diff", d);
        json.root().set("baseline_check", std::move(jr));
      }
    }
    return json.finish(status);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "smdprof: %s\n", ex.what());
    return 2;
  }
}
