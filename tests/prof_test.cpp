// Tests for the smdprof layers: stall-taxonomy attribution (the
// sum-to-total invariant above all), roofline placement, and the
// benchmark-regression baseline harness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "src/core/run.h"
#include "src/net/multinode.h"
#include "src/prof/attribution.h"
#include "src/prof/baseline.h"
#include "src/prof/parallel.h"
#include "src/prof/roofline.h"
#include "src/util/rng.h"

namespace smd::prof {
namespace {

// ---- Attribution. ---------------------------------------------------------

TEST(Attribution, EmptyWindowIsAllScheduleDrain) {
  sim::Timeline tl;
  const StallTaxonomy t = attribute_window(tl, 0, 100);
  EXPECT_EQ(t.total_cycles, 100u);
  EXPECT_EQ(t.schedule_drain, 100u);
  EXPECT_TRUE(t.exhaustive());
}

TEST(Attribution, PriorityRulesClassifyHandBuiltTimeline) {
  // [0,10) kernel only; [10,20) kernel+memory; [20,30) memory only;
  // [30,40) memory labelled scatter-add; [40,50) SDR stall only;
  // [50,60) nothing.
  sim::Timeline tl;
  tl.add(sim::Lane::kKernel, 0, 20, "kernel k");
  tl.add(sim::Lane::kMemory, 10, 30, "load s0");
  tl.add(sim::Lane::kMemory, 30, 40, "scatter-add s1", 1);
  tl.add(sim::Lane::kStall, 40, 50, "sdr-stall");
  const StallTaxonomy t = attribute_window(tl, 0, 60);
  EXPECT_EQ(t.kernel_busy, 10u);
  EXPECT_EQ(t.overlap, 10u);
  EXPECT_EQ(t.memory_exposed, 10u);
  EXPECT_EQ(t.scatter_serialization, 10u);
  EXPECT_EQ(t.sdr_stall, 10u);
  EXPECT_EQ(t.schedule_drain, 10u);
  EXPECT_TRUE(t.exhaustive());
}

TEST(Attribution, OverlapOutranksScatterSerialization) {
  // A scatter-add drain fully hidden under a kernel is overlap, not
  // serialization: the drain cost the run nothing.
  sim::Timeline tl;
  tl.add(sim::Lane::kKernel, 0, 100, "kernel k");
  tl.add(sim::Lane::kMemory, 20, 60, "scatter-add s0");
  const StallTaxonomy t = attribute_window(tl, 0, 100);
  EXPECT_EQ(t.overlap, 40u);
  EXPECT_EQ(t.scatter_serialization, 0u);
  EXPECT_EQ(t.kernel_busy, 60u);
  EXPECT_TRUE(t.exhaustive());
}

TEST(Attribution, StallHiddenUnderMemoryCountsAsMemory) {
  // An SDR stall while another transfer is draining is attributed to the
  // memory bucket (rules 2-3 outrank rule 4): the machine was making
  // memory progress, the stall was not the exposed cost.
  sim::Timeline tl;
  tl.add(sim::Lane::kMemory, 0, 50, "load s0");
  tl.add(sim::Lane::kStall, 10, 70, "sdr-stall");
  const StallTaxonomy t = attribute_window(tl, 0, 80);
  EXPECT_EQ(t.memory_exposed, 50u);
  EXPECT_EQ(t.sdr_stall, 20u);  // only the [50,70) exposed part
  EXPECT_EQ(t.schedule_drain, 10u);
  EXPECT_TRUE(t.exhaustive());
}

TEST(AttributionProperty, RandomSoupsAlwaysSumToTotal) {
  util::Rng rng(0x9f0fu);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t horizon = 1 + rng.uniform_u64(400);
    sim::Timeline tl;
    const int n = static_cast<int>(rng.uniform_u64(30));
    for (int i = 0; i < n; ++i) {
      const std::uint64_t a = rng.uniform_u64(2 * horizon);
      const std::uint64_t b = rng.uniform_u64(2 * horizon);
      const std::uint64_t lane_pick = rng.uniform_u64(4);
      const sim::Lane lane = lane_pick == 0   ? sim::Lane::kKernel
                             : lane_pick == 1 ? sim::Lane::kStall
                                              : sim::Lane::kMemory;
      const char* label = lane == sim::Lane::kMemory && rng.uniform_u64(2)
                              ? "scatter-add s0"
                              : "load s0";
      tl.add(lane, std::min(a, b), std::max(a, b), label);
    }
    const StallTaxonomy t = attribute_window(tl, 0, horizon);
    EXPECT_EQ(t.total_cycles, horizon) << "trial " << trial;
    EXPECT_TRUE(t.exhaustive())
        << "trial " << trial << ": sum " << t.sum() << " != " << horizon;
    // Cross-check two buckets against Timeline's own occupancy queries.
    EXPECT_EQ(t.overlap, tl.overlap_cycles(horizon)) << "trial " << trial;
    const std::uint64_t mem_total =
        t.overlap + t.memory_exposed + t.scatter_serialization;
    EXPECT_EQ(mem_total, tl.busy_cycles(sim::Lane::kMemory, horizon))
        << "trial " << trial;
  }
}

TEST(Attribution, StripWindowsTileTheRunExactly) {
  sim::RunStats stats;
  stats.cycles = 300;
  stats.timeline.add(sim::Lane::kKernel, 50, 100, "kernel a");
  stats.timeline.add(sim::Lane::kKernel, 150, 220, "kernel a");
  stats.timeline.add(sim::Lane::kMemory, 0, 160, "load s0");
  const auto strips = strip_attribution(stats);
  ASSERT_EQ(strips.size(), 2u);
  EXPECT_EQ(strips[0].lo, 0u);  // priming window joins the first strip
  EXPECT_EQ(strips[0].hi, 150u);
  EXPECT_EQ(strips[1].hi, 300u);
  StallTaxonomy sum;
  for (const auto& s : strips) sum += s.taxonomy;
  EXPECT_EQ(sum.total_cycles, stats.cycles);
  EXPECT_TRUE(sum.exhaustive());
  const StallTaxonomy whole = attribute_cycles(stats);
  EXPECT_EQ(sum.kernel_busy, whole.kernel_busy);
  EXPECT_EQ(sum.overlap, whole.overlap);
  EXPECT_EQ(sum.memory_exposed, whole.memory_exposed);
  EXPECT_EQ(sum.schedule_drain, whole.schedule_drain);
}

TEST(Attribution, KernelSlicesGroupByLabel) {
  sim::Timeline tl;
  tl.add(sim::Lane::kKernel, 0, 10, "kernel a");
  tl.add(sim::Lane::kKernel, 20, 40, "kernel b");
  tl.add(sim::Lane::kKernel, 50, 55, "kernel a");
  const auto slices = kernel_slices(tl, 100);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].label, "kernel b");  // sorted by busy desc
  EXPECT_EQ(slices[0].busy_cycles, 20u);
  EXPECT_EQ(slices[1].launches, 2);
  EXPECT_EQ(slices[1].busy_cycles, 15u);
}

// ---- Roofline. ------------------------------------------------------------

TEST(Roofline, PaperLrfFractionsMatchFigure8) {
  EXPECT_DOUBLE_EQ(paper_lrf_fraction(core::Variant::kExpanded), 0.89);
  EXPECT_DOUBLE_EQ(paper_lrf_fraction(core::Variant::kFixed), 0.93);
  EXPECT_DOUBLE_EQ(paper_lrf_fraction(core::Variant::kVariable), 0.95);
  EXPECT_DOUBLE_EQ(paper_lrf_fraction(core::Variant::kDuplicated), 0.96);
}

TEST(Roofline, BindingVerdictFollowsBusySplit) {
  EXPECT_STREQ(binding_verdict(100, 50), "compute");
  EXPECT_STREQ(binding_verdict(50, 100), "memory");
}

TEST(Roofline, PointUsesMachinePeaksAndTable4Ai) {
  core::VariantResult r;
  r.variant = core::Variant::kFixed;
  r.name = "fixed";
  r.ai_measured = 9.3;  // Table 4
  r.solution_gflops = 22.0;
  r.lrf_fraction = 0.93;
  r.run.kernel_busy_cycles = 600;
  r.run.mem_busy_cycles = 500;
  const RooflinePoint p =
      roofline_point(r, sim::MachineConfig::merrimac());
  EXPECT_DOUBLE_EQ(p.peak_gflops, 128.0);
  EXPECT_NEAR(p.dram_bw_gbps, 38.4, 1e-9);
  // 9.3 flops/word over 4.8 Gwords/s ~= 44.6 GFLOPS bandwidth roof.
  EXPECT_NEAR(p.dram_bound_gflops, 9.3 / 8.0 * 38.4, 1e-9);
  EXPECT_EQ(p.model_binding, "memory");
  EXPECT_EQ(p.measured_binding, "compute");
  EXPECT_NEAR(p.fraction_of_roofline, 22.0 / (9.3 / 8.0 * 38.4), 1e-12);
}

// ---- Parallel taxonomy (multi-node decomposition). ------------------------

TEST(ParallelTaxonomy, FoldsLedgersIntoFourBuckets) {
  const net::ScalingModel model(net::ScalingWorkload{}, net::NetworkConfig{});
  const net::StepBreakdown b = model.breakdown(8);
  const ParallelTaxonomy t = attribute_parallel(b);
  EXPECT_EQ(t.nodes, 8);
  EXPECT_EQ(t.total_node_ns, 8u * b.step_ns);
  EXPECT_TRUE(t.exhaustive());
  EXPECT_GT(t.compute_ns, 0u);
  EXPECT_GT(t.communication_ns, 0u);
  const double shares = t.parallel_efficiency() +
                        t.communication_fraction() +
                        t.serialization_fraction() + t.imbalance_fraction();
  EXPECT_NEAR(shares, 1.0, 1e-12);
}

TEST(ParallelTaxonomyProperty, RandomWorkloadsAlwaysSumToTotal) {
  // The parallel mirror of the 200-soup stall-taxonomy test: whatever the
  // workload and node count, the four node-time buckets sum *exactly* to
  // nodes x step makespan -- no tolerance.
  util::Rng rng(0xb00du);
  const net::NetworkConfig cfg;
  const net::Topology topo{cfg};
  for (int trial = 0; trial < 200; ++trial) {
    net::ScalingWorkload w;
    w.n_molecules = static_cast<std::int64_t>(rng.uniform_u64(200000));
    w.cutoff = rng.uniform(0.2, 2.5);
    w.number_density = rng.uniform(1.0, 60.0);
    w.cycles_per_interaction = rng.uniform(0.5, 16.0);
    w.words_per_interaction = rng.uniform(1.0, 40.0);
    w.load_jitter = rng.uniform(0.0, 0.4);
    w.seed = rng.next_u64();
    const std::int64_t nodes =
        1 + static_cast<std::int64_t>(rng.uniform_u64(512));
    const net::StepBreakdown b = net::simulate_step(w, topo, nodes);
    const ParallelTaxonomy t = attribute_parallel(b);
    EXPECT_EQ(t.total_node_ns,
              static_cast<std::uint64_t>(nodes) * b.step_ns)
        << "trial " << trial;
    EXPECT_TRUE(t.exhaustive())
        << "trial " << trial << ": P=" << nodes << " sum " << t.sum()
        << " != " << t.total_node_ns;
    // Every ledger tiles the step, so the per-node invariant implies the
    // aggregate one; check both to localize failures.
    for (const auto& ledger : b.ledgers) {
      ASSERT_EQ(ledger.total_ns(), b.step_ns)
          << "trial " << trial << " node " << ledger.node;
    }
    EXPECT_GE(t.parallel_efficiency(), 0.0);
    EXPECT_LE(t.parallel_efficiency(), 1.0);
  }
}

// ---- Baseline harness. ----------------------------------------------------

core::VariantResult small_result(core::Variant v, double cycles) {
  core::VariantResult r;
  r.variant = v;
  r.name = core::variant_name(v);
  r.run.cycles = static_cast<std::uint64_t>(cycles);
  r.run.kernel_busy_cycles = static_cast<std::uint64_t>(cycles * 0.6);
  r.run.mem_busy_cycles = static_cast<std::uint64_t>(cycles * 0.5);
  r.time_ms = cycles / 1e6;
  r.solution_gflops = 20.0;
  r.ai_measured = 9.0;
  r.lrf_fraction = 0.93;
  return r;
}

/// A baseline document of two hand-made variant results and two scaling
/// points, p=1 and p=8.
obs::Json small_capture() {
  const net::ScalingModel model(net::ScalingWorkload{}, net::NetworkConfig{});
  return capture_baseline({small_result(core::Variant::kFixed, 1e5),
                           small_result(core::Variant::kVariable, 8e4)},
                          core::ExperimentSetup{},
                          sim::MachineConfig::merrimac(),
                          {model.breakdown(1), model.breakdown(8)});
}

/// `doc` with `metric` of entry `index` of `section` set to `value`.
obs::Json with_metric(const obs::Json& doc, const std::string& section,
                      std::size_t index, const std::string& metric,
                      obs::Json value) {
  obs::Json entries = obs::Json::array();
  for (std::size_t i = 0; i < doc.at(section).size(); ++i) {
    obs::Json entry = doc.at(section).at(i);
    if (i == index) {
      obs::Json metrics = entry.at("metrics");
      metrics.set(metric, std::move(value));
      entry.set("metrics", std::move(metrics));
    }
    entries.push_back(std::move(entry));
  }
  obs::Json out = doc;
  out.set(section, std::move(entries));
  return out;
}

/// Write `doc` to a temporary file and load it back as a baseline.
obs::Json write_and_load(const obs::Json& doc, const std::string& name) {
  const std::string path = testing::TempDir() + name;
  obs::write_file(doc, path);
  obs::Json loaded;
  try {
    loaded = load_baseline(path);
  } catch (...) {
    std::remove(path.c_str());
    throw;
  }
  std::remove(path.c_str());
  return loaded;
}

TEST(Baseline, FileRoundTripDiffsEmpty) {
  const obs::Json doc = small_capture();
  EXPECT_EQ(doc.at("schema_version").as_int(), kBaselineSchemaVersion);
  EXPECT_FALSE(doc.contains("bench_schema_version"));
  ASSERT_EQ(doc.at("variants").size(), 2u);
  EXPECT_EQ(doc.at("variants").at(0).at("metrics").size(), 19u);
  const obs::Json loaded = write_and_load(doc, "prof_baseline_roundtrip.json");
  EXPECT_EQ(diff_baseline(loaded, doc), "");
  // The file keeps the capture's key order, so it diffs line by line.
  EXPECT_EQ(loaded.dump(2), doc.dump(2));
}

TEST(Baseline, RejectsUnknownSchemaVersion) {
  obs::Json doc = small_capture();
  doc.set("schema_version", kBaselineSchemaVersion + 1);
  EXPECT_THROW(write_and_load(doc, "prof_baseline_v4.json"),
               std::runtime_error);
}

TEST(Baseline, RejectsSchemaV2NamingTheVersion) {
  obs::Json doc = small_capture();
  doc.set("schema_version", 2);
  try {
    write_and_load(doc, "prof_baseline_v2.json");
    FAIL() << "a schema-v2 file loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("schema_version 2"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("scripts/bench_baseline.sh"),
              std::string::npos)
        << e.what();
  }
}

TEST(Baseline, OneMoreCycleFailsNamingThePath) {
  const obs::Json file = small_capture();
  EXPECT_EQ(diff_baseline(file, with_metric(file, "variants", 0, "cycles",
                                            100001.0)),
            "variants[0].metrics.cycles: 100000 vs 100001");
}

TEST(Baseline, ImprovementFails) {
  const obs::Json file = small_capture();
  EXPECT_EQ(diff_baseline(file, with_metric(file, "variants", 0, "cycles",
                                            99999.0)),
            "variants[0].metrics.cycles: 100000 vs 99999");
}

TEST(Baseline, MetricOnlyInTheNewCaptureFails) {
  const obs::Json file = small_capture();
  const obs::Json now = with_metric(file, "variants", 1, "new_metric", 1.0);
  EXPECT_EQ(diff_baseline(file, now),
            "variants[1].metrics.new_metric: missing vs 1");
  // A setup change shows the same way.
  obs::Json setup = file.at("setup");
  setup.set("n_molecules", 256);
  obs::Json other = file;
  other.set("setup", std::move(setup));
  EXPECT_EQ(diff_baseline(file, other), "setup.n_molecules: 900 vs 256");
}

TEST(Baseline, ScalingStepChangeFails) {
  const obs::Json file = small_capture();
  const obs::Json& p8 = file.at("scaling").at(1);
  ASSERT_EQ(p8.at("variant").as_string(), "p=8");
  const double step = p8.at("metrics").at("step_ns").as_double();
  const obs::Json now =
      with_metric(file, "scaling", 1, "step_ns", step + 1.0);
  const std::string d = diff_baseline(file, now);
  EXPECT_EQ(d.rfind("scaling[1].metrics.step_ns: ", 0), 0u) << d;
}

TEST(Baseline, NonFiniteMetricComparesAsTheNullTheFileHolds) {
  const obs::Json doc = with_metric(small_capture(), "variants", 0,
                                    "solution_gflops", std::nan(""));
  const obs::Json loaded = write_and_load(doc, "prof_baseline_nan.json");
  EXPECT_TRUE(loaded.at("variants").at(0).at("metrics")
                  .at("solution_gflops").is_null());
  EXPECT_EQ(diff_baseline(loaded, doc), "");
}

TEST(Baseline, ByteCheckPassesWhatRecordingWrites) {
  const obs::Json doc = small_capture();
  const std::string path = testing::TempDir() + "prof_baseline_bytes.json";
  obs::write_file(doc, path);
  const std::string written = obs::read_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(written, obs::file_text(doc));
  EXPECT_EQ(diff_baseline_text(written, doc), "");
}

TEST(Baseline, ReorderedKeysFailTheByteCheck) {
  // The setup keys reversed: the same values, so diff_baseline passes, but
  // re-recording would write other bytes.
  const obs::Json doc = small_capture();
  const auto& members = doc.at("setup").items();
  ASSERT_GE(members.size(), 2u);
  obs::Json reversed = obs::Json::object();
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    reversed.set(it->first, it->second);
  }
  obs::Json reordered = doc;
  reordered.set("setup", std::move(reversed));
  EXPECT_EQ(diff_baseline(reordered, doc), "");
  const std::string d = diff_baseline_text(obs::file_text(reordered), doc);
  EXPECT_EQ(d.rfind("line ", 0), 0u) << d;
  EXPECT_NE(d.find(members.front().first), std::string::npos) << d;
}

TEST(Baseline, ReindentedFileFailsTheByteCheck) {
  const obs::Json doc = small_capture();
  EXPECT_EQ(diff_baseline_text(doc.dump(4) + "\n", doc).rfind("line 2: ", 0),
            0u);
  EXPECT_EQ(diff_baseline_text(doc.dump(2), doc),
            "end of file: no final newline");
}

TEST(Baseline, CommittedFileIsWhatRecordingItsValuesWrites) {
  // smdprof_baseline re-records the file from a fresh run; this half
  // needs no run: the committed bytes are the recording of their values.
  std::string text;
  const obs::Json doc =
      load_baseline(std::string(SMD_SOURCE_DIR) + "/BENCH_baseline.json", &text);
  EXPECT_EQ(diff_baseline_text(text, doc), "");
}

// ---- End-to-end on a small simulated run. ---------------------------------

TEST(ProfIntegration, SmallRunAttributesExhaustivelyAndRoundTrips) {
  core::ExperimentSetup setup;
  setup.n_molecules = 64;
  const core::Problem problem = core::Problem::make(setup);
  const sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  const auto results = core::run_all_variants(problem, cfg);
  for (const auto& r : results) {
    const StallTaxonomy t = attribute_cycles(r.run);
    EXPECT_TRUE(t.exhaustive()) << r.name;
    EXPECT_EQ(t.total_cycles, r.run.cycles) << r.name;
    // The controller invariant smdprof relies on.
    EXPECT_EQ(r.run.timeline.busy_cycles(sim::Lane::kStall, r.run.cycles),
              r.run.sdr_stall_cycles)
        << r.name;
    const WasteAccounting w =
        waste_accounting(r, problem.flops_per_interaction, setup.n_molecules);
    EXPECT_GE(w.wasted_flops, 0.0) << r.name;
    EXPECT_GT(w.useful_flops, 0.0) << r.name;
  }
  ASSERT_EQ(results[2].variant, core::Variant::kVariable);
  const net::ScalingModel model(scaling_workload(problem, results[2]),
                                net::NetworkConfig{});
  const obs::Json base =
      capture_baseline(results, setup, cfg, {model.breakdown(4)});
  const obs::Json loaded = write_and_load(base, "prof_baseline_test.json");
  EXPECT_EQ(diff_baseline(loaded, base), "");
}

TEST(ProfIntegration, ScalingCalibrationRejectsARunWithoutPairs) {
  core::ExperimentSetup setup;
  setup.n_molecules = 1;
  const core::Problem problem = core::Problem::make(setup);
  const core::VariantResult variable =
      core::run_variant(problem, core::Variant::kVariable);
  ASSERT_EQ(variable.n_real_interactions, 0);
  EXPECT_THROW(scaling_workload(problem, variable), std::invalid_argument);
}

}  // namespace
}  // namespace smd::prof
