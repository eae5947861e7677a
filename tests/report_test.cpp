// Tests for the shared report formatters and the execution-trace renderer:
// these produce the bench output that EXPERIMENTS.md quotes, so their
// structure (headers, rows, derived values) is pinned here.
#include <gtest/gtest.h>

#include "src/core/report.h"
#include "src/core/run.h"
#include "src/core/schema.h"
#include "src/obs/registry.h"
#include "src/sim/trace.h"

namespace smd::core {
namespace {

VariantResult fake_result(Variant v) {
  VariantResult r;
  r.variant = v;
  r.name = variant_name(v);
  r.solution_gflops = 10.0;
  r.all_gflops = 12.5;
  r.mem_refs = 123456;
  r.time_ms = 0.5;
  r.ai_calculated = 9.9;
  r.ai_measured = 9.5;
  r.lrf_fraction = 0.94;
  r.srf_fraction = 0.03;
  r.mem_fraction = 0.03;
  r.n_central_blocks = 9156;
  r.n_neighbor_slots = 73344;
  return r;
}

// The whole of Table 1 as bench_table1_machine prints it: every row reads
// one machine fact, so a fact stored in the wrong field shows up here.
TEST(Report, MachineTableListsPaperParameters) {
  EXPECT_EQ(format_machine_table(sim::MachineConfig::merrimac()),
            "Parameter                                 Value     \n"
            "----------------------------------------------------\n"
            "Number of stream cache banks                       8\n"
            "Number of scatter-add units per bank               1\n"
            "Latency of scatter-add functional unit             4\n"
            "Number of combining store entries                  8\n"
            "Number of DRAM interface channels                  8\n"
            "Number of address generators                       2\n"
            "Operating frequency                       1.0 GHz   \n"
            "Peak DRAM bandwidth                       38.4 GB/s \n"
            "Stream cache bandwidth                    64 GB/s   \n"
            "Number of clusters                                16\n"
            "Peak floating point operations per cycle         128\n"
            "SRF bandwidth                             512 GB/s  \n"
            "SRF size                                  1 MB      \n"
            "Stream cache size                         1 MB      \n"
            "Peak performance                          128 GFLOPS\n");
}

TEST(Report, VariantsTableHasAllFiveRows) {
  const std::string s = format_variants_table();
  for (const char* name :
       {"expanded", "fixed", "variable", "duplicated", "Pentium 4"}) {
    EXPECT_NE(s.find(name), std::string::npos) << name;
  }
}

TEST(Report, ArithmeticIntensityTableShowsBothColumns) {
  const std::string s =
      format_arithmetic_intensity_table({fake_result(Variant::kVariable)});
  EXPECT_NE(s.find("Calculated"), std::string::npos);
  EXPECT_NE(s.find("Measured"), std::string::npos);
  EXPECT_NE(s.find("9.9"), std::string::npos);
  EXPECT_NE(s.find("9.5"), std::string::npos);
}

TEST(Report, LocalityTablePercentagesRendered) {
  const std::string s = format_locality_table({fake_result(Variant::kFixed)});
  EXPECT_NE(s.find("94.0%"), std::string::npos);
  EXPECT_NE(s.find("%LRF"), std::string::npos);
}

TEST(Report, PerformanceTableIncludesBaselines) {
  const std::string s = format_performance_table(
      {fake_result(Variant::kExpanded)}, 3.27, 42.4);
  EXPECT_NE(s.find("Pentium 4"), std::string::npos);
  EXPECT_NE(s.find("3.27"), std::string::npos);
  EXPECT_NE(s.find("optimal"), std::string::npos);
  // Omitting the baselines drops those lines.
  const std::string bare =
      format_performance_table({fake_result(Variant::kExpanded)}, 0.0, 0.0);
  EXPECT_EQ(bare.find("Pentium 4"), std::string::npos);
}

TEST(Report, BlockingTableMarksMinimum) {
  BlockingModelParams params;
  params.variable_kernel_cycles = 1e5;
  params.variable_memory_cycles = 2.5e5;
  const BlockingModel model(params);
  const std::string s =
      format_blocking_table(model.sweep(0.8, 3.0, 5), model.minimum());
  EXPECT_NE(s.find("minimum"), std::string::npos);
  EXPECT_NE(s.find("molecules per cluster"), std::string::npos);
}

TEST(Trace, AsciiBarsReflectOccupancy) {
  sim::Timeline tl;
  tl.add(sim::Lane::kKernel, 0, 100, "k");   // fully busy
  tl.add(sim::Lane::kMemory, 0, 50, "m");    // half busy
  const std::string s = tl.ascii(100, 100);
  // One data row: kernel bar longer than memory bar.
  const auto line = s.substr(s.find('\n') + 1);
  const auto kernel_hashes = std::count(line.begin(), line.begin() + 20, '#');
  const auto memory_hashes = std::count(line.begin() + 20, line.end(), '#');
  EXPECT_GT(kernel_hashes, memory_hashes);
}

TEST(Trace, ZeroLengthIntervalKeptAsMarkerButNotCounted) {
  sim::Timeline tl;
  tl.add(sim::Lane::kKernel, 10, 10, "marker");
  // Zero-length intervals survive as markers but contribute no occupancy.
  EXPECT_EQ(tl.busy_cycles(sim::Lane::kKernel, 100), 0u);
  ASSERT_EQ(tl.intervals().size(), 1u);
  EXPECT_TRUE(tl.merged(sim::Lane::kKernel, 100).empty());
  // Inverted intervals are malformed and dropped outright.
  tl.add(sim::Lane::kKernel, 20, 15, "inverted");
  EXPECT_EQ(tl.intervals().size(), 1u);
}

TEST(ReportJson, MachineConfigRoundTripsThroughParser) {
  const obs::Json j =
      obs::Json::parse(to_json(sim::MachineConfig::merrimac()).dump(2));
  EXPECT_EQ(j.at("n_clusters").as_int(), 16);
  EXPECT_DOUBLE_EQ(j.at("peak_gflops").as_double(), 128.0);
  EXPECT_EQ(j.at("sdr_policy").as_string(), "transfer-scoped");
  EXPECT_EQ(j.at("mem").at("cache_banks").as_int(), 8);
  EXPECT_EQ(j.at("mem").at("combining_entries").as_int(), 8);
  EXPECT_EQ(j.at("sched").at("n_fpus").as_int(), 4);
}

TEST(ReportJson, RunStatsIncludesDerivedFractionsAndTimelineSummary) {
  sim::RunStats s;
  s.cycles = 1000;
  s.kernel_busy_cycles = 600;
  s.mem_busy_cycles = 500;
  s.overlap_cycles = 250;
  s.n_kernel_launches = 3;
  s.n_memory_ops = 5;
  s.timeline.add(sim::Lane::kKernel, 0, 600, "k");
  s.timeline.add(sim::Lane::kMemory, 350, 850, "m");
  const obs::Json j = obs::Json::parse(to_json(s).dump());
  EXPECT_EQ(j.at("cycles").as_int(), 1000);
  EXPECT_DOUBLE_EQ(j.at("kernel_occupancy").as_double(), 0.6);
  EXPECT_DOUBLE_EQ(j.at("mem_hidden_fraction").as_double(), 0.5);
  EXPECT_EQ(j.at("timeline").at("n_intervals").as_int(), 2);
  EXPECT_EQ(j.at("timeline").at("kernel_busy_cycles").as_int(), 600);
  EXPECT_EQ(j.at("timeline").at("overlap_cycles").as_int(), 250);
}

// The acceptance contract for `--json`: a bench record carries the machine
// config, per-variant results with GFLOPS and locality fractions, and the
// global telemetry counter snapshot -- and all of it survives a parse of
// the serialized form. Uses a real (small) simulated run so the numbers
// are the simulator's own, not hand-rolled.
TEST(ReportJson, BenchRecordParsesBackWithConfigCountersAndFractions) {
  obs::CounterRegistry::global().clear();
  ExperimentSetup setup;
  setup.n_molecules = 64;
  const Problem problem = Problem::make(setup);
  const sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  const VariantResult r = run_variant(problem, Variant::kVariable, cfg);

  const obs::Json rec =
      obs::Json::parse(bench_record("report_test", cfg, {r}).dump(2));

  EXPECT_EQ(rec.at("schema_version").as_int(), kBenchSchemaVersion);
  EXPECT_EQ(rec.at("bench").as_string(), "report_test");

  // Machine config.
  EXPECT_EQ(rec.at("machine").at("n_clusters").as_int(), 16);
  EXPECT_DOUBLE_EQ(rec.at("machine").at("peak_gflops").as_double(), 128.0);

  // Per-variant result: GFLOPS and the locality split.
  const obs::Json& res = rec.at("results").at(0);
  EXPECT_EQ(res.at("variant").as_string(), "variable");
  EXPECT_GT(res.at("solution_gflops").as_double(), 0.0);
  const obs::Json& loc = res.at("locality");
  const double lrf = loc.at("lrf").as_double();
  const double srf = loc.at("srf").as_double();
  const double memf = loc.at("mem").as_double();
  EXPECT_GT(lrf, 0.5);  // the paper's whole point: >90% of refs in LRF
  EXPECT_NEAR(lrf + srf + memf, 1.0, 1e-9);

  // Overlap accounting from the controller-populated timeline.
  const obs::Json& run = res.at("run");
  EXPECT_GT(run.at("cycles").as_int(), 0);
  const double hidden = run.at("mem_hidden_fraction").as_double();
  EXPECT_GE(hidden, 0.0);
  EXPECT_LE(hidden, 1.0);
  EXPECT_GT(run.at("timeline").at("n_intervals").as_int(), 0);

  // Telemetry snapshot: the run above must have bumped the sim counters.
  const obs::Json& counters = rec.at("telemetry").at("counters");
  EXPECT_GE(counters.at("sim.runs").as_int(), 1);
  EXPECT_GT(counters.at("sim.kernel_launches").as_int(), 0);
  EXPECT_GT(counters.at("mem.ops_issued").as_int(), 0);
}

}  // namespace
}  // namespace smd::core
