// streammd_cli: command-line driver for one-off experiments.
//
//   streammd_cli [options]
//     --variant NAME     expanded | fixed | variable | duplicated | all
//     --molecules N      water molecules              (default 900)
//     --cutoff RC        cutoff radius in nm          (default 1.0)
//     --seed S           dataset seed, below 2^31     (default 42)
//     --list-length L    fixed-list length            (default 8)
//     --clusters C       arithmetic clusters          (default 16)
//     --sdr-conservative use the flawed (Figure 7a) SDR allocation
//     --unroll U         kernel unroll factor         (default 2)
//     --timeline         print the execution timeline snippet
//     --json PATH        write a machine-readable run record (config,
//                        counters, GFLOPS, overlap/locality fractions)
//                        when every variant validates
//     --trace PATH       write a Chrome trace-event file of the stream
//                        ops (open in chrome://tracing or Perfetto)
//
// Prints the Figure 8/9-style metrics for the requested run(s) and exits
// non-zero if any variant fails force validation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_io.h"
#include "src/core/report.h"
#include "src/core/run.h"
#include "src/obs/trace_event.h"

using namespace smd;

namespace {

constexpr const char* kTool = "streammd_cli";
constexpr const char* kUsage =
    "streammd_cli [--variant NAME] [--molecules N] [--cutoff RC] [--seed S] "
    "[--list-length L] [--clusters C] [--sdr-conservative] [--unroll U] "
    "[--timeline] [--json PATH] [--trace PATH]";

}  // namespace

int main(int argc, char** argv) {
  const auto value_flags = {"--variant", "--molecules",   "--cutoff",
                            "--seed",    "--list-length", "--clusters",
                            "--unroll",  "--json",        "--trace"};
  benchio::check_flags(argc, argv, kTool, kUsage, value_flags,
                       {"--sdr-conservative", "--timeline", "--help", "-h"});
  if (benchio::has_flag(argc, argv, "--help") ||
      benchio::has_flag(argc, argv, "-h")) {
    std::printf("usage: %s\n", kUsage);
    return 0;
  }
  benchio::JsonOut jout(argc, argv, kTool);
  const std::string trace_path =
      benchio::output_path_or_exit(argc, argv, "trace");

  core::ExperimentSetup setup;
  setup.n_molecules =
      benchio::molecules_or_exit(argc, argv, kTool, setup.n_molecules, kUsage)
          .front();
  setup.cutoff = benchio::double_flag_or_exit(argc, argv, kTool, "cutoff",
                                              setup.cutoff, kUsage);
  const int seed = benchio::int_flag_or_exit(
      argc, argv, kTool, "seed", static_cast<int>(setup.seed), kUsage);
  if (seed < 0) benchio::usage_error(kTool, "--seed: must be >= 0", kUsage);
  setup.seed = static_cast<std::uint64_t>(seed);
  setup.fixed_list_length = benchio::int_flag_or_exit(
      argc, argv, kTool, "list-length", setup.fixed_list_length, kUsage);
  if (setup.n_molecules < 2 || !std::isfinite(setup.cutoff) ||
      setup.cutoff <= 0.0 || setup.fixed_list_length < 1) {
    std::fprintf(stderr, "invalid parameter values\n");
    return 2;
  }

  sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  cfg.n_clusters = benchio::int_flag_or_exit(argc, argv, kTool, "clusters",
                                             cfg.n_clusters, kUsage);
  cfg.sched.unroll = benchio::int_flag_or_exit(argc, argv, kTool, "unroll",
                                               cfg.sched.unroll, kUsage);
  if (benchio::has_flag(argc, argv, "--sdr-conservative")) {
    cfg.sdr_policy = sim::SdrPolicy::kConservative;
  }
  const analysis::Diagnostics diags = cfg.validate();
  if (diags.errors() > 0) {
    std::fprintf(stderr, "%s: invalid machine config:\n%s", kTool,
                 diags.format().c_str());
    return 2;
  }

  const std::string variant_flag = benchio::flag_value(argc, argv, "variant");
  const std::string variant = variant_flag.empty() ? "all" : variant_flag;
  const bool timeline = benchio::has_flag(argc, argv, "--timeline");

  std::vector<core::Variant> variants(core::kAllVariants.begin(),
                                      core::kAllVariants.end());
  if (variant != "all") {
    try {
      variants = {core::parse_variant(variant)};
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  const core::Problem problem = core::Problem::make(setup);
  // The neighbor list keeps one minimum image per pair, so beyond half the
  // box edge the periodic images a cutoff sphere reaches are missing.
  const md::Vec3& edge = problem.system.box().length;
  const double half_edge = 0.5 * std::min({edge.x, edge.y, edge.z});
  if (setup.cutoff > half_edge) {
    std::fprintf(stderr,
                 "%s: warning: cutoff %g nm exceeds half the box edge "
                 "(%g nm); the neighbor list keeps one periodic image per "
                 "pair\n",
                 kTool, setup.cutoff, half_edge);
  }
  std::printf("dataset: %d molecules, r_c %g nm, %lld interactions, seed %llu\n",
              problem.system.n_molecules(), setup.cutoff,
              static_cast<long long>(problem.half_list.n_pairs()),
              static_cast<unsigned long long>(setup.seed));
  std::printf("machine: %d clusters (%.0f GFLOPS peak), %s SDR allocation, "
              "unroll x%d\n\n",
              cfg.n_clusters, cfg.peak_gflops(),
              sim::sdr_policy_name(cfg.sdr_policy),
              cfg.sched.unroll);

  std::vector<core::VariantResult> results;
  bool ok = true;
  for (core::Variant v : variants) {
    results.push_back(core::run_variant(problem, v, cfg));
    const auto& r = results.back();
    if (r.max_force_rel_err > 1e-9) {
      std::fprintf(stderr, "VALIDATION FAILED for %s (err %.2e)\n",
                   r.name.c_str(), r.max_force_rel_err);
      ok = false;
    }
    if (timeline) {
      std::printf("-- %s timeline --\n%s\n", r.name.c_str(),
                  r.run.timeline.ascii(r.run.cycles, r.run.cycles / 20 + 1).c_str());
    }
  }

  std::printf("%s\n", core::format_performance_table(results, 0.0, 0.0).c_str());
  std::printf("%s\n", core::format_locality_table(results).c_str());
  std::printf("%s", core::format_arithmetic_intensity_table(results).c_str());
  std::printf("\nforces validated against the reference: %s\n",
              ok ? "yes" : "NO");

  if (jout.enabled()) {
    obs::Json record = core::bench_record("streammd_cli", cfg, results);
    obs::Json dataset = obs::Json::object();
    dataset.set("n_molecules", problem.system.n_molecules())
        .set("cutoff_nm", setup.cutoff)
        .set("seed", setup.seed)
        .set("fixed_list_length", setup.fixed_list_length)
        .set("interactions", problem.half_list.n_pairs());
    record.set("dataset", std::move(dataset));
    record.set("validated", ok);
    jout.set_record(std::move(record));
  }
  if (!trace_path.empty()) {
    // One Chrome trace process per variant, one track per lane/SDR slot,
    // all populated by the controller's per-stream-op hooks.
    obs::TraceSink sink;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const int pid = static_cast<int>(i);
      sink.set_process_name(pid, "streammd " + results[i].name);
      results[i].run.timeline.append_chrome_events(sink, pid, cfg.clock_ghz);
    }
    try {
      sink.write(trace_path);
      std::printf("chrome trace written to %s (%zu events)\n",
                  trace_path.c_str(), sink.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  return jout.finish(ok ? 0 : 1);
}
