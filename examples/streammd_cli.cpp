// streammd_cli: command-line driver for one-off experiments.
//
//   streammd_cli [options]
//     --variant NAME     expanded | fixed | variable | duplicated | all
//     --molecules N      water molecules              (default 900)
//     --cutoff RC        cutoff radius in nm          (default 1.0)
//     --seed S           dataset seed                 (default 42)
//     --list-length L    fixed-list length            (default 8)
//     --clusters C       arithmetic clusters          (default 16)
//     --sdr-conservative use the flawed (Figure 7a) SDR allocation
//     --unroll U         kernel unroll factor         (default 2)
//     --timeline         print the execution timeline snippet
//     --json PATH        write a machine-readable run record (config,
//                        counters, GFLOPS, overlap/locality fractions)
//     --trace PATH       write a Chrome trace-event file of the stream
//                        ops (open in chrome://tracing or Perfetto)
//
// Prints the Figure 8/9-style metrics for the requested run(s) and exits
// non-zero if any variant fails force validation.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_io.h"
#include "src/core/report.h"
#include "src/core/run.h"
#include "src/obs/trace_event.h"

using namespace smd;

namespace {

constexpr const char* kUsage =
    "streammd_cli [--variant NAME] [--molecules N] [--cutoff RC] [--seed S] "
    "[--list-length L] [--clusters C] [--sdr-conservative] [--unroll U] "
    "[--timeline] [--json PATH] [--trace PATH]";

void usage() { std::fprintf(stderr, "usage: %s\n", kUsage); }

}  // namespace

int main(int argc, char** argv) {
  std::string variant = "all";
  bool timeline = false;
  std::string json_path;
  std::string trace_path;
  core::ExperimentSetup setup;
  sim::MachineConfig cfg = sim::MachineConfig::merrimac();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--variant") {
      variant = next();
    } else if (arg == "--molecules") {
      next();  // read below by benchio::molecules_or_exit
    } else if (arg == "--cutoff") {
      setup.cutoff = std::atof(next());
    } else if (arg == "--seed") {
      setup.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--list-length") {
      setup.fixed_list_length = std::atoi(next());
    } else if (arg == "--clusters") {
      cfg.n_clusters = std::atoi(next());
    } else if (arg == "--sdr-conservative") {
      cfg.sdr_policy = sim::SdrPolicy::kConservative;
    } else if (arg == "--unroll") {
      cfg.sched.unroll = std::atoi(next());
    } else if (arg == "--timeline") {
      timeline = true;
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage();
      return 2;
    }
  }
  setup.n_molecules = benchio::molecules_or_exit(
      argc, argv, "streammd_cli", setup.n_molecules, kUsage).front();
  if (setup.n_molecules < 2 || setup.cutoff <= 0.0 ||
      setup.fixed_list_length < 1 || cfg.n_clusters < 1) {
    std::fprintf(stderr, "invalid parameter values\n");
    return 2;
  }

  std::vector<core::Variant> variants;
  if (variant == "all") {
    variants = {core::Variant::kExpanded, core::Variant::kFixed,
                core::Variant::kVariable, core::Variant::kDuplicated};
  } else {
    bool found = false;
    for (core::Variant v :
         {core::Variant::kExpanded, core::Variant::kFixed,
          core::Variant::kVariable, core::Variant::kDuplicated}) {
      if (variant == core::variant_name(v)) {
        variants = {v};
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown variant '%s'\n", variant.c_str());
      return 2;
    }
  }

  const core::Problem problem = core::Problem::make(setup);
  std::printf("dataset: %d molecules, r_c %.2f nm, %lld interactions, seed %llu\n",
              problem.system.n_molecules(), setup.cutoff,
              static_cast<long long>(problem.half_list.n_pairs()),
              static_cast<unsigned long long>(setup.seed));
  std::printf("machine: %d clusters (%.0f GFLOPS peak), %s SDR allocation, "
              "unroll x%d\n\n",
              cfg.n_clusters, cfg.peak_gflops(),
              cfg.sdr_policy == sim::SdrPolicy::kConservative
                  ? "conservative" : "transfer-scoped",
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

  if (!json_path.empty()) {
    obs::Json record = core::bench_record("streammd_cli", cfg, results);
    obs::Json dataset = obs::Json::object();
    dataset.set("n_molecules", problem.system.n_molecules())
        .set("cutoff_nm", setup.cutoff)
        .set("seed", setup.seed)
        .set("fixed_list_length", setup.fixed_list_length)
        .set("interactions", problem.half_list.n_pairs());
    record.set("dataset", std::move(dataset));
    record.set("validated", ok);
    try {
      obs::write_file(record, json_path);
      std::printf("json record written to %s\n", json_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
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
  return ok ? 0 : 1;
}
