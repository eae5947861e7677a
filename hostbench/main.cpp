// hostbench: host-time benchmark of the StreamMD simulator.
//
//   hostbench --workload variants-1800|svc-mixed-32|tune-sweep-256
//             [--seed N] [--seconds S] [--trace 0|1] [--molecules N]
//             [--revision STR] [--out-dir DIR]
//
// Prints the environment stamp, every metric by name with its unit, and as
// the last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics, or with --trace 1 the per-layer ones.
// Exits 1 when any op or correctness check failed, 2 on a bad command line,
// 3 when built unoptimised or with a sanitizer. hostbench/run.py builds
// this binary and runs it.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench/bench_io.h"
#include "hostbench/hostbench.h"
#include "src/obs/json.h"

using namespace smd;
using namespace smd::hostbench;

namespace {

constexpr const char* kTool = "hostbench";
constexpr const char* kUsage =
    "hostbench --workload variants-1800|svc-mixed-32|tune-sweep-256 "
    "[--seed N] [--seconds S] [--trace 0|1] [--molecules N] "
    "[--revision STR] [--out-dir DIR]";

struct Workload {
  const char* name;
  int molecules;
  void (*run)(const RunSpec&, Tracer&, Outcome&);
};

constexpr Workload kWorkloads[] = {
    {"variants-1800", 1800, run_variants},
    {"svc-mixed-32", kServiceMolecules, run_service},
    {"tune-sweep-256", 256, run_tune},
};

/// Numbers from unoptimised or sanitizer builds are not comparable with
/// the others, so such a build refuses to report. Returns "" when the
/// build is fit to report, else why not.
std::string unfit_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer build";
#elif !defined(__OPTIMIZE__)
  return "an unoptimised build";
#else
  const std::string flags = HOSTBENCH_CXX_FLAGS;
  if (flags.find("-fsanitize") != std::string::npos) return "a sanitizer build";
  return "";
#endif
}

std::uint64_t seed_flag(int argc, char** argv) {
  const std::string v = benchio::flag_value(argc, argv, "seed");
  if (v.empty()) return 1;
  try {
    std::size_t pos = 0;
    if (v[0] == '-') throw std::invalid_argument("negative");
    const std::uint64_t seed = std::stoull(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing garbage");
    return seed;
  } catch (const std::exception&) {
    benchio::usage_error(kTool, "--seed: bad seed '" + v + "'", kUsage);
  }
}

RunSpec parse(int argc, char** argv, const Workload** workload) {
  benchio::check_flags(argc, argv, kTool, kUsage,
                       {"--workload", "--seed", "--seconds", "--trace",
                        "--molecules", "--revision", "--out-dir"},
                       {});
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--", 0) != 0) {
      benchio::usage_error(kTool, std::string("unexpected argument '") +
                                      argv[i] + "'",
                           kUsage);
    }
    ++i;  // check_flags guaranteed a value follows every flag
  }
  RunSpec spec;
  spec.workload = benchio::flag_value(argc, argv, "workload");
  *workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (spec.workload == w.name) *workload = &w;
  }
  if (*workload == nullptr) {
    benchio::usage_error(kTool,
                         spec.workload.empty()
                             ? std::string("--workload is required")
                             : "unknown workload '" + spec.workload + "'",
                         kUsage);
  }
  spec.seed = seed_flag(argc, argv);
  spec.seconds =
      benchio::double_flag_or_exit(argc, argv, kTool, "seconds", 10.0, kUsage);
  if (!(spec.seconds > 0.0)) {
    benchio::usage_error(kTool, "--seconds must be positive", kUsage);
  }
  const int trace =
      benchio::int_flag_or_exit(argc, argv, kTool, "trace", 0, kUsage);
  if (trace != 0 && trace != 1) {
    benchio::usage_error(kTool, "--trace must be 0 or 1", kUsage);
  }
  spec.trace = trace == 1;
  spec.molecules = benchio::int_flag_or_exit(argc, argv, kTool, "molecules",
                                             (*workload)->molecules, kUsage);
  if (spec.molecules <= 0) {
    benchio::usage_error(kTool, "--molecules must be positive", kUsage);
  }
  return spec;
}

obs::Json stamp(const RunSpec& spec, const std::string& revision) {
  obs::Json j = obs::Json::object();
  j.set("workload", spec.workload)
      .set("seed", spec.seed)
      .set("seconds", spec.seconds)
      .set("trace", spec.trace)
      .set("molecules", spec.molecules)
      .set("build_type", HOSTBENCH_BUILD_TYPE)
      .set("compiler", HOSTBENCH_COMPILER)
      .set("cxx_flags", HOSTBENCH_CXX_FLAGS)
      .set("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .set("revision", revision.empty() ? "unknown" : revision);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  const RunSpec spec = parse(argc, argv, &workload);
  const std::string why = unfit_build();
  if (!why.empty()) {
    std::fprintf(stderr, "%s: refusing to report from %s (%s, flags '%s')\n",
                 kTool, why.c_str(), HOSTBENCH_BUILD_TYPE, HOSTBENCH_CXX_FLAGS);
    return 3;
  }
  const std::string out_dir = benchio::flag_value(argc, argv, "out-dir");
  const std::string base = out_dir + "/" + spec.workload + ".seed" +
                           std::to_string(spec.seed) + ".trace" +
                           (spec.trace ? "1" : "0");
  obs::Json record = obs::Json::object();
  record.set("env", stamp(spec, benchio::flag_value(argc, argv, "revision")));
  std::printf("env: %s\n", record.at("env").dump().c_str());

  Tracer tracer;
  Outcome out;
  try {
    workload->run(spec, tracer, out);
  } catch (const std::exception& e) {
    out.fail(std::string("workload threw: ") + e.what());
    ++out.attempted;
  }
  if (spec.trace) {
    for (const char* layer :
         {"md.water_box", "md.neighbor_list", "md.reference_forces"}) {
      out.set(std::string(layer) + "_ms", tracer.median_ms(layer), "ms");
    }
    if (!out_dir.empty()) {
      try {
        tracer.write_chrome(base + ".chrome.json");
        std::printf("chrome trace: %s (%zu spans)\n",
                    (base + ".chrome.json").c_str(), tracer.span_count());
      } catch (const std::exception& e) {
        out.fail(std::string("writing the chrome trace: ") + e.what());
      }
    }
  }
  out.attempted = std::max<std::int64_t>(out.attempted, 1);

  const double error_rate =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  std::printf("%-34s %14.6g %s\n", "error_rate", error_rate, "ratio");
  obs::Json metrics = obs::Json::object();
  for (const auto& [name, m] : out.metrics) {
    std::printf("%-34s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    obs::Json jm = obs::Json::object();
    jm.set("value", m.value).set("unit", m.unit);
    metrics.set(name, std::move(jm));
  }
  obs::Json result = obs::Json::object();
  result.set("correct", out.failed == 0)
      .set("attempted", out.attempted)
      .set("failed", out.failed)
      .set("metrics", std::move(metrics));
  if (!out_dir.empty()) {
    record.set("error_rate", error_rate).set("result", result);
    record.set("op_latency_ms", out.latency_ms);
    try {
      obs::write_file(record, base + ".json");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", kTool, e.what());
    }
  }
  std::printf("%s\n", result.dump().c_str());
  return out.failed == 0 ? 0 : 1;
}
