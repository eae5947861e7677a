// google-benchmark micro-benchmarks of the native (host) substrate: the
// double-precision reference kernel, the single-precision SSE-style
// GROMACS baseline, the neighbor-list builders -- and the two functional
// kernel-IR executors (interpreter vs. compiled VM) over every built-in
// kernel. The first group measures the host machine, not Merrimac; the
// kernel-IR group is the ROADMAP scoreboard for the VM backend, where the
// interpreter walk was the simulator's wall-clock bound.
//
//   bench_native_kernels [--json path] [--selfcheck] [google-benchmark args]
//
// `--selfcheck` skips google-benchmark entirely: it proves interp/vm
// bit-identity on every built-in kernel (KernelBackend::kLockstep) and
// requires the VM to be strictly faster than the interpreter on each,
// exiting 1 otherwise -- the measured form of the DESIGN.md section 17
// claim, wired into scripts/check.sh.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_io.h"
#include "src/baseline/gromacs_like.h"
#include "src/core/kernels.h"
#include "src/kernel/interp.h"
#include "src/kernel/vm.h"
#include "src/md/force_ref.h"
#include "src/md/neighborlist.h"
#include "src/md/system.h"
#include "src/md/water.h"
#include "src/util/rng.h"
#include "src/util/table.h"

using namespace smd;

namespace {

struct Fixture {
  md::WaterSystem sys;
  md::NeighborList list;
  static const Fixture& get() {
    static const Fixture f = [] {
      md::WaterBoxOptions opts;
      opts.n_molecules = 900;
      Fixture fx{md::build_water_box(opts), {}};
      fx.list = md::build_neighbor_list(fx.sys, 1.0);
      return fx;
    }();
    return f;
  }
};

void BM_ReferenceForces(benchmark::State& state) {
  const auto& f = Fixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(md::compute_forces_reference(f.sys, f.list));
  }
  state.counters["interactions/s"] = benchmark::Counter(
      static_cast<double>(f.list.n_pairs()), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ReferenceForces)->Unit(benchmark::kMillisecond);

void BM_SseStyleForces(benchmark::State& state) {
  const auto& f = Fixture::get();
  double flops = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::compute_forces_sse_style(f.sys, f.list));
    flops += static_cast<double>(f.list.n_pairs()) *
             static_cast<double>(core::interaction_flops(f.sys.model()).flops);
  }
  state.counters["GFLOPS"] =
      benchmark::Counter(flops * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SseStyleForces)->Unit(benchmark::kMillisecond);

/// The water box of `n` molecules (seed 42), built once per size.
const md::WaterSystem& water_box(int n) {
  static std::map<int, md::WaterSystem> boxes;
  auto it = boxes.find(n);
  if (it == boxes.end()) {
    md::WaterBoxOptions opts;
    opts.n_molecules = n;
    it = boxes.emplace(n, md::build_water_box(opts)).first;
  }
  return it->second;
}

/// The production builder at the production cutoff, at the paper's 900
/// molecules and at the 1,800 and 7,200 of the host benchmarks.
void BM_NeighborListCells(benchmark::State& state) {
  const md::WaterSystem& sys = water_box(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(md::build_neighbor_list(sys, 1.0));
  }
}
BENCHMARK(BM_NeighborListCells)
    ->Arg(900)
    ->Arg(1800)
    ->Arg(7200)
    ->Unit(benchmark::kMillisecond);

void BM_NeighborListBrute(benchmark::State& state) {
  const auto& f = Fixture::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(md::build_neighbor_list_brute(f.sys, 1.0));
  }
}
BENCHMARK(BM_NeighborListBrute)->Unit(benchmark::kMillisecond);

void BM_ApproxRsqrt(benchmark::State& state) {
  float x = 1.7f;
  for (auto _ : state) {
    x = baseline::approx_rsqrt(x) + 1.0f;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ApproxRsqrt);

// ---------------------------------------------------------------------------
// Kernel-IR executors: interpreter vs. compiled VM.
// ---------------------------------------------------------------------------

constexpr int kIrClusters = 8;
constexpr std::int64_t kIrRounds = 8;

/// Every built-in kernel (the same population the equivalence sweeps run).
std::vector<kernel::KernelDef> builtin_kernels() {
  const md::WaterModel& model = md::spc();
  std::vector<kernel::KernelDef> defs;
  for (const core::Variant v : core::kAllVariants) {
    defs.push_back(core::build_water_kernel(v, model));
  }
  defs.push_back(core::build_expanded_naive_kernel(model));
  defs.push_back(core::build_expanded_energy_kernel(model));
  for (const md::WaterModel& m : {md::spc(), md::tip5p(), md::ppc()}) {
    defs.push_back(core::build_multisite_kernel(m));
  }
  defs.push_back(core::build_blocked_kernel(model, 1.0, 32));
  return defs;
}

/// Deterministic randomized stream workload for one kernel: inputs sized
/// so every conditional access of every iteration could fire, values in
/// (0.5, 2.0) so sqrt/div stay finite (same scheme as the equivalence
/// tests). Reusable across runs -- sinks are cleared by the caller.
struct IrWorkload {
  std::vector<std::vector<double>> store;  ///< per-slot input storage
  std::vector<std::vector<double>> outs;   ///< per-slot output sinks
  kernel::StreamBindings bindings;

  explicit IrWorkload(const kernel::KernelDef& def, std::uint64_t seed) {
    util::Rng rng(seed);
    const std::int64_t accesses =
        kIrRounds * (def.block_len + 2) * kIrClusters;
    store.resize(def.streams.size());
    outs.resize(def.streams.size());
    for (std::size_t s = 0; s < def.streams.size(); ++s) {
      if (def.streams[s].dir == kernel::StreamDir::kIn) {
        store[s].resize(
            static_cast<std::size_t>(accesses * def.streams[s].record_words));
        for (double& d : store[s]) d = rng.uniform(0.5, 2.0);
        bindings.inputs.emplace_back(store[s]);
        bindings.outputs.push_back(nullptr);
      } else {
        bindings.inputs.emplace_back();
        bindings.outputs.push_back(&outs[s]);
      }
    }
  }

  void clear_sinks() {
    for (auto& o : outs) o.clear();
  }
};

/// google-benchmark cases: one interp + one vm benchmark per kernel.
/// Registered dynamically (names come from the kernel defs).
void register_ir_benchmarks() {
  std::uint64_t seed = 0x5eedbea7;
  for (const kernel::KernelDef& def : builtin_kernels()) {
    // Shared pointers keep the per-case state alive inside the lambdas
    // google-benchmark stores.
    auto d = std::make_shared<kernel::KernelDef>(def);
    auto w = std::make_shared<IrWorkload>(*d, seed++);
    benchmark::RegisterBenchmark(
        ("BM_KernelInterp/" + def.name).c_str(),
        [d, w](benchmark::State& state) {
          kernel::Interpreter interp(*d, kIrClusters);
          std::int64_t flops = 0;
          for (auto _ : state) {
            w->clear_sinks();
            flops += interp.run(w->bindings, kIrRounds).executed.flops;
          }
          state.counters["kernel MFLOPS"] = benchmark::Counter(
              static_cast<double>(flops) * 1e-6, benchmark::Counter::kIsRate);
        })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        ("BM_KernelVm/" + def.name).c_str(),
        [d, w](benchmark::State& state) {
          kernel::CompiledKernel vm(*d, kIrClusters);
          std::int64_t flops = 0;
          for (auto _ : state) {
            w->clear_sinks();
            flops += vm.run(w->bindings, kIrRounds).executed.flops;
          }
          state.counters["kernel MFLOPS"] = benchmark::Counter(
              static_cast<double>(flops) * 1e-6, benchmark::Counter::kIsRate);
        })
        ->Unit(benchmark::kMicrosecond);
  }
}

/// Min-of-batches wall time of `runs` executions of `fn` (min is the
/// standard noise-robust estimator for a deterministic workload).
template <typename F>
double min_batch_seconds(F&& fn, int batches, int runs) {
  double best = 1e300;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < runs; ++r) fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (s < best) best = s;
  }
  return best;
}

/// The check.sh gate: interp/vm bit-identity (lockstep throws on any
/// divergence) and VM strictly faster, per built-in kernel. Exits 1 on
/// any failure.
int run_selfcheck() {
  std::printf("== kernel IR: interpreter vs. compiled VM "
              "(%d clusters, %lld rounds) ==\n\n",
              kIrClusters, static_cast<long long>(kIrRounds));
  util::Table t({"kernel", "ops", "interp (us)", "vm (us)", "speedup",
                 "bit-identical"});
  int failures = 0;
  std::uint64_t seed = 0x5eedbea7;
  for (const kernel::KernelDef& def : builtin_kernels()) {
    IrWorkload w(def, seed++);

    // Bit-identity: lockstep runs both backends and throws on the first
    // diverging output word or census field.
    bool identical = true;
    std::string divergence;
    try {
      kernel::KernelExec lock(def, kIrClusters,
                              kernel::KernelBackend::kLockstep);
      w.clear_sinks();
      (void)lock.run(w.bindings, kIrRounds);
    } catch (const std::exception& e) {
      identical = false;
      divergence = e.what();
    }

    kernel::Interpreter interp(def, kIrClusters);
    kernel::CompiledKernel vm(def, kIrClusters);
    constexpr int kBatches = 7;
    constexpr int kRuns = 10;
    const double ti = min_batch_seconds(
        [&] {
          w.clear_sinks();
          (void)interp.run(w.bindings, kIrRounds);
        },
        kBatches, kRuns);
    const double tv = min_batch_seconds(
        [&] {
          w.clear_sinks();
          (void)vm.run(w.bindings, kIrRounds);
        },
        kBatches, kRuns);
    const double speedup = ti / tv;
    const bool faster = tv < ti;
    if (!identical || !faster) ++failures;
    t.add_row({def.name, std::to_string(vm.n_ops()),
               util::Table::num(ti * 1e6 / kRuns, 1),
               util::Table::num(tv * 1e6 / kRuns, 1),
               util::Table::num(speedup, 2) + "x",
               identical ? "yes" : "NO"});
    if (!identical) {
      std::fprintf(stderr, "FAIL: %s diverged: %s\n", def.name.c_str(),
                   divergence.c_str());
    }
    if (!faster) {
      std::fprintf(stderr, "FAIL: %s VM not faster (%.1f us vs %.1f us)\n",
                   def.name.c_str(), tv * 1e6 / kRuns, ti * 1e6 / kRuns);
    }
  }
  std::printf("%s\n", t.render().c_str());
  if (failures == 0) {
    std::printf("selfcheck OK: VM bit-identical and faster on every "
                "built-in kernel\n");
  } else {
    std::printf("selfcheck FAILED on %d kernel(s)\n", failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

// Like BENCHMARK_MAIN(), but honors the repo-wide `--json <path>` flag by
// translating it into google-benchmark's own JSON reporter arguments, so
// every bench binary shares one machine-readable output convention. A bare
// `--json` without a path follows the repo-wide CLI contract (exit 2 plus
// a one-line usage hint) instead of falling through to google-benchmark's
// unrecognized-argument exit 1.
int main(int argc, char** argv) {
  static const char* kUsage =
      "bench_native_kernels [--json path] [--selfcheck] "
      "[google-benchmark args]";
  bool selfcheck = false;
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        benchio::usage_error("bench_native_kernels",
                            "flag '--json' expects a value", kUsage);
      }
      args.push_back("--benchmark_out=" + std::string(argv[i + 1]));
      args.push_back("--benchmark_out_format=json");
      ++i;
      continue;
    }
    if (std::string(argv[i]) == "--selfcheck") {
      selfcheck = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (selfcheck) return run_selfcheck();
  register_ir_benchmarks();
  std::vector<char*> cargs;
  for (auto& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
