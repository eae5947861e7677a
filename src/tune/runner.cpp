#include "src/tune/runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/core/blocking.h"
#include "src/obs/registry.h"

namespace smd::tune {
namespace {

Metrics metrics_from_estimate(const core::AnalyticEstimate& e,
                              const sim::MachineConfig& cfg,
                              std::string source) {
  Metrics m;
  m.cycles = static_cast<std::uint64_t>(e.time_cycles);
  m.time_ms = e.time_cycles / (cfg.clock_ghz * 1e9) * 1e3;
  m.mem_words = static_cast<std::int64_t>(e.mem_words);
  m.kernel_busy_cycles = static_cast<std::uint64_t>(e.kernel_cycles);
  m.mem_busy_cycles = static_cast<std::uint64_t>(e.memory_cycles);
  m.source = std::move(source);
  return m;
}

}  // namespace

Metrics evaluate(const core::Problem& problem, const Candidate& cand) {
  const sim::MachineConfig cfg = cand.machine();
  {
    analysis::Diagnostics diags = cfg.validate();
    if (diags.errors() > 0) throw analysis::CheckFailure(std::move(diags));
  }

  if (cand.blocking_cells > 0) {
    // The blocking scheme: estimate()'s scheduled-kernel + traffic-census
    // profile of the blocked implementation (the Figure 11/12 path). No
    // cycle-driven simulation exists for it yet, so this is its sim-path
    // stand-in.
    const core::AnalyticEstimate e = estimate(problem, cand);
    Metrics m = metrics_from_estimate(e, cfg, "blocked_profile");
    const double solution_flops =
        problem.flops_per_interaction *
        static_cast<double>(problem.half_list.n_pairs());
    m.solution_gflops =
        solution_flops / (e.time_cycles / (cfg.clock_ghz * 1e9)) / 1e9;
    return m;
  }

  // Full cycle-accurate path. L and strip length live in the problem
  // setup. Changing them means a deep copy of the problem (system,
  // neighbor list, reference forces), so run on the caller's problem
  // whenever the knobs the variant reads already match.
  core::VariantResult res;
  const bool same_l =
      !core::reads_fixed_list_length(cand.variant) ||
      cand.fixed_list_length == problem.setup.fixed_list_length;
  if (same_l && cand.strip_rounds == problem.setup.strip_rounds) {
    res = core::run_variant(problem, cand.variant, cfg);
  } else {
    core::Problem local = problem;
    local.setup.fixed_list_length = cand.fixed_list_length;
    local.setup.strip_rounds = cand.strip_rounds;
    res = core::run_variant(local, cand.variant, cfg);
  }

  Metrics m;
  m.time_ms = res.time_ms;
  m.cycles = res.run.cycles;
  m.mem_words = res.mem_refs;
  m.srf_peak_words = res.run.srf_peak_words;
  m.kernel_busy_cycles = res.run.kernel_busy_cycles;
  m.mem_busy_cycles = res.run.mem_busy_cycles;
  m.solution_gflops = res.solution_gflops;
  m.max_force_rel_err = res.max_force_rel_err;
  m.source = "sim";
  return m;
}

core::AnalyticEstimate estimate(const core::Problem& problem,
                                const Candidate& cand) {
  const sim::MachineConfig cfg = cand.machine();
  if (cand.blocking_cells > 0) {
    const core::BlockedImplProfile p = core::profile_blocked_implementation(
        problem.system, problem.half_list, problem.setup.cutoff,
        cand.blocking_cells, cfg, cfg.dram_words_per_cycle());
    core::AnalyticEstimate e;
    e.kernel_cycles = p.est_kernel_cycles;
    e.memory_cycles = p.est_memory_cycles;
    e.time_cycles = std::max(p.est_kernel_cycles, p.est_memory_cycles);
    e.mem_words = p.words_total;
    return e;
  }
  core::LayoutOptions lopts = core::layout_options(problem.setup, cfg);
  lopts.fixed_list_length = cand.fixed_list_length;
  lopts.strip_rounds = cand.strip_rounds;
  return core::estimate_variant_run(problem.system, problem.half_list,
                                    cand.variant, lopts, cfg);
}

Runner::Runner(const core::Problem& problem, RunnerOptions opts)
    : problem_(problem), opts_(std::move(opts)) {}

std::vector<EvalResult> Runner::run(const std::vector<Candidate>& cands) {
  auto& reg = obs::CounterRegistry::global();
  reg.add("tune.sweeps");

  std::vector<EvalResult> out(cands.size());
  ResultCache cache(opts_.cache_path, opts_.salt);
  cache.load();

  // ---- Cache pre-pass (single-threaded). ----------------------------------
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    out[i].cand = cands[i];
    out[i].hash = config_hash(cands[i], opts_.salt);
    Metrics m;
    if (cache.enabled() && cache.lookup(out[i].hash, &m)) {
      out[i].metrics = std::move(m);
      out[i].cached = true;
      reg.add("tune.cache.hits");
      continue;
    }
    if (cache.enabled()) reg.add("tune.cache.misses");
    todo.push_back(i);
  }

  // ---- Analytic pruning pre-pass. -----------------------------------------
  if (opts_.prune_slack > 1.0 && todo.size() > 1) {
    obs::ScopedTimer timer(reg, "tune.prune_prepass");
    std::vector<core::AnalyticEstimate> est(todo.size());
    std::vector<bool> estimable(todo.size(), false);
    for (std::size_t k = 0; k < todo.size(); ++k) {
      try {
        est[k] = estimate(problem_, cands[todo[k]]);
        estimable[k] = true;
      } catch (const std::exception&) {
        // Leave it to evaluate(), which reports the structured error.
        est[k].time_cycles = 0.0;  // never dominates, never dominated
        est[k].mem_words = 0.0;
      }
    }
    const std::vector<bool> keep = core::prune_dominated(est, opts_.prune_slack);
    std::vector<std::size_t> kept;
    for (std::size_t k = 0; k < todo.size(); ++k) {
      const std::size_t idx = todo[k];
      if (keep[k] || !estimable[k]) {
        kept.push_back(idx);
        continue;
      }
      out[idx].metrics =
          metrics_from_estimate(est[k], cands[idx].machine(), "estimate");
      out[idx].pruned = true;
      reg.add("tune.pruned");
      if (opts_.verbose) {
        std::printf("tune: pruned %s (analytically dominated)\n",
                    cands[idx].label().c_str());
      }
    }
    todo = std::move(kept);
  }

  // ---- One simulation per run hash. --------------------------------------
  // The first candidate of each group, in candidate order, runs; the rest
  // copy its result after the join, so the output is the same at any
  // --jobs.
  std::vector<std::size_t> runs;
  std::vector<std::pair<std::size_t, std::size_t>> copies;  // (to, from)
  {
    std::unordered_map<std::uint64_t, std::size_t> first;
    for (const std::size_t idx : todo) {
      const auto [it, fresh] =
          first.emplace(run_hash(cands[idx], opts_.salt), idx);
      if (fresh) {
        runs.push_back(idx);
      } else {
        copies.emplace_back(idx, it->second);
      }
    }
  }

  // ---- Parallel evaluation. -----------------------------------------------
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    while (true) {
      const std::size_t k = next.fetch_add(1);
      if (k >= runs.size()) break;
      EvalResult& r = out[runs[k]];
      try {
        r.metrics = evaluate(problem_, r.cand);
        reg.add("tune.evaluated");
      } catch (const std::exception& e) {
        r.error = e.what();
        reg.add("tune.errors");
      }
      if (opts_.verbose) {
        std::printf("tune: %-40s %s\n", r.cand.label().c_str(),
                    r.ok() ? "done" : ("error: " + r.error).c_str());
      }
    }
  };

  const int jobs = std::max(
      1, std::min<int>(opts_.jobs, static_cast<int>(runs.size())));
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  for (const auto& [to, from] : copies) {
    out[to].metrics = out[from].metrics;
    out[to].error = out[from].error;
    out[to].shared = true;
    reg.add("tune.shared");
    if (opts_.verbose) {
      std::printf("tune: %-40s shared with candidate %zu\n",
                  out[to].cand.label().c_str(), from);
    }
  }

  // ---- Fill the cache with the new results, shared ones included. --------
  if (cache.enabled()) {
    for (const std::size_t idx : todo) {
      if (out[idx].ok()) cache.insert(out[idx].hash, out[idx].cand,
                                      out[idx].metrics);
    }
    cache.save();
  }
  return out;
}

}  // namespace smd::tune
