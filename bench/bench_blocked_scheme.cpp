// Section 5.4 future work, executed: "These results will be confirmed and
// validated in the future using the more accurate Merrimac simulator."
//
// We confront the paper's analytical blocking estimate (Figures 11-12)
// with a SIMD-implementable design: 16-molecule central groups, cube
// paving with exact box-distance culling, occupancy padding, neighbor
// records broadcast through the inter-cluster switch, and a real scheduled
// kernel (masking + in-kernel cutoff, validated in tests/blocked_test).
//
// The comparison quantifies how much of the analytical model's promise an
// actual 16-wide SIMD mapping retains: the memory savings survive, but
// cube paving + padding inflate computation well beyond the model's
// half-edge shell, so on a kernel-bound calibration blocking loses.
#include <cstdio>

#include "bench/bench_io.h"
#include "src/core/blocking.h"
#include "src/core/report.h"
#include "src/core/run.h"
#include "src/util/table.h"

using namespace smd;

int main(int argc, char** argv) {
  static const char* kUsage = "bench_blocked_scheme [--json path]";
  benchio::check_flags(argc, argv, "bench_blocked_scheme", kUsage,
                       {"--json"}, {});
  benchio::JsonOut jout(argc, argv, "bench_blocked_scheme");
  const core::Problem problem = core::Problem::make({});
  const auto variable = core::run_variant(problem, core::Variant::kVariable);
  const double var_kernel = static_cast<double>(variable.run.kernel_busy_cycles);
  const double var_mem = static_cast<double>(variable.run.mem_busy_cycles);
  const double var_time = static_cast<double>(variable.run.cycles);
  const double var_words_per_pair =
      static_cast<double>(variable.mem_refs) /
      static_cast<double>(variable.n_real_interactions);

  // The paper-style analytical model, calibrated identically.
  core::BlockingModelParams mp;
  mp.cutoff = problem.setup.cutoff;
  mp.variable_kernel_cycles = var_kernel;
  mp.variable_memory_cycles = var_mem;
  mp.variable_words_per_interaction = var_words_per_pair;
  mp.interactions_per_molecule =
      static_cast<double>(problem.half_list.n_pairs()) /
      static_cast<double>(problem.system.n_molecules());
  const core::BlockingModel model(mp);

  std::printf("== Blocking scheme: analytical model vs implementable design ==\n");
  std::printf("variable calibration: kernel %.0f cycles, memory %.0f cycles,\n"
              "%.1f words per (half-list) interaction\n\n",
              var_kernel, var_mem, var_words_per_pair);

  util::Table t({"cells/dim", "x", "cells pave", "pad occ", "compute infl",
                 "words/pair", "model kernel", "impl kernel", "model mem",
                 "impl mem", "impl time rel"});
  obs::Json rows = obs::Json::array();
  for (int cells : {3, 4, 5, 6}) {
    const core::BlockedImplProfile p = core::profile_blocked_implementation(
        problem.system, problem.half_list, problem.setup.cutoff, cells);
    const core::BlockingPoint m = model.at(p.normalized_size);
    // Implementation-relative numbers. Note the blocked kernel computes
    // directed pairs (both sides, like `duplicated`), so its inflation vs
    // the half-list `variable` baseline is 2 x compute_inflation.
    const double impl_kernel_rel = p.est_kernel_cycles / var_kernel;
    const double impl_mem_cycles_rel = p.est_memory_cycles / var_mem;
    const double impl_time_rel =
        std::max(p.est_kernel_cycles, p.est_memory_cycles) / var_time;
    t.add_row({std::to_string(cells), util::Table::num(p.normalized_size, 2),
               std::to_string(p.paving_cells), std::to_string(p.max_occupancy),
               util::Table::num(p.compute_inflation, 1),
               util::Table::num(p.words_per_real_pair, 1),
               util::Table::num(m.kernel_rel, 2),
               util::Table::num(impl_kernel_rel, 2),
               util::Table::num(m.memory_rel, 2),
               util::Table::num(impl_mem_cycles_rel, 2),
               util::Table::num(impl_time_rel, 2)});
    obs::Json j = obs::Json::object();
    j.set("cells_per_dim", cells)
        .set("normalized_size", p.normalized_size)
        .set("paving_cells", p.paving_cells)
        .set("max_occupancy", p.max_occupancy)
        .set("compute_inflation", p.compute_inflation)
        .set("words_per_real_pair", p.words_per_real_pair)
        .set("model_kernel_rel", m.kernel_rel)
        .set("impl_kernel_rel", impl_kernel_rel)
        .set("model_memory_rel", m.memory_rel)
        .set("impl_memory_rel", impl_mem_cycles_rel)
        .set("impl_time_rel", impl_time_rel);
    rows.push_back(std::move(j));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Findings:\n"
      " * the memory side of the estimate is real -- the implementable\n"
      "   design moves far fewer words per pair than the list-based\n"
      "   variants (indices vanish, cells amortize);\n"
      " * the compute side is much worse than the model's (1 + x/2)^3\n"
      "   shell: cube paving with box-distance culling plus occupancy\n"
      "   padding costs several-fold over-computation at 16-wide SIMD\n"
      "   granularity;\n"
      " * hence on our (kernel-bound) calibration blocking does not pay,\n"
      "   and even on a memory-bound machine the practical optimum is\n"
      "   shallower than Figure 12 suggests. Production GPU MD resolved\n"
      "   this with pruned tile-pair lists -- blocking plus a coarse list,\n"
      "   rather than pure spatial paving.\n");
  jout.root().set("calibration", core::to_json(variable));
  jout.root().set("cells", std::move(rows));
  return jout.finish(0);
}
