// Section 5.4 ablation: "more complex water models ... can significantly
// increase the amount of arithmetic intensity. Consequently, Merrimac will
// provide better performance for those more accurate models."
//
// For each water model we build the real multi-site interaction kernel,
// schedule it on the cluster, and project chip-level performance as the
// min of the compute bound (from the schedule) and the bandwidth bound
// (arithmetic intensity x sustained memory bandwidth).
#include <cstdio>

#include "bench/bench_io.h"
#include "src/core/kernels.h"
#include "src/md/water.h"
#include "src/sim/config.h"
#include "src/util/table.h"

using namespace smd;

int main(int argc, char** argv) {
  static const char* kUsage = "bench_ablation_watermodels [--json path]";
  benchio::check_flags(argc, argv, "bench_ablation_watermodels", kUsage,
                       {"--json"}, {});
  benchio::JsonOut jout(argc, argv, "bench_ablation_watermodels");
  obs::Json rows = obs::Json::array();
  util::Table t({"model", "sites", "site pairs", "flops/pair", "div+sqrt",
                 "words/pair", "AI", "cycles/pair", "proj. GFLOPS", "bound"});
  const sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  for (const auto* m : md::table5_models()) {
    if (m->sites.empty()) continue;
    const core::MultisiteProfile p = core::profile_multisite_kernel(*m, cfg);
    const double compute_gflops = static_cast<double>(p.census.flops) *
                                  cfg.n_clusters / p.cycles_per_interaction *
                                  cfg.clock_ghz;
    const bool mem_bound = p.projected_gflops < compute_gflops - 1e-9;
    obs::Json j = obs::Json::object();
    j.set("model", m->name)
        .set("sites", p.sites)
        .set("active_pairs", p.active_pairs)
        .set("flops_per_pair", p.census.flops)
        .set("divides_and_sqrts", p.census.divides + p.census.square_roots)
        .set("words_per_interaction", p.words_per_interaction)
        .set("arithmetic_intensity", p.arithmetic_intensity)
        .set("cycles_per_interaction", p.cycles_per_interaction)
        .set("projected_gflops", p.projected_gflops)
        .set("bound", mem_bound ? "memory" : "compute");
    rows.push_back(std::move(j));
    t.add_row({m->name, std::to_string(p.sites), std::to_string(p.active_pairs),
               std::to_string(p.census.flops),
               std::to_string(p.census.divides + p.census.square_roots),
               util::Table::num(p.words_per_interaction, 0),
               util::Table::num(p.arithmetic_intensity, 1),
               util::Table::num(p.cycles_per_interaction, 0),
               util::Table::num(p.projected_gflops, 1),
               mem_bound ? "memory" : "compute"});
  }
  std::printf("== Ablation: water-model complexity vs Merrimac efficiency ==\n%s\n",
              t.render().c_str());
  std::printf(
      "The paper's Section 5.4 claim holds for genuinely busier models:\n"
      "TIP5P's five sites raise flops/word and the projected rate over SPC.\n"
      "The PPC row is a static effective-charge proxy; the real polarizable\n"
      "model recomputes its charge distribution every step -- additional\n"
      "arithmetic at no additional bandwidth, exactly the trade the paper\n"
      "says favors Merrimac. (Expanded-style streams; bandwidth bound\n"
      "assumes 4 sustained words/cycle.)\n");
  jout.root().set("models", std::move(rows));
  return jout.finish(0);
}
