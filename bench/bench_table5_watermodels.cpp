// Reproduces paper Table 5: physical properties of water models (SPC,
// TIP5P as the 5-site "TIP5P" row, PPC as the polarizable row) against
// experiment. Dipole moments are *computed* from the site geometry and
// charges; dielectric constant and self-diffusion are literature values
// (they require long equilibrium simulations well outside a force-kernel
// benchmark).
#include <cstdio>

#include "bench/bench_io.h"
#include "src/md/water.h"
#include "src/util/table.h"

using namespace smd;

int main(int argc, char** argv) {
  static const char* kUsage = "bench_table5_watermodels [--json path]";
  benchio::check_flags(argc, argv, "bench_table5_watermodels", kUsage,
                       {"--json"}, {});
  benchio::JsonOut jout(argc, argv, "bench_table5_watermodels");
  obs::Json rows = obs::Json::array();
  util::Table t({"Model", "Dipole (computed)", "Dipole (lit.)", "Dielectric",
                 "Self-diffusion 1e-5 cm^2/s"});
  for (const auto* m : md::table5_models()) {
    obs::Json j = obs::Json::object();
    j.set("model", m->name);
    if (!m->sites.empty()) {
      j.set("computed_dipole_debye", m->computed_dipole_debye())
          .set("sites", m->site_count())
          .set("pair_interactions", md::pair_interactions(*m));
    }
    j.set("lit_dipole_debye", m->lit_dipole_debye)
        .set("lit_dielectric", m->lit_dielectric)
        .set("lit_self_diffusion_1e5_cm2s", m->lit_self_diffusion_1e5_cm2s);
    rows.push_back(std::move(j));
    t.add_row({m->name,
               m->sites.empty() ? std::string("-")
                                : util::Table::num(m->computed_dipole_debye(), 2),
               util::Table::num(m->lit_dipole_debye, 2),
               util::Table::num(m->lit_dielectric, 1),
               util::Table::num(m->lit_self_diffusion_1e5_cm2s, 2)});
  }
  std::printf("== Table 5: water model properties ==\n%s\n", t.render().c_str());
  std::printf(
      "More elaborate models raise arithmetic intensity: site^2 interactions\n");
  for (const auto* m : md::table5_models()) {
    if (m->sites.empty()) continue;
    std::printf("  %-12s %zu sites -> %2zu atom-pair interactions per molecule pair\n",
                m->name.c_str(), m->site_count(), md::pair_interactions(*m));
  }
  jout.root().set("models", std::move(rows));
  return jout.finish(0);
}
