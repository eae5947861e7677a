#include "src/md/force_ref.h"

#include <cmath>

#include "src/md/constants.h"

namespace smd::md {

PairEnergy water_water_interaction(const WaterSystem& sys, int central,
                                   int neighbor, const Vec3& shift,
                                   Vec3 f_central[3], Vec3 f_neighbor[3]) {
  const WaterModel& model = sys.model();
  PairEnergy e{0.0, 0.0};

  for (int a = 0; a < 3; ++a) {
    const Vec3& pa = sys.pos(central, a);
    const double qa = model.sites[static_cast<std::size_t>(a)].charge;
    for (int b = 0; b < 3; ++b) {
      const Vec3 pb = sys.pos(neighbor, b) + shift;
      const Vec3 d = pa - pb;
      const double r2 = d.norm2();
      const double rinv = 1.0 / std::sqrt(r2);
      const double rinv2 = rinv * rinv;

      const double qq =
          kCoulombFactor * qa * model.sites[static_cast<std::size_t>(b)].charge;
      const double vc = qq * rinv;
      double fs = vc * rinv2;
      e.coulomb += vc;

      if (a == 0 && b == 0) {  // O-O Lennard-Jones
        const double rinv6 = rinv2 * rinv2 * rinv2;
        const double c6t = model.c6 * rinv6;
        const double c12t = model.c12 * rinv6 * rinv6;
        e.lj += c12t - c6t;
        fs += (12.0 * c12t - 6.0 * c6t) * rinv2;
      }

      const Vec3 f = d * fs;
      f_central[a] += f;
      f_neighbor[b] -= f;
    }
  }
  return e;
}

ForceEnergy compute_forces_reference(const WaterSystem& sys,
                                     const NeighborList& list) {
  ForceEnergy out;
  out.force.assign(static_cast<std::size_t>(sys.n_atoms()), Vec3{});

  for (int i = 0; i < list.n_molecules(); ++i) {
    for (std::int32_t k = list.offsets[static_cast<std::size_t>(i)];
         k < list.offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int32_t j = list.neighbors[static_cast<std::size_t>(k)];
      const Vec3 shift = list.shifts[static_cast<std::size_t>(k)];
      Vec3 fc[3] = {};
      Vec3 fn[3] = {};
      const PairEnergy e = water_water_interaction(sys, i, j, shift, fc, fn);
      out.e_coulomb += e.coulomb;
      out.e_lj += e.lj;
      for (int s = 0; s < 3; ++s) {
        out.force[static_cast<std::size_t>(3 * i + s)] += fc[s];
        out.force[static_cast<std::size_t>(3 * j + s)] += fn[s];
        // Virial: r.F summed over the pair; use central-side forces against
        // the minimum-image displacement of each site pair (diagonal part).
      }
    }
  }
  return out;
}

double max_force_rel_err(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  double worst = 0.0;
  // Scale errors by the RMS force so near-zero components don't dominate.
  double rms = 0.0;
  for (const auto& v : a) rms += v.norm2();
  rms = std::sqrt(rms / static_cast<double>(a.size()));
  const double floor = std::max(rms, 1e-12);
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const Vec3 d = a[i] - b[i];
    worst = std::max(worst, d.norm() / floor);
  }
  return worst;
}

}  // namespace smd::md
