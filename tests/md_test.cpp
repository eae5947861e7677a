#include <gtest/gtest.h>

#include <cmath>

#include "src/md/constants.h"
#include "src/md/force_ref.h"
#include "src/md/integrator.h"
#include "src/md/neighborlist.h"
#include "src/md/pbc.h"
#include "src/md/system.h"
#include "src/md/water.h"

namespace smd::md {
namespace {

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ((a + b).x, 5.0);
  EXPECT_DOUBLE_EQ((b - a).z, 3.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ((a * 2.0).y, 4.0);
  EXPECT_DOUBLE_EQ(a.cross(b).x, 2 * 6 - 3 * 5);
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm(), 5.0);
}

TEST(Box, WrapIntoPrimaryCell) {
  const Box box(2.0);
  const Vec3 p = box.wrap({2.5, -0.5, 1.0});
  EXPECT_NEAR(p.x, 0.5, 1e-12);
  EXPECT_NEAR(p.y, 1.5, 1e-12);
  EXPECT_NEAR(p.z, 1.0, 1e-12);
}

TEST(Box, MinImageWithinHalfBox) {
  const Box box(3.0);
  const Vec3 d = box.min_image({0.1, 0.1, 0.1}, {2.9, 2.9, 2.9});
  EXPECT_NEAR(d.x, 0.2, 1e-12);
  EXPECT_NEAR(d.norm(), 0.2 * std::sqrt(3.0), 1e-12);
}

TEST(Box, ShiftIsConsistentWithMinImage) {
  const Box box(3.0);
  const Vec3 a{0.1, 1.5, 2.9}, b{2.9, 1.4, 0.2};
  const Vec3 s = box.min_image_shift(a, b);
  const Vec3 d_direct = box.min_image(a, b);
  const Vec3 d_shift = a - (b + s);
  EXPECT_NEAR(d_direct.x, d_shift.x, 1e-12);
  EXPECT_NEAR(d_direct.y, d_shift.y, 1e-12);
  EXPECT_NEAR(d_direct.z, d_shift.z, 1e-12);
}

TEST(WaterModels, SpcGeometry) {
  const WaterModel& m = spc();
  ASSERT_EQ(m.sites.size(), 3u);
  const double d_oh = (m.sites[1].local_pos - m.sites[0].local_pos).norm();
  EXPECT_NEAR(d_oh, 0.1, 1e-12);
  // HOH angle = 109.47 degrees
  const Vec3 u = m.sites[1].local_pos, v = m.sites[2].local_pos;
  const double cosang = u.dot(v) / (u.norm() * v.norm());
  EXPECT_NEAR(std::acos(cosang) * 180.0 / M_PI, 109.47, 1e-6);
}

TEST(WaterModels, AllNeutral) {
  for (const auto* m : table5_models()) {
    if (m->sites.empty()) continue;
    EXPECT_NEAR(m->total_charge(), 0.0, 1e-12) << m->name;
  }
}

TEST(WaterModels, SpcDipoleMatchesLiterature) {
  EXPECT_NEAR(spc().computed_dipole_debye(), 2.27, 0.01);
}

TEST(WaterModels, Tip5pDipoleMatchesLiterature) {
  EXPECT_NEAR(tip5p().computed_dipole_debye(), tip5p().lit_dipole_debye, 0.10);
}

TEST(WaterModels, PpcDipoleMatchesTarget) {
  EXPECT_NEAR(ppc().computed_dipole_debye(), 2.52, 0.01);
}

TEST(WaterModels, NinePairInteractionsForSpc) {
  EXPECT_EQ(pair_interactions(spc()), 9u);
  EXPECT_EQ(pair_interactions(tip5p()), 25u);
}

TEST(WaterBox, DensityAndCount) {
  WaterBoxOptions opts;
  opts.n_molecules = 216;
  const WaterSystem sys = build_water_box(opts);
  EXPECT_EQ(sys.n_molecules(), 216);
  EXPECT_EQ(sys.n_atoms(), 648);
  const double density = sys.n_molecules() / sys.box().volume();
  EXPECT_NEAR(density, opts.number_density, 1e-9);
}

TEST(WaterBox, Deterministic) {
  WaterBoxOptions opts;
  opts.n_molecules = 64;
  const WaterSystem a = build_water_box(opts);
  const WaterSystem b = build_water_box(opts);
  for (int i = 0; i < a.n_atoms(); ++i) {
    EXPECT_DOUBLE_EQ(a.pos(i).x, b.pos(i).x);
    EXPECT_DOUBLE_EQ(a.vel(i).z, b.vel(i).z);
  }
}

TEST(WaterBox, RigidGeometryPreserved) {
  WaterBoxOptions opts;
  opts.n_molecules = 100;
  const WaterSystem sys = build_water_box(opts);
  for (int m = 0; m < sys.n_molecules(); ++m) {
    EXPECT_NEAR((sys.pos(m, 1) - sys.pos(m, 0)).norm(), 0.1, 1e-9);
    EXPECT_NEAR((sys.pos(m, 2) - sys.pos(m, 0)).norm(), 0.1, 1e-9);
  }
}

TEST(WaterBox, TemperatureNearTarget) {
  WaterBoxOptions opts;
  opts.n_molecules = 500;
  opts.temperature_kelvin = 300.0;
  const WaterSystem sys = build_water_box(opts);
  // Atomic (unconstrained) dof at build time: T estimate uses 6 dof per
  // molecule so the build-time value runs ~50% hot; just check sanity.
  EXPECT_GT(sys.temperature(), 200.0);
  EXPECT_LT(sys.temperature(), 700.0);
}

TEST(WaterBox, CenterOfMassMomentumRemoved) {
  const WaterSystem sys = build_water_box({});
  Vec3 p{};
  for (int a = 0; a < sys.n_atoms(); ++a) p += sys.vel(a) * sys.site_mass(a % 3);
  EXPECT_NEAR(p.norm(), 0.0, 1e-9);
}

class NeighborListParam : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(NeighborListParam, CellListMatchesBruteForce) {
  const auto [n, rc] = GetParam();
  WaterBoxOptions opts;
  opts.n_molecules = n;
  opts.seed = 17;
  const WaterSystem sys = build_water_box(opts);
  const NeighborList brute = build_neighbor_list_brute(sys, rc);
  const NeighborList cells = build_neighbor_list(sys, rc);
  ASSERT_EQ(brute.n_pairs(), cells.n_pairs());
  ASSERT_EQ(brute.offsets, cells.offsets);
  ASSERT_EQ(brute.neighbors, cells.neighbors);
  for (std::size_t k = 0; k < brute.shifts.size(); ++k) {
    EXPECT_NEAR(brute.shifts[k].x, cells.shifts[k].x, 1e-12);
    EXPECT_NEAR(brute.shifts[k].y, cells.shifts[k].y, 1e-12);
    EXPECT_NEAR(brute.shifts[k].z, cells.shifts[k].z, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NeighborListParam,
    ::testing::Values(std::make_tuple(64, 0.5), std::make_tuple(125, 0.6),
                      std::make_tuple(216, 0.45), std::make_tuple(343, 0.55),
                      std::make_tuple(512, 0.7)));

TEST(NeighborList, HalfListNoSelfNoDuplicates) {
  WaterBoxOptions opts;
  opts.n_molecules = 216;
  const WaterSystem sys = build_water_box(opts);
  const NeighborList list = build_neighbor_list(sys, 0.8);
  for (int i = 0; i < list.n_molecules(); ++i) {
    std::int32_t prev = -1;
    for (std::int32_t k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
      EXPECT_GT(list.neighbors[k], i);   // half list: j > i
      EXPECT_GT(list.neighbors[k], prev);  // sorted, no duplicates
      prev = list.neighbors[k];
    }
  }
}

TEST(NeighborList, MeanDegreeMatchesDensityEstimate) {
  WaterBoxOptions opts;
  opts.n_molecules = 900;
  const WaterSystem sys = build_water_box(opts);
  const double rc = 1.0;
  const NeighborList list = build_neighbor_list(sys, rc);
  // Expected half-pair count: N * (4/3 pi rc^3 rho) / 2.
  const double expect =
      900.0 * (4.0 / 3.0 * M_PI * rc * rc * rc * opts.number_density) / 2.0;
  EXPECT_NEAR(static_cast<double>(list.n_pairs()), expect, 0.05 * expect);
}

TEST(ForceRef, NewtonThirdLawTotalForceZero) {
  WaterBoxOptions opts;
  opts.n_molecules = 125;
  const WaterSystem sys = build_water_box(opts);
  const NeighborList list = build_neighbor_list(sys, 0.9);
  const ForceEnergy fe = compute_forces_reference(sys, list);
  Vec3 total{};
  for (const auto& f : fe.force) total += f;
  EXPECT_NEAR(total.norm(), 0.0, 1e-7);
}

TEST(ForceRef, TwoMoleculeForceIsCentralDifferenceOfEnergy) {
  // Finite-difference check of dV/dx against the analytic force for a
  // hand-placed pair of molecules.
  WaterSystem sys(Box(100.0), spc(), 2);
  for (int s = 0; s < 3; ++s) {
    sys.pos(0, s) = spc().sites[s].local_pos + Vec3{1, 1, 1};
    sys.pos(1, s) = spc().sites[s].local_pos + Vec3{1.32, 1.05, 1.1};
  }
  NeighborList list;
  list.cutoff = 10.0;
  list.offsets = {0, 1, 1};
  list.neighbors = {1};
  list.shifts = {Vec3{}};

  const ForceEnergy fe = compute_forces_reference(sys, list);
  const double h = 1e-6;
  // Displace O of molecule 0 along x.
  auto energy = [&](double dx) {
    WaterSystem s2 = sys;
    s2.pos(0, 0).x += dx;
    const ForceEnergy e = compute_forces_reference(s2, list);
    return e.e_potential();
  };
  const double f_numeric = -(energy(h) - energy(-h)) / (2 * h);
  EXPECT_NEAR(fe.force[0].x, f_numeric, 1e-4 * std::max(1.0, std::fabs(f_numeric)));
}

TEST(ForceRef, EnergyPerMoleculePlausible) {
  // The synthetic box has random (unequilibrated) orientations, so the
  // electrostatic energy is near zero rather than the correlated liquid's
  // -40 kJ/mol/molecule; it must still be finite and of molecular scale,
  // and the short-range repulsion must not blow up (no overlapping sites).
  const WaterSystem sys = build_water_box({});
  const NeighborList list = build_neighbor_list(sys, 1.0);
  const ForceEnergy fe = compute_forces_reference(sys, list);
  ASSERT_TRUE(std::isfinite(fe.e_potential()));
  const double per_mol = fe.e_potential() / sys.n_molecules();
  EXPECT_LT(std::fabs(per_mol), 1000.0);
  for (const auto& f : fe.force) EXPECT_LT(f.norm(), 1e6);
}

TEST(ForceRef, SymmetricPairGivesOppositeForces) {
  WaterSystem sys(Box(50.0), spc(), 2);
  for (int s = 0; s < 3; ++s) {
    sys.pos(0, s) = spc().sites[s].local_pos + Vec3{5, 5, 5};
    sys.pos(1, s) = spc().sites[s].local_pos + Vec3{5.3, 5, 5};
  }
  Vec3 fc[3] = {}, fn[3] = {};
  water_water_interaction(sys, 0, 1, Vec3{}, fc, fn);
  Vec3 sum{};
  for (int s = 0; s < 3; ++s) sum += fc[s] + fn[s];
  EXPECT_NEAR(sum.norm(), 0.0, 1e-9);
}

TEST(Integrator, ConstraintsHoldOverSteps) {
  WaterBoxOptions opts;
  opts.n_molecules = 64;
  WaterSystem sys = build_water_box(opts);
  const double rc = 0.8;
  auto force = [rc](const WaterSystem& s) {
    return compute_forces_reference(s, build_neighbor_list(s, rc));
  };
  LeapfrogIntegrator integ(sys, force);
  integ.run(5);
  for (int m = 0; m < sys.n_molecules(); ++m) {
    EXPECT_NEAR((sys.pos(m, 1) - sys.pos(m, 0)).norm(), 0.1, 1e-5);
    EXPECT_NEAR((sys.pos(m, 2) - sys.pos(m, 1)).norm(),
                2 * 0.1 * std::sin(109.47 / 2 * M_PI / 180.0), 1e-5);
  }
}

TEST(Integrator, EnergyIsBoundedOverShortRun) {
  WaterBoxOptions opts;
  opts.n_molecules = 64;
  opts.temperature_kelvin = 250.0;
  WaterSystem sys = build_water_box(opts);
  const double rc = 0.8;
  auto force = [rc](const WaterSystem& s) {
    return compute_forces_reference(s, build_neighbor_list(s, rc));
  };
  LeapfrogIntegrator integ(sys, force);
  const double e0 = force(sys).e_potential() + sys.kinetic_energy();
  integ.run(10);
  const double e1 = force(sys).e_potential() + sys.kinetic_energy();
  // A freshly built lattice relaxes, so allow generous drift, but the total
  // energy must stay the same order of magnitude (no integrator blowup).
  EXPECT_LT(std::fabs(e1 - e0), 0.5 * std::fabs(e0) + 1000.0);
  EXPECT_TRUE(std::isfinite(e1));
}

}  // namespace
}  // namespace smd::md
