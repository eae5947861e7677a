#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/md/constants.h"
#include "src/md/force_ref.h"
#include "src/md/integrator.h"
#include "src/md/neighborlist.h"
#include "src/md/pbc.h"
#include "src/md/system.h"
#include "src/md/water.h"
#include "src/util/rng.h"

namespace smd::md {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// The production builder against the brute-force one: the same offsets
/// and neighbors, and shifts with the same bit patterns.
void expect_same_list(const NeighborList& brute, const NeighborList& cells) {
  ASSERT_EQ(brute.n_pairs(), cells.n_pairs());
  ASSERT_EQ(brute.offsets, cells.offsets);
  ASSERT_EQ(brute.neighbors, cells.neighbors);
  ASSERT_EQ(brute.shifts.size(), cells.shifts.size());
  for (std::size_t k = 0; k < brute.shifts.size(); ++k) {
    ASSERT_EQ(bits(brute.shifts[k].x), bits(cells.shifts[k].x)) << "entry " << k;
    ASSERT_EQ(bits(brute.shifts[k].y), bits(cells.shifts[k].y)) << "entry " << k;
    ASSERT_EQ(bits(brute.shifts[k].z), bits(cells.shifts[k].z)) << "entry " << k;
  }
}

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

class NeighborListParam
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {};

TEST_P(NeighborListParam, CellListMatchesBruteForce) {
  const auto [n, rc, seed] = GetParam();
  WaterBoxOptions opts;
  opts.n_molecules = n;
  opts.seed = seed;
  const WaterSystem sys = build_water_box(opts);
  expect_same_list(build_neighbor_list_brute(sys, rc), build_neighbor_list(sys, rc));
}

// Small boxes at short cutoffs, then the production cutoff at the paper's
// 900 molecules, variants-1800's 1,800, and 3,600 and 7,200.
INSTANTIATE_TEST_SUITE_P(
    Sweep, NeighborListParam,
    ::testing::Values(std::make_tuple(64, 0.5, 17), std::make_tuple(125, 0.6, 17),
                      std::make_tuple(216, 0.45, 17), std::make_tuple(343, 0.55, 17),
                      std::make_tuple(512, 0.7, 17), std::make_tuple(900, 1.0, 1),
                      std::make_tuple(900, 1.0, 2), std::make_tuple(900, 1.0, 42),
                      std::make_tuple(1800, 1.0, 1), std::make_tuple(1800, 1.0, 2),
                      std::make_tuple(1800, 1.0, 42), std::make_tuple(3600, 1.0, 1),
                      std::make_tuple(3600, 1.0, 2), std::make_tuple(3600, 1.0, 42),
                      std::make_tuple(7200, 1.0, 42)));

/// `n` molecules with centers drawn uniformly from [-L, 2L) per axis of a
/// cubic box of edge L, so a third of them lie outside it.
WaterSystem random_centers(double edge, int n, std::uint64_t seed) {
  WaterSystem sys(Box(edge), spc(), n);
  util::Rng rng(seed);
  for (int m = 0; m < n; ++m) {
    sys.pos(m, 0) = Vec3{rng.uniform(-edge, 2 * edge), rng.uniform(-edge, 2 * edge),
                         rng.uniform(-edge, 2 * edge)};
  }
  return sys;
}

TEST(NeighborList, BoxesAroundFiveHalfCutoffCellsMatchBruteForce) {
  // Five cells of half a cutoff per side is where the cell walk begins:
  // the box just under is built by the brute-force builder, the one just
  // over by the 5x5x5 stencil, which must match it bit for bit.
  const double rc = 1.0;
  for (const double edge : {2.5 * rc * (1 - 1e-6), 2.5 * rc * (1 + 1e-6)}) {
    for (const std::uint64_t seed : {3u, 4u}) {
      SCOPED_TRACE(testing::Message() << "edge " << edge << " seed " << seed);
      const WaterSystem sys = random_centers(edge, 400, seed);
      expect_same_list(build_neighbor_list_brute(sys, rc), build_neighbor_list(sys, rc));
    }
  }
}

TEST(NeighborList, PairsAtExactlyTheCutoffAndAcrossTheBoundary) {
  // A 10^3 lattice of spacing 1/4 in a box of 2.5, centers at 1/8 + k/4:
  // every coordinate and difference is exact, so the pairs two spacings
  // apart on an axis sit at exactly the cutoff (0.5) and are listed (the
  // test is r2 <= rc2), including the ones that cross the box faces.
  const int side = 10;
  WaterSystem sys(Box(2.5), spc(), side * side * side);
  auto index = [&](int ix, int iy, int iz) { return (ix * side + iy) * side + iz; };
  for (int ix = 0; ix < side; ++ix) {
    for (int iy = 0; iy < side; ++iy) {
      for (int iz = 0; iz < side; ++iz) {
        sys.pos(index(ix, iy, iz), 0) =
            Vec3{0.125 + 0.25 * ix, 0.125 + 0.25 * iy, 0.125 + 0.25 * iz};
      }
    }
  }
  const double rc = 0.5;
  const NeighborList list = build_neighbor_list(sys, rc);
  expect_same_list(build_neighbor_list_brute(sys, rc), list);
  // 32 lattice neighbors within 2 spacings (6 + 12 + 8 + the 6 at the
  // cutoff), each pair listed once.
  EXPECT_EQ(list.n_pairs(), 16 * sys.n_molecules());
  // Molecule 0 at the corner meets (9,0,0) one spacing away and (8,0,0)
  // at the cutoff, both through the x face: shift -L.
  for (const int j : {index(9, 0, 0), index(8, 0, 0)}) {
    bool found = false;
    for (std::int32_t k = list.offsets[0]; k < list.offsets[1]; ++k) {
      if (list.neighbors[static_cast<std::size_t>(k)] != j) continue;
      found = true;
      const Vec3& s = list.shifts[static_cast<std::size_t>(k)];
      EXPECT_EQ(s.x, -2.5);
      EXPECT_EQ(s.y, 0.0);
      EXPECT_EQ(s.z, 0.0);
    }
    EXPECT_TRUE(found) << "molecule " << j;
  }
}

TEST(NeighborList, PairsWithinRoundingOfTheCutoffMatchBruteForce) {
  // 300 pairs placed a cutoff apart to within a few ulps, each molecule
  // moved by whole box lengths, so distances from wrapped and from
  // original centers round differently: the fast walks must leave these
  // pairs to the brute-force test.
  const double edge = 3.0;
  const double rc = 1.0;
  const int n_pairs = 300;
  WaterSystem sys(Box(edge), spc(), 2 * n_pairs);
  util::Rng rng(11);
  auto box_shift = [&] {
    return Vec3{edge * static_cast<double>(rng.uniform_u64(7)) - 3 * edge,
                edge * static_cast<double>(rng.uniform_u64(7)) - 3 * edge,
                edge * static_cast<double>(rng.uniform_u64(7)) - 3 * edge};
  };
  for (int k = 0; k < n_pairs; ++k) {
    const Vec3 a{rng.uniform(0, edge), rng.uniform(0, edge), rng.uniform(0, edge)};
    Vec3 u{rng.normal(), rng.normal(), rng.normal()};
    u = u / u.norm();
    const double r = rc * (1.0 + 4e-16 * rng.uniform(-1.0, 1.0));
    sys.pos(2 * k, 0) = a + box_shift();
    sys.pos(2 * k + 1, 0) = a + u * r + box_shift();
  }
  expect_same_list(build_neighbor_list_brute(sys, rc), build_neighbor_list(sys, rc));
}

TEST(NeighborList, TinyCutoffListsNoPair) {
  // A cutoff far below the spacing: the cell count is capped at about one
  // cell per molecule instead of (L / cutoff)^3, and the list is empty.
  WaterBoxOptions opts;
  opts.n_molecules = 64;
  const WaterSystem sys = build_water_box(opts);
  for (const double rc : {1e-3, 1e-9, 1e-300}) {
    const NeighborList list = build_neighbor_list(sys, rc);
    EXPECT_EQ(list.n_pairs(), 0) << rc;
    EXPECT_EQ(list.n_molecules(), 64);
  }
  opts.n_molecules = 1800;
  const WaterSystem big = build_water_box(opts);
  expect_same_list(build_neighbor_list_brute(big, 1e-3), build_neighbor_list(big, 1e-3));
}

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
