// Reference (ground-truth) water-water non-bonded force evaluation.
//
// This is the plain, obviously-correct C++ implementation of the GROMACS
// water-water inner loop (Equation 1 of the paper): for every molecule pair
// in the neighbor list, all 9 atom-atom Coulomb interactions plus the O-O
// Lennard-Jones term. Every StreamMD variant is validated against these
// forces. Solution flops for the GFLOPS accounting come from the kernel
// census instead (core::interaction_flops).
#pragma once

#include <cstdint>
#include <vector>

#include "src/md/neighborlist.h"
#include "src/md/system.h"
#include "src/md/vec3.h"

namespace smd::md {

/// Result of a force evaluation.
struct ForceEnergy {
  std::vector<Vec3> force;  ///< per atom, kJ mol^-1 nm^-1
  double e_coulomb = 0.0;   ///< kJ/mol
  double e_lj = 0.0;        ///< kJ/mol
  double virial = 0.0;      ///< sum r.F over pairs (for pressure)

  double e_potential() const { return e_coulomb + e_lj; }
};

/// Evaluate forces and energies over a half neighbor list.
ForceEnergy compute_forces_reference(const WaterSystem& sys,
                                     const NeighborList& list);

/// Force/energy contribution of a single molecule pair, accumulated into
/// f_central[0..2] and f_neighbor[0..2]. `shift` is added to the neighbor's
/// coordinates (minimum image). Returns {e_coulomb, e_lj}.
struct PairEnergy {
  double coulomb;
  double lj;
};
PairEnergy water_water_interaction(const WaterSystem& sys, int central,
                                   int neighbor, const Vec3& shift,
                                   Vec3 f_central[3], Vec3 f_neighbor[3]);

/// Maximum per-atom relative force error between two force sets.
double max_force_rel_err(const std::vector<Vec3>& a, const std::vector<Vec3>& b);

}  // namespace smd::md
