// Water-system construction: the synthetic stand-in for the paper's
// 900-molecule GROMACS water dataset.
//
// Molecules are placed on a perturbed simple-cubic lattice at liquid-water
// density with uniformly random orientations and Maxwell-Boltzmann
// velocities; fully deterministic given a seed. This reproduces the
// statistic that drives every StreamMD measurement: the neighbor-count
// distribution at the cutoff radius.
#pragma once

#include <cstdint>
#include <vector>

#include "src/md/pbc.h"
#include "src/md/vec3.h"
#include "src/md/water.h"

namespace smd::md {

/// A box of rigid 3-site (SPC) water molecules.
/// Atom storage is molecule-major: atom index = 3*mol + site,
/// site 0 = O, 1 = H1, 2 = H2 (nine coordinates per molecule, as in the
/// paper's position array).
class WaterSystem {
 public:
  WaterSystem(Box box, const WaterModel& model, int n_molecules);

  const Box& box() const { return box_; }
  const WaterModel& model() const { return *model_; }
  int n_molecules() const { return n_molecules_; }
  int n_atoms() const { return 3 * n_molecules_; }

  Vec3& pos(int atom) { return pos_[atom]; }
  const Vec3& pos(int atom) const { return pos_[atom]; }
  Vec3& pos(int mol, int site) { return pos_[3 * mol + site]; }
  const Vec3& pos(int mol, int site) const { return pos_[3 * mol + site]; }

  Vec3& vel(int atom) { return vel_[atom]; }
  const Vec3& vel(int atom) const { return vel_[atom]; }

  const std::vector<Vec3>& positions() const { return pos_; }
  std::vector<Vec3>& positions() { return pos_; }
  const std::vector<Vec3>& velocities() const { return vel_; }
  std::vector<Vec3>& velocities() { return vel_; }

  /// Mass of a site in u.
  double site_mass(int site) const { return model_->sites[site].mass; }

  /// Reference position of the molecule (its oxygen).
  const Vec3& molecule_center(int mol) const { return pos(mol, 0); }

  /// Kinetic energy in kJ/mol.
  double kinetic_energy() const;

  /// Instantaneous temperature in K (3N-3 translational+rotational dof per
  /// rigid molecule handled approximately as 3*n_atoms - n_constraints).
  double temperature() const;

 private:
  Box box_;
  const WaterModel* model_;
  int n_molecules_;
  std::vector<Vec3> pos_;
  std::vector<Vec3> vel_;
};

/// Options for the synthetic water-box builder.
struct WaterBoxOptions {
  int n_molecules = 900;          ///< paper Table 2
  double number_density = 33.33;  ///< molecules / nm^3 (liquid water)
  double temperature_kelvin = 300.0;
  double lattice_jitter = 0.25;   ///< fraction of lattice spacing
  std::uint64_t seed = 42;
};

/// Build a cubic water box. The box edge is derived from n/density.
WaterSystem build_water_box(const WaterBoxOptions& opts = {});

}  // namespace smd::md
