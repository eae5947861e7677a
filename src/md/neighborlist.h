// Molecule-level neighbor lists with a cutoff, as used by the GROMACS
// water-water inner loops: once a *molecule pair* is within the (oxygen-
// oxygen) cutoff it enters the list and all 9 atom-atom interactions are
// computed unconditionally. The list is a half list (each pair stored once,
// on the lower-indexed molecule) in CSR form, with the minimum-image shift
// vector stored per entry -- the quantity the stream layouts expand into
// the interaction records.
#pragma once

#include <cstdint>
#include <vector>

#include "src/md/system.h"
#include "src/md/vec3.h"

namespace smd::md {

/// CSR half neighbor list over molecules.
struct NeighborList {
  double cutoff = 0.0;
  /// offsets.size() == n_molecules + 1; neighbors of molecule i are
  /// neighbors[offsets[i] .. offsets[i+1]).
  std::vector<std::int32_t> offsets;
  std::vector<std::int32_t> neighbors;
  /// Shift to add to the neighbor's coordinates so it is the minimum image
  /// relative to the central molecule; parallel to `neighbors`.
  std::vector<Vec3> shifts;

  std::int64_t n_pairs() const {
    return static_cast<std::int64_t>(neighbors.size());
  }
  int n_molecules() const {
    return static_cast<int>(offsets.size()) - 1;
  }
  std::int32_t degree(int mol) const {
    return offsets[static_cast<std::size_t>(mol) + 1] -
           offsets[static_cast<std::size_t>(mol)];
  }
  /// Mean neighbor count.
  double mean_degree() const;
};

/// O(N^2) reference builder (ground truth for tests).
NeighborList build_neighbor_list_brute(const WaterSystem& sys, double cutoff);

/// Cell-list builder, O(N) for liquid densities, bit for bit the
/// brute-force builder's list: the same rows in the same (ascending)
/// order, the same shifts. Wrapped centers are binned into cells at least
/// cutoff/2 wide (at most about one cell per molecule) and a half 5x5x5
/// stencil is walked with one periodic shift per cell pair; a pair whose
/// squared distance lies within a rounding band of cutoff^2 is decided by
/// the brute-force test. Boxes under 5 such cells per side, where a large
/// share of all pairs lies within the cutoff, are built by
/// build_neighbor_list_brute itself.
NeighborList build_neighbor_list(const WaterSystem& sys, double cutoff);

}  // namespace smd::md
