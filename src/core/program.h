// Stream program construction for StreamMD.
//
// Mirrors the paper's pseudo-code (Section 3.1-3.2), strip-mined per
// Figure 5:
//
//   for each strip:
//     c_positions = gather(positions, i_central[strip]);
//     n_positions = gather(positions, i_neighbor[strip]);
//     partial_forces = compute_force(c_positions, n_positions);
//     forces = scatter_add(partial_forces, i_forces[strip]);
//
// The index streams themselves are loaded from memory (they are
// scalar-side data passed "through memory"), the gathers/scatters run on
// the hardware address generators, and the reduction uses the scatter-add
// units. The stream controller overlaps consecutive strips' memory
// operations with kernel execution.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/kernels.h"
#include "src/core/layouts.h"
#include "src/md/system.h"
#include "src/mem/memsys.h"
#include "src/sim/streamop.h"

namespace smd::core {

/// The scalar-side memory image: shared positions and the force output
/// array (plus one trash row absorbing dummy contributions).
struct ProblemImage {
  std::uint64_t pos_base = 0;    ///< (n+2) x 9 words
  std::uint64_t force_base = 0;  ///< (n+1) x 9 words
  int n_molecules = 0;

  std::uint64_t trash_row() const {
    return static_cast<std::uint64_t>(n_molecules);
  }
};

/// Upload positions (plus the two dummy records) and allocate the force
/// array in the machine's global memory.
ProblemImage upload_system(mem::GlobalMemory& mem, const md::WaterSystem& sys);

/// Build the strip-mined stream program for a variant.
///
/// `energy_base`: when non-zero (expanded variant with the energy kernel,
/// whose 6th stream is a 2-word [coulomb, lj] record per interaction), the
/// per-interaction energies are stored to that array.
sim::StreamProgram build_program(mem::GlobalMemory& mem,
                                 const ProblemImage& image,
                                 const VariantLayout& layout,
                                 const kernel::KernelDef& kernel_def,
                                 std::uint64_t energy_base = 0);

/// Read the per-atom forces back from the machine's memory.
std::vector<md::Vec3> read_forces(const mem::GlobalMemory& mem,
                                  const ProblemImage& image);

}  // namespace smd::core
