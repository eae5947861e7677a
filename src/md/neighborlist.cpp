#include "src/md/neighborlist.h"

#include <algorithm>
#include <cmath>

namespace smd::md {

double NeighborList::mean_degree() const {
  if (n_molecules() == 0) return 0.0;
  return static_cast<double>(n_pairs()) / n_molecules();
}

NeighborList build_neighbor_list_brute(const WaterSystem& sys, double cutoff) {
  const int n = sys.n_molecules();
  const double rc2 = cutoff * cutoff;
  NeighborList list;
  list.cutoff = cutoff;
  list.offsets.assign(static_cast<std::size_t>(n) + 1, 0);

  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const Vec3 d =
          sys.box().min_image(sys.molecule_center(i), sys.molecule_center(j));
      if (d.norm2() <= rc2) {
        list.neighbors.push_back(j);
        list.shifts.push_back(
            sys.box().min_image_shift(sys.molecule_center(i), sys.molecule_center(j)));
        ++list.offsets[static_cast<std::size_t>(i) + 1];
      }
    }
  }
  for (int i = 0; i < n; ++i) list.offsets[static_cast<std::size_t>(i) + 1] += list.offsets[static_cast<std::size_t>(i)];
  return list;
}

namespace {

struct CellGrid {
  int nx, ny, nz;
  std::vector<std::vector<std::int32_t>> cells;

  int index(int cx, int cy, int cz) const {
    return (cx * ny + cy) * nz + cz;
  }
};

CellGrid bin_molecules(const WaterSystem& sys, double cutoff) {
  CellGrid g;
  const Box& box = sys.box();
  g.nx = std::max(1, static_cast<int>(box.length.x / cutoff));
  g.ny = std::max(1, static_cast<int>(box.length.y / cutoff));
  g.nz = std::max(1, static_cast<int>(box.length.z / cutoff));
  g.cells.resize(static_cast<std::size_t>(g.nx) * g.ny * g.nz);
  for (int m = 0; m < sys.n_molecules(); ++m) {
    const Vec3 p = box.wrap(sys.molecule_center(m));
    int cx = std::min(g.nx - 1, static_cast<int>(p.x / box.length.x * g.nx));
    int cy = std::min(g.ny - 1, static_cast<int>(p.y / box.length.y * g.ny));
    int cz = std::min(g.nz - 1, static_cast<int>(p.z / box.length.z * g.nz));
    g.cells[static_cast<std::size_t>(g.index(cx, cy, cz))].push_back(m);
  }
  return g;
}

}  // namespace

NeighborList build_neighbor_list(const WaterSystem& sys, double cutoff) {
  const Box& box = sys.box();
  // The 27-cell stencil is only complete when at least 3 cells fit per
  // dimension; otherwise fall back to the exact quadratic builder.
  if (box.length.x < 3 * cutoff || box.length.y < 3 * cutoff ||
      box.length.z < 3 * cutoff) {
    return build_neighbor_list_brute(sys, cutoff);
  }

  const CellGrid grid = bin_molecules(sys, cutoff);
  const double rc2 = cutoff * cutoff;
  const int n = sys.n_molecules();

  std::vector<std::vector<std::int32_t>> rows(static_cast<std::size_t>(n));
  for (int cx = 0; cx < grid.nx; ++cx) {
    for (int cy = 0; cy < grid.ny; ++cy) {
      for (int cz = 0; cz < grid.nz; ++cz) {
        const auto& home = grid.cells[static_cast<std::size_t>(grid.index(cx, cy, cz))];
        if (home.empty()) continue;
        for (int dx = -1; dx <= 1; ++dx) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dz = -1; dz <= 1; ++dz) {
              const int ox = (cx + dx + grid.nx) % grid.nx;
              const int oy = (cy + dy + grid.ny) % grid.ny;
              const int oz = (cz + dz + grid.nz) % grid.nz;
              const auto& other =
                  grid.cells[static_cast<std::size_t>(grid.index(ox, oy, oz))];
              for (std::int32_t i : home) {
                for (std::int32_t j : other) {
                  if (j <= i) continue;
                  const Vec3 d = box.min_image(sys.molecule_center(i),
                                               sys.molecule_center(j));
                  if (d.norm2() <= rc2) rows[static_cast<std::size_t>(i)].push_back(j);
                }
              }
            }
          }
        }
      }
    }
  }

  NeighborList list;
  list.cutoff = cutoff;
  list.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    auto& row = rows[static_cast<std::size_t>(i)];
    std::sort(row.begin(), row.end());
    // A molecule can be reached through two different cell images only if
    // the box is barely 3 cells wide; dedupe to stay exact.
    row.erase(std::unique(row.begin(), row.end()), row.end());
    for (std::int32_t j : row) {
      list.neighbors.push_back(j);
      list.shifts.push_back(
          box.min_image_shift(sys.molecule_center(i), sys.molecule_center(j)));
    }
    list.offsets[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int32_t>(list.neighbors.size());
  }
  return list;
}

}  // namespace smd::md
