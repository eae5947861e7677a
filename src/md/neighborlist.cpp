#include "src/md/neighborlist.h"

#include <algorithm>
#include <array>
#include <cfloat>
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

/// A listed molecule pair, i < j.
struct Pair {
  std::int32_t i, j;
};

/// The accept test of the cell walk. The walk measures r2 between wrapped
/// centers under the image its cell pair applies; for a pair within
/// reach of the cutoff that differs from the brute-force builder's
/// min_image(...).norm2() on the original centers by rounding only, at
/// most `band`. So r2 decides a pair only outside [rc2 - band, rc2 + band];
/// inside, the brute-force test does.
class PairTest {
 public:
  /// `tol` bounds the rounding error of one coordinate difference.
  PairTest(const WaterSystem& sys, double cutoff, double tol)
      : sys_(sys), rc2_(cutoff * cutoff) {
    const double band =
        1e-9 * rc2_ + 8.0 * tol * (std::fabs(cutoff) + tol);
    lo_ = rc2_ - band;
    hi_ = rc2_ + band;
  }

  /// Whether pair (i, j), i < j, is listed, given its cheap r2. Both band
  /// bounds are read before the one (rarely taken) branch, so the common
  /// case compiles to a compare, not to a branch on the outcome.
  bool listed(double r2, int i, int j) const {
    if ((r2 >= lo_) & (r2 <= hi_)) {
      return sys_.box()
                 .min_image(sys_.molecule_center(i), sys_.molecule_center(j))
                 .norm2() <= rc2_;
    }
    return r2 < lo_;
  }

 private:
  const WaterSystem& sys_;
  double rc2_;
  double lo_ = 0.0;
  double hi_ = 0.0;
};

/// Molecules binned by wrapped center (each center wrapped once), in CSR
/// form: cell c holds slots start[c] .. start[c+1], ascending molecule
/// index within a cell.
struct Grid {
  std::array<int, 3> n{};  ///< cells per side
  std::vector<std::int32_t> start;
  std::vector<std::int32_t> mol;  ///< molecule of each slot
  std::vector<Vec3> pos;          ///< wrapped center of each slot

  int index(int cx, int cy, int cz) const { return (cx * n[1] + cy) * n[2] + cz; }
};

Grid bin_molecules(const WaterSystem& sys, const std::array<int, 3>& n) {
  const Box& box = sys.box();
  std::vector<Vec3> w(static_cast<std::size_t>(sys.n_molecules()));
  for (std::size_t m = 0; m < w.size(); ++m) {
    w[m] = box.wrap(sys.molecule_center(static_cast<int>(m)));
  }
  Grid g;
  g.n = n;
  const double inv[3] = {n[0] / box.length.x, n[1] / box.length.y,
                         n[2] / box.length.z};
  // A wrapped coordinate may round to exactly L (or a hair below 0):
  // clamp it into the edge cell.
  auto cell_of = [&](double x, int d) {
    return std::clamp(static_cast<int>(x * inv[d]), 0, n[static_cast<std::size_t>(d)] - 1);
  };
  const auto n_mol = w.size();
  std::vector<std::int32_t> cell(n_mol);
  g.start.assign(static_cast<std::size_t>(n[0]) * n[1] * n[2] + 1, 0);
  for (std::size_t m = 0; m < n_mol; ++m) {
    cell[m] = g.index(cell_of(w[m].x, 0), cell_of(w[m].y, 1), cell_of(w[m].z, 2));
    ++g.start[static_cast<std::size_t>(cell[m]) + 1];
  }
  for (std::size_t c = 1; c < g.start.size(); ++c) g.start[c] += g.start[c - 1];
  std::vector<std::int32_t> next(g.start.begin(), g.start.end() - 1);
  g.mol.resize(n_mol);
  g.pos.resize(n_mol);
  for (std::size_t m = 0; m < n_mol; ++m) {
    const auto slot = static_cast<std::size_t>(next[static_cast<std::size_t>(cell[m])]++);
    g.mol[slot] = static_cast<std::int32_t>(m);
    g.pos[slot] = w[m];
  }
  return g;
}

/// The half of the 5x5x5 stencil after the home cell in (dx, dy, dz)
/// order: each unordered pair of cells at most two apart per axis is met
/// once, from the cell it sorts before.
std::vector<std::array<int, 3>> half_stencil() {
  std::vector<std::array<int, 3>> s;
  for (int dx = -2; dx <= 2; ++dx) {
    for (int dy = -2; dy <= 2; ++dy) {
      for (int dz = -2; dz <= 2; ++dz) {
        if (dx > 0 || (dx == 0 && (dy > 0 || (dy == 0 && dz > 0)))) {
          s.push_back({dx, dy, dz});
        }
      }
    }
  }
  return s;
}

/// Cell `c` of a side of `n` cells, one box length `len` away at most:
/// the cell it lands in, with the shift that carries that cell onto it.
int image_cell(int c, int n, double len, double& shift) {
  if (c < 0) {
    shift = -len;
    return c + n;
  }
  if (c >= n) {
    shift = len;
    return c - n;
  }
  shift = 0.0;
  return c;
}

/// Every pair within reach of the grid's half stencil. With at least 5
/// cells per side and cells at least half a cutoff wide (plus rounding),
/// a pair within the cutoff sits at most two cells apart per axis, in
/// exactly one (home, image) cell pair, and the image that cell pair
/// applies is its minimum image.
std::vector<Pair> grid_pairs(const Grid& g, const Box& box, const PairTest& test,
                             std::size_t expected_pairs) {
  // Each candidate is written at pairs[found] and kept by advancing
  // `found`, so keeping a pair is not a branch.
  std::vector<Pair> pairs;
  pairs.reserve(expected_pairs);
  std::size_t found = 0;
  // Slots [hb, he) against [ob, oe), the latter seen through `shift`;
  // within one cell, each pair of slots once. Slots of one cell hold
  // ascending molecules, so there a < b means i < j.
  auto walk = [&](std::size_t hb, std::size_t he, std::size_t ob,
                  std::size_t oe, const Vec3& shift, bool same_cell) {
    if (pairs.size() < found + (he - hb) * (oe - ob)) {
      pairs.resize(found + (he - hb) * (oe - ob));
    }
    const Vec3* pos = g.pos.data();
    const std::int32_t* mol = g.mol.data();
    Pair* out = pairs.data();
    std::size_t kept = found;
    for (std::size_t a = hb; a < he; ++a) {
      const Vec3 p = pos[a] - shift;
      const std::int32_t ma = mol[a];
      for (std::size_t b = same_cell ? a + 1 : ob; b < oe; ++b) {
        const Pair pair{std::min(ma, mol[b]), std::max(ma, mol[b])};
        out[kept] = pair;
        kept += test.listed((p - pos[b]).norm2(), pair.i, pair.j) ? 1 : 0;
      }
    }
    found = kept;
  };
  const std::vector<std::array<int, 3>> stencil = half_stencil();
  const Vec3& len = box.length;
  for (int cx = 0; cx < g.n[0]; ++cx) {
    for (int cy = 0; cy < g.n[1]; ++cy) {
      for (int cz = 0; cz < g.n[2]; ++cz) {
        const auto home = static_cast<std::size_t>(g.index(cx, cy, cz));
        const auto hb = static_cast<std::size_t>(g.start[home]);
        const auto he = static_cast<std::size_t>(g.start[home + 1]);
        if (hb == he) continue;
        walk(hb, he, hb, he, Vec3{}, true);
        for (const auto& [dx, dy, dz] : stencil) {
          // One periodic shift per (home, image) cell pair: the image of
          // a slot's center in the neighbor cell is pos + shift.
          Vec3 shift;
          const int ox = image_cell(cx + dx, g.n[0], len.x, shift.x);
          const int oy = image_cell(cy + dy, g.n[1], len.y, shift.y);
          const int oz = image_cell(cz + dz, g.n[2], len.z, shift.z);
          const auto other = static_cast<std::size_t>(g.index(ox, oy, oz));
          walk(hb, he, static_cast<std::size_t>(g.start[other]),
               static_cast<std::size_t>(g.start[other + 1]), shift, false);
        }
      }
    }
  }
  pairs.resize(found);
  return pairs;
}

/// CSR rows from pairs found in any order, each pair once, without a sort:
/// a stable counting pass by neighbor j, then one by molecule i, leave
/// every row ascending. Shifts come from Box::min_image_shift of the
/// original centers, as in the brute-force builder.
NeighborList emit_rows(const WaterSystem& sys, const std::vector<Pair>& pairs,
                       double cutoff) {
  const auto n = static_cast<std::size_t>(sys.n_molecules());
  // By neighbor: the i of every pair, grouped by j. Group j is
  // lower[by_j[j] .. by_j[j+1]).
  std::vector<std::int32_t> by_j(n + 1, 0);
  for (const Pair& p : pairs) ++by_j[static_cast<std::size_t>(p.j) + 1];
  for (std::size_t m = 1; m <= n; ++m) by_j[m] += by_j[m - 1];
  std::vector<std::int32_t> next(by_j.begin(), by_j.end() - 1);
  std::vector<std::int32_t> lower(pairs.size());
  for (const Pair& p : pairs) {
    lower[static_cast<std::size_t>(next[static_cast<std::size_t>(p.j)]++)] = p.i;
  }

  // By molecule: walking the groups in ascending j appends j to row i.
  NeighborList list;
  list.cutoff = cutoff;
  list.offsets.assign(n + 1, 0);
  for (const Pair& p : pairs) ++list.offsets[static_cast<std::size_t>(p.i) + 1];
  for (std::size_t m = 1; m <= n; ++m) list.offsets[m] += list.offsets[m - 1];
  std::copy(list.offsets.begin(), list.offsets.end() - 1, next.begin());
  list.neighbors.resize(pairs.size());
  for (std::size_t j = 0; j < n; ++j) {
    for (auto k = static_cast<std::size_t>(by_j[j]); k < static_cast<std::size_t>(by_j[j + 1]); ++k) {
      list.neighbors[static_cast<std::size_t>(next[static_cast<std::size_t>(lower[k])]++)] =
          static_cast<std::int32_t>(j);
    }
  }

  list.shifts.reserve(list.neighbors.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3& ci = sys.molecule_center(static_cast<int>(i));
    for (auto k = static_cast<std::size_t>(list.offsets[i]);
         k < static_cast<std::size_t>(list.offsets[i + 1]); ++k) {
      list.shifts.push_back(
          sys.box().min_image_shift(ci, sys.molecule_center(list.neighbors[k])));
    }
  }
  return list;
}

}  // namespace

NeighborList build_neighbor_list(const WaterSystem& sys, double cutoff) {
  const int n = sys.n_molecules();
  const Box& box = sys.box();
  const Vec3& len = box.length;

  // Bound the rounding error of a coordinate difference by the largest
  // magnitude in play.
  double extent = std::max({len.x, len.y, len.z});
  bool finite = std::isfinite(len.x + len.y + len.z);
  for (int m = 0; m < n; ++m) {
    const Vec3& c = sys.molecule_center(m);
    finite = finite && std::isfinite(c.x + c.y + c.z);
    extent = std::max({extent, std::fabs(c.x), std::fabs(c.y), std::fabs(c.z)});
  }
  const double tol = 16.0 * DBL_EPSILON * extent;

  // Cells at least half a cutoff (plus rounding) wide, and no more cells
  // than molecules. The half stencil needs 5 cells per side. Smaller
  // boxes, where a large share of all pairs lies within the cutoff, and
  // degenerate input (a coordinate or box edge that is not finite or not
  // positive) take the brute-force builder.
  const double pitch = std::max(0.5 * std::fabs(cutoff) + tol,
                                std::cbrt(box.volume() / n));
  const double cells[3] = {std::floor(len.x / pitch), std::floor(len.y / pitch),
                           std::floor(len.z / pitch)};
  if (!finite || !(cells[0] >= 5 && cells[1] >= 5 && cells[2] >= 5)) {
    return build_neighbor_list_brute(sys, cutoff);
  }
  const Grid grid = bin_molecules(
      sys, {static_cast<int>(cells[0]), static_cast<int>(cells[1]),
            static_cast<int>(cells[2])});
  // Pairs at a uniform density, plus a margin: enough to walk without
  // regrowing the buffer for liquid-like input.
  const double expected = 0.6 * n * (n / box.volume()) * (4.0 / 3.0) * M_PI *
                          std::pow(std::fabs(cutoff), 3);
  return emit_rows(sys,
                   grid_pairs(grid, box, PairTest(sys, cutoff, tol),
                              static_cast<std::size_t>(std::min(expected, 0.5 * n * n))),
                   cutoff);
}

}  // namespace smd::md
