#include "src/core/blocking.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "src/core/kernels.h"
#include "src/kernel/schedule.h"

namespace smd::core {
namespace {

/// The cell of each molecule when the box is cut into cells_per_dim^3
/// cubes, binned by wrapped center: (cx * cells_per_dim + cy) *
/// cells_per_dim + cz.
std::vector<std::size_t> molecule_cells(const md::WaterSystem& sys,
                                        int cells_per_dim) {
  const double s = sys.box().length.x / cells_per_dim;
  std::vector<std::size_t> cells(static_cast<std::size_t>(sys.n_molecules()));
  for (int m = 0; m < sys.n_molecules(); ++m) {
    const md::Vec3 w = sys.box().wrap(sys.molecule_center(m));
    const int cx = std::min(cells_per_dim - 1, static_cast<int>(w.x / s));
    const int cy = std::min(cells_per_dim - 1, static_cast<int>(w.y / s));
    const int cz = std::min(cells_per_dim - 1, static_cast<int>(w.z / s));
    cells[static_cast<std::size_t>(m)] = static_cast<std::size_t>(
        (cx * cells_per_dim + cy) * cells_per_dim + cz);
  }
  return cells;
}

}  // namespace

BlockingPoint BlockingModel::at(double size) const {
  if (size <= 0.0) throw std::runtime_error("cluster size must be positive");
  BlockingPoint pt;
  pt.size = size;
  pt.molecules = size * size * size;

  // Physical cluster edge (nm): a size-1 cluster holds one molecule.
  const double a0 = std::cbrt(1.0 / p_.number_density);
  const double s = size * a0;
  const double rc = p_.cutoff;

  // Volume actually interacted with: the cutoff sphere padded by the
  // paving granularity (molecules between r_c and r_c + overhead*s).
  const double vc = 4.0 / 3.0 * M_PI * rc * rc * rc;
  const double reff = rc + p_.pave_overhead * s;
  const double veff = 4.0 / 3.0 * M_PI * reff * reff * reff;

  // Kernel work scales with the number of computed pairs.
  pt.kernel_rel = veff / vc;

  // Memory per molecule: neighborhood positions amortized over the s^3
  // cluster, plus the molecule's own position and force record.
  const double words_per_molecule =
      p_.words_per_position * veff / (s * s * s) +
      (p_.words_per_position + p_.words_per_force);
  const double words_per_interaction =
      words_per_molecule / p_.interactions_per_molecule;
  pt.memory_rel = words_per_interaction / p_.variable_words_per_interaction;

  // Run time: memory overlaps computation (Figure 5), so time is the max
  // of the two busy totals, normalized to the variable scheme's.
  const double t_var =
      std::max(p_.variable_kernel_cycles, p_.variable_memory_cycles);
  const double t_blk = std::max(p_.variable_kernel_cycles * pt.kernel_rel,
                                p_.variable_memory_cycles * pt.memory_rel);
  pt.time_rel = t_blk / t_var;
  if (!std::isfinite(pt.molecules) || !std::isfinite(pt.kernel_rel) ||
      !std::isfinite(pt.memory_rel) || !std::isfinite(pt.time_rel)) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "cluster size %g gives a non-finite model value", size);
    throw std::invalid_argument(msg);
  }
  return pt;
}

std::vector<BlockingPoint> BlockingModel::sweep(double lo, double hi, int n) const {
  std::vector<BlockingPoint> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(n - 1);
    pts.push_back(at(x));
  }
  return pts;
}

BlockingPoint BlockingModel::minimum(double lo, double hi, int n) const {
  BlockingPoint best;
  best.time_rel = 1e300;
  for (const auto& pt : sweep(lo, hi, n)) {
    if (pt.time_rel < best.time_rel) best = pt;
  }
  return best;
}

BlockedImplProfile profile_blocked_implementation(
    const md::WaterSystem& sys, const md::NeighborList& half_list,
    double cutoff, int cells_per_dim, const sim::MachineConfig& cfg,
    double mem_words_per_cycle) {
  if (cells_per_dim < 1) throw std::runtime_error("cells_per_dim < 1");
  const int n_clusters = cfg.n_clusters;
  BlockedImplProfile p;
  p.cells_per_dim = cells_per_dim;
  const double edge = sys.box().length.x;
  const double s = edge / cells_per_dim;
  p.cell_edge = s;
  const double rho = sys.n_molecules() / sys.box().volume();
  p.normalized_size = s / std::cbrt(1.0 / rho);

  // ---- Bin molecules by wrapped oxygen position. --------------------------
  const int n_cells = cells_per_dim * cells_per_dim * cells_per_dim;
  std::vector<int> occupancy(static_cast<std::size_t>(n_cells), 0);
  for (const std::size_t cell : molecule_cells(sys, cells_per_dim)) {
    ++occupancy[cell];
  }
  p.avg_occupancy = static_cast<double>(sys.n_molecules()) / n_cells;
  p.max_occupancy = *std::max_element(occupancy.begin(), occupancy.end());

  // ---- Paving: image offsets whose cube-to-cube minimum distance <= r_c.
  // For axis-aligned equal cubes, the per-axis gap is (|d|-1)*s for |d|>=1.
  const int reach = static_cast<int>(std::ceil(cutoff / s)) + 1;
  int k = 0;
  for (int dx = -reach; dx <= reach; ++dx) {
    for (int dy = -reach; dy <= reach; ++dy) {
      for (int dz = -reach; dz <= reach; ++dz) {
        auto gap = [&](int d) {
          return d == 0 ? 0.0 : (std::abs(d) - 1) * s;
        };
        const double g2 = gap(dx) * gap(dx) + gap(dy) * gap(dy) + gap(dz) * gap(dz);
        if (g2 <= cutoff * cutoff) ++k;
      }
    }
  }
  p.paving_cells = k;

  // ---- Work accounting. ----------------------------------------------------
  std::int64_t groups = 0;
  for (int occ : occupancy) groups += (occ + n_clusters - 1) / n_clusters;
  p.central_groups = groups;
  const std::int64_t slots_per_group =
      static_cast<std::int64_t>(k) * p.max_occupancy;  // body iterations
  p.computed_pairs = groups * slots_per_group * n_clusters;
  p.real_pairs = 2 * half_list.n_pairs();  // both directions
  p.compute_inflation = static_cast<double>(p.computed_pairs) /
                        static_cast<double>(std::max<std::int64_t>(p.real_pairs, 1));

  // Memory: central records once per group member, broadcast neighbor
  // records once per (group, paved cell, slot), forces once per member.
  const double central_words = static_cast<double>(groups) * n_clusters * 10;
  const double neighbor_words = static_cast<double>(groups) *
                                static_cast<double>(slots_per_group) * 13;
  const double force_words = static_cast<double>(groups) * n_clusters * 10;
  p.words_total = central_words + neighbor_words + force_words;
  p.words_per_real_pair =
      p.words_total / static_cast<double>(std::max<std::int64_t>(p.real_pairs, 1));

  // Kernel cost from a real schedule of the blocked kernel body.
  const kernel::KernelDef def = build_blocked_kernel(
      sys.model(), cutoff, static_cast<int>(std::min<std::int64_t>(
                               slots_per_group, 1 << 20)));
  const kernel::Schedule schedule = kernel::schedule_body(def, cfg.sched);
  p.cycles_per_computed_pair = schedule.cycles_per_iteration();
  p.est_kernel_cycles = static_cast<double>(p.computed_pairs) / n_clusters *
                        p.cycles_per_computed_pair;
  p.est_memory_cycles = p.words_total / mem_words_per_cycle;
  return p;
}

analysis::ScatterAssignment BlockingScheme::to_scatter_assignment(
    std::uint64_t force_base) const {
  analysis::ScatterAssignment a;
  a.name = name;
  a.n_rows = n_molecules + 1;  // + trash row
  a.trash_row = trash_row();
  a.combining = combining;
  a.base = force_base;
  a.record_words = 9;
  a.block_rows = block_rows;
  return a;
}

BlockingScheme build_blocking_scheme(const md::WaterSystem& sys,
                                     int cells_per_dim, int n_clusters) {
  if (cells_per_dim < 1) throw std::runtime_error("cells_per_dim < 1");
  if (n_clusters < 1) throw std::runtime_error("n_clusters < 1");
  BlockingScheme scheme;
  scheme.name = "blocked_c" + std::to_string(cells_per_dim);
  scheme.cells_per_dim = cells_per_dim;
  scheme.n_lanes = n_clusters;
  scheme.n_molecules = sys.n_molecules();

  // Bin molecules by wrapped center, as profile_blocked_implementation does.
  const int n_cells = cells_per_dim * cells_per_dim * cells_per_dim;
  std::vector<std::vector<std::int64_t>> members(
      static_cast<std::size_t>(n_cells));
  const std::vector<std::size_t> cells = molecule_cells(sys, cells_per_dim);
  for (std::size_t m = 0; m < cells.size(); ++m) {
    members[cells[m]].push_back(static_cast<std::int64_t>(m));
  }

  // Pack each cell's molecules into n_clusters-wide central groups; padding
  // lanes update the trash row.
  for (const auto& cell : members) {
    for (std::size_t first = 0; first < cell.size();
         first += static_cast<std::size_t>(n_clusters)) {
      std::vector<std::int64_t> lanes(static_cast<std::size_t>(n_clusters),
                                      scheme.trash_row());
      const std::size_t end =
          std::min(cell.size(), first + static_cast<std::size_t>(n_clusters));
      for (std::size_t k = first; k < end; ++k) lanes[k - first] = cell[k];
      scheme.block_rows.push_back(std::move(lanes));
    }
  }
  return scheme;
}

std::vector<int> builtin_blocking_cells() { return {2, 3, 4}; }

AnalyticEstimate estimate_variant_run(const md::WaterSystem& sys,
                                      const md::NeighborList& half_list,
                                      Variant variant,
                                      const LayoutOptions& lopts,
                                      const sim::MachineConfig& cfg) {
  const double mem_words_per_cycle = cfg.dram_words_per_cycle();
  if (mem_words_per_cycle <= 0.0) {
    throw std::runtime_error("DRAM words per cycle must be positive");
  }
  const VariantLayout layout = build_layout(variant, sys, half_list, lopts);
  const kernel::KernelDef def =
      build_water_kernel(variant, sys.model(), lopts.fixed_list_length);
  const kernel::Schedule schedule = kernel::schedule_body(def, cfg.sched);

  AnalyticEstimate e;
  e.kernel_cycles = schedule.cycles_per_iteration() *
                    static_cast<double>(layout.rounds) *
                    static_cast<double>(def.block_len);
  e.mem_words = static_cast<double>(layout.memory_words());
  e.memory_cycles = e.mem_words / mem_words_per_cycle;
  e.time_cycles = static_cast<double>(cfg.kernel_startup_cycles) *
                      static_cast<double>(layout.strips.size()) +
                  std::max(e.kernel_cycles, e.memory_cycles);
  return e;
}

std::vector<bool> prune_dominated(const std::vector<AnalyticEstimate>& est,
                                  double slack) {
  std::vector<bool> keep(est.size(), true);
  if (slack <= 1.0) return keep;
  for (std::size_t i = 0; i < est.size(); ++i) {
    for (std::size_t j = 0; j < est.size(); ++j) {
      if (i == j) continue;
      if (est[j].time_cycles * slack <= est[i].time_cycles &&
          est[j].mem_words * slack <= est[i].mem_words) {
        keep[i] = false;
        break;
      }
    }
  }
  return keep;
}

}  // namespace smd::core
