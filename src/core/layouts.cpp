#include "src/core/layouts.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <string>

namespace smd::core {
namespace {

/// Positions of molecule `mol` shifted by `-shift` (pre-shifting the
/// central is equivalent to shifting the neighbor by +shift; GROMACS does
/// the same with its shift blocks).
void append_shifted_central(const md::WaterSystem& sys, int mol,
                            const md::Vec3& shift, std::vector<double>* out) {
  for (int s = 0; s < 3; ++s) {
    const md::Vec3 p = sys.pos(mol, s) - shift;
    out->push_back(p.x);
    out->push_back(p.y);
    out->push_back(p.z);
  }
}

void append_dummy_central(std::vector<double>* out) {
  // Far outside the box: interactions with the dummy neighbor (itself far
  // away in a different direction) underflow to zero force.
  for (int s = 0; s < 3; ++s) {
    out->push_back(2.0e6);
    out->push_back(0.1 * s);
    out->push_back(-1.0e6);
  }
}

/// Work unit: one central (molecule, shift-group) and its entries.
struct WorkUnit {
  int mol = -1;  ///< -1 = dummy
  md::Vec3 shift;
  std::vector<std::int32_t> entries;  ///< neighbor-list entry indices
};

std::vector<WorkUnit> make_work_units(const md::NeighborList& list) {
  std::vector<WorkUnit> units;
  for (int i = 0; i < list.n_molecules(); ++i) {
    for (auto& g : group_by_shift(list, i)) {
      WorkUnit u;
      u.mol = i;
      u.shift = g.shift;
      u.entries = std::move(g.entries);
      units.push_back(std::move(u));
    }
  }
  return units;
}

std::int64_t pick_strip_rounds(const LayoutOptions& opts,
                               std::int64_t words_per_round,
                               std::int64_t total_rounds) {
  std::int64_t strip = opts.strip_rounds;
  if (strip <= 0) {
    // Triple-buffering headroom: previous strip's outputs draining, the
    // current strip computing, the next strip's inputs arriving.
    strip = std::max<std::int64_t>(1, opts.srf_words / (3 * words_per_round));
  }
  return std::min(strip, std::max<std::int64_t>(total_rounds, 1));
}

VariantLayout build_expanded(const md::WaterSystem& sys,
                             const md::NeighborList& list,
                             const LayoutOptions& opts) {
  VariantLayout out;
  out.variant = Variant::kExpanded;
  const int n_mol = sys.n_molecules();
  const auto dummy_nbr = static_cast<std::uint64_t>(n_mol);
  const auto dummy_ctr = static_cast<std::uint64_t>(n_mol) + 1;
  const auto trash = static_cast<std::uint64_t>(n_mol);

  out.n_real_interactions = list.n_pairs();
  const int C = opts.n_clusters;
  const std::int64_t rounds = (list.n_pairs() + C - 1) / C;
  const std::int64_t total = rounds * C;

  out.central_gather_idx.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < list.n_molecules(); ++i) {
    for (std::int32_t k = list.offsets[static_cast<std::size_t>(i)];
         k < list.offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto j = static_cast<std::uint64_t>(
          list.neighbors[static_cast<std::size_t>(k)]);
      const md::Vec3 s = list.shifts[static_cast<std::size_t>(k)];
      out.central_gather_idx.push_back(static_cast<std::uint64_t>(i));
      out.neighbor_gather_idx.push_back(j);
      for (int a = 0; a < 3; ++a) {
        out.pbc_records.push_back(s.x);
        out.pbc_records.push_back(s.y);
        out.pbc_records.push_back(s.z);
      }
      out.force_c_scatter_idx.push_back(static_cast<std::uint64_t>(i));
      out.force_n_scatter_idx.push_back(j);
    }
  }
  // Pad the last round with dummy interactions.
  while (static_cast<std::int64_t>(out.neighbor_gather_idx.size()) < total) {
    out.central_gather_idx.push_back(dummy_ctr);
    out.neighbor_gather_idx.push_back(dummy_nbr);
    for (int w = 0; w < kPbcWords; ++w) out.pbc_records.push_back(0.0);
    out.force_c_scatter_idx.push_back(trash);
    out.force_n_scatter_idx.push_back(trash);
  }

  out.rounds = rounds;
  out.n_computed_interactions = total;
  out.n_central_blocks = total;  // every interaction re-reads its central
  out.n_neighbor_slots = total;

  // SRF words per round: 16 x (cpos 9 + npos 9 + pbc 9 + fc 9 + fn 9 +
  // 4 index words).
  const std::int64_t wpr = C * (3 * kPosWords + 2 * kForceWords + 4);
  const std::int64_t strip = pick_strip_rounds(opts, wpr, rounds);
  for (std::int64_t r = 0; r < rounds; r += strip) {
    StripSlice s;
    s.round_begin = r;
    s.round_end = std::min(rounds, r + strip);
    s.neighbor_begin = s.round_begin * C;
    s.neighbor_end = s.round_end * C;
    s.central_begin = s.neighbor_begin;
    s.central_end = s.neighbor_end;
    s.fc_begin = s.neighbor_begin;
    s.fc_end = s.neighbor_end;
    out.strips.push_back(s);
  }
  return out;
}

/// Shared builder for `fixed` and `duplicated`: fixed-length blocks of L,
/// centrals replicated per block, dummies padding short blocks, block
/// count padded to a multiple of n_clusters.
VariantLayout build_fixed_like(Variant variant, const md::WaterSystem& sys,
                               const md::NeighborList& list,
                               const LayoutOptions& opts) {
  VariantLayout out;
  out.variant = variant;
  const int n_mol = sys.n_molecules();
  const auto dummy_nbr = static_cast<std::uint64_t>(n_mol);
  const auto trash = static_cast<std::uint64_t>(n_mol);
  const int L = opts.fixed_list_length;
  if (L < 1) {
    // Blocks of L < 1 neighbors never cover a work unit.
    throw std::invalid_argument("fixed-list length L = " + std::to_string(L) +
                                " is below 1");
  }
  const int C = opts.n_clusters;
  const bool write_fn = (variant == Variant::kFixed);

  out.central_record_words = kPosWords;
  out.n_real_interactions =
      variant == Variant::kDuplicated ? list.n_pairs() / 2 : list.n_pairs();

  // Blocks in (central, shift-group) order.
  struct Block {
    const WorkUnit* unit;
    int first;  ///< first entry offset within the unit
    int count;
  };
  const std::vector<WorkUnit> units = make_work_units(list);
  std::vector<Block> blocks;
  for (const auto& u : units) {
    for (int f = 0; f < static_cast<int>(u.entries.size()); f += L) {
      blocks.push_back(
          {&u, f, std::min<int>(L, static_cast<int>(u.entries.size()) - f)});
    }
  }
  out.n_central_blocks = static_cast<std::int64_t>(blocks.size());
  const std::int64_t rounds =
      (static_cast<std::int64_t>(blocks.size()) + C - 1) / C;
  const std::int64_t padded_blocks = rounds * C;

  // Emit central records in (round, cluster) order == block order.
  for (std::int64_t b = 0; b < padded_blocks; ++b) {
    if (b < static_cast<std::int64_t>(blocks.size())) {
      const Block& blk = blocks[static_cast<std::size_t>(b)];
      append_shifted_central(sys, blk.unit->mol, blk.unit->shift,
                             &out.central_records);
      out.force_c_scatter_idx.push_back(
          static_cast<std::uint64_t>(blk.unit->mol));
    } else {
      append_dummy_central(&out.central_records);
      out.force_c_scatter_idx.push_back(trash);
    }
  }

  // Neighbor slots in (round, l, cluster) order.
  out.neighbor_gather_idx.assign(
      static_cast<std::size_t>(padded_blocks) * static_cast<std::size_t>(L),
      dummy_nbr);
  if (write_fn) {
    out.force_n_scatter_idx.assign(out.neighbor_gather_idx.size(), trash);
  }
  std::int64_t computed = 0;
  for (std::int64_t b = 0; b < static_cast<std::int64_t>(blocks.size()); ++b) {
    const Block& blk = blocks[static_cast<std::size_t>(b)];
    const std::int64_t r = b / C;
    const std::int64_t c = b % C;
    for (int l = 0; l < blk.count; ++l) {
      const std::int64_t slot = (r * L + l) * C + c;
      const std::int32_t entry = blk.unit->entries[static_cast<std::size_t>(blk.first + l)];
      const auto j = static_cast<std::uint64_t>(
          list.neighbors[static_cast<std::size_t>(entry)]);
      out.neighbor_gather_idx[static_cast<std::size_t>(slot)] = j;
      if (write_fn) out.force_n_scatter_idx[static_cast<std::size_t>(slot)] = j;
      ++computed;
    }
  }
  out.rounds = rounds;
  out.n_neighbor_slots = padded_blocks * L;
  out.n_computed_interactions = out.n_neighbor_slots;  // dummies computed too
  (void)computed;

  // SRF words per round: C x (central 9 + fc 9 + fc idx 1 +
  //                           L x (npos 9 + n idx 1 [+ fn 9 + fn idx 1])).
  const std::int64_t per_iter = kPosWords + 1 + (write_fn ? kForceWords + 1 : 0);
  const std::int64_t wpr = C * (kPosWords + kForceWords + 1 + L * per_iter);
  const std::int64_t strip = pick_strip_rounds(opts, wpr, rounds);
  for (std::int64_t r = 0; r < rounds; r += strip) {
    StripSlice s;
    s.round_begin = r;
    s.round_end = std::min(rounds, r + strip);
    s.neighbor_begin = s.round_begin * C * L;
    s.neighbor_end = s.round_end * C * L;
    s.central_begin = s.round_begin * C;
    s.central_end = s.round_end * C;
    s.fc_begin = s.central_begin;
    s.fc_end = s.central_end;
    out.strips.push_back(s);
  }
  return out;
}

VariantLayout build_variable(const md::WaterSystem& sys,
                             const md::NeighborList& list,
                             const LayoutOptions& opts) {
  VariantLayout out;
  out.variant = Variant::kVariable;
  const int n_mol = sys.n_molecules();
  const auto dummy_nbr = static_cast<std::uint64_t>(n_mol);
  const auto trash = static_cast<std::uint64_t>(n_mol);
  const int C = opts.n_clusters;

  out.central_record_words = kPosWords + 1;  // + neighbor count
  out.n_real_interactions = list.n_pairs();

  std::vector<WorkUnit> units = make_work_units(list);

  // Rough total iterations for strip sizing (refined by the simulation).
  std::int64_t total_work = 0;
  for (const auto& u : units) total_work += static_cast<std::int64_t>(u.entries.size());
  const std::int64_t t_estimate = (total_work + C - 1) / C;

  // Strip length in iterations. SRF words per iteration: C x (npos 9 +
  // n idx 1 + fn 9 + fn idx 1 + amortized central ~ (10 + fc 9 + 1)).
  const std::int64_t wpr = C * (kPosWords + 1 + kForceWords + 1 + 20);
  const std::int64_t strip_len = pick_strip_rounds(opts, wpr, t_estimate);

  // ---- Simulate the conditional-stream pull order, truncating blocks at
  // strip boundaries so a kernel invocation never needs loop-carried state
  // from the previous strip (the two partial central forces meet again in
  // the scatter-add). Clusters that run dry while others still have work
  // pull one-iteration dummy centrals, so the simulation self-terminates
  // exactly when the real work does.
  struct ClusterState {
    std::int64_t rem = 0;
    int mol = -1;  ///< current central (or -1 for dummies)
    std::vector<std::int32_t> entries;
    std::int64_t pos = 0;
  };
  std::deque<WorkUnit> queue(units.begin(), units.end());
  std::vector<ClusterState> cs(static_cast<std::size_t>(C));
  std::vector<std::int64_t> pull_cum;   // centrals pulled by end of iter t
  std::int64_t pulls = 0;

  auto work_left = [&] {
    if (!queue.empty()) return true;
    for (const auto& k : cs) {
      if (k.rem > 0) return true;
    }
    return false;
  };

  std::int64_t T = 0;
  for (std::int64_t t = 0; work_left(); ++t, ++T) {
    const std::int64_t to_boundary =
        strip_len - (t % strip_len);  // iterations left incl. this one
    for (int c = 0; c < C; ++c) {
      ClusterState& k = cs[static_cast<std::size_t>(c)];
      if (k.rem == 0) {
        // Pull the next unit, or a one-iteration dummy for a dry cluster.
        WorkUnit u;
        if (!queue.empty()) {
          u = std::move(queue.front());
          queue.pop_front();
        } else {
          u.mol = -1;
          u.entries.assign(1, -1);
        }
        // Truncate at the strip boundary; push the remainder back.
        if (static_cast<std::int64_t>(u.entries.size()) > to_boundary) {
          WorkUnit rest = u;
          rest.entries.assign(u.entries.begin() + static_cast<std::ptrdiff_t>(to_boundary),
                              u.entries.end());
          queue.push_front(std::move(rest));
          u.entries.resize(static_cast<std::size_t>(to_boundary));
        }
        // Emit the central record (pull order == stream order).
        if (u.mol >= 0) {
          append_shifted_central(sys, u.mol, u.shift, &out.central_records);
        } else {
          append_dummy_central(&out.central_records);
        }
        out.central_records.push_back(static_cast<double>(u.entries.size()));
        ++pulls;
        k.rem = static_cast<std::int64_t>(u.entries.size());
        k.mol = u.mol;
        k.entries = std::move(u.entries);
        k.pos = 0;
      }
      // Consume one neighbor.
      const std::int32_t entry = k.entries[static_cast<std::size_t>(k.pos++)];
      if (entry >= 0) {
        const auto j = static_cast<std::uint64_t>(
            list.neighbors[static_cast<std::size_t>(entry)]);
        out.neighbor_gather_idx.push_back(j);
        out.force_n_scatter_idx.push_back(j);
        ++out.n_computed_interactions;
      } else {
        out.neighbor_gather_idx.push_back(dummy_nbr);
        out.force_n_scatter_idx.push_back(trash);
        ++out.n_computed_interactions;
      }
      --k.rem;
      // The kernel writes the reduced central force the moment the last
      // neighbor is consumed, so the scatter-index stream must be in
      // *write* order, not pull order.
      if (k.rem == 0) {
        out.force_c_scatter_idx.push_back(
            k.mol >= 0 ? static_cast<std::uint64_t>(k.mol) : trash);
      }
    }
    pull_cum.push_back(pulls);
  }

  out.rounds = T;
  out.n_central_blocks = pulls;
  out.n_neighbor_slots = T * C;

  for (std::int64_t r = 0; r < T; r += strip_len) {
    StripSlice s;
    s.round_begin = r;
    s.round_end = std::min(T, r + strip_len);
    s.neighbor_begin = r * C;
    s.neighbor_end = s.round_end * C;
    s.central_begin = r == 0 ? 0 : pull_cum[static_cast<std::size_t>(r) - 1];
    s.central_end = pull_cum[static_cast<std::size_t>(s.round_end) - 1];
    // Every central pulled in a strip also retires in it (blocks are
    // truncated at boundaries), so force writes == pulls.
    s.fc_begin = s.central_begin;
    s.fc_end = s.central_end;
    out.strips.push_back(s);
  }
  return out;
}

}  // namespace

std::vector<ShiftGroup> group_by_shift(const md::NeighborList& list, int mol) {
  std::vector<ShiftGroup> groups;
  for (std::int32_t k = list.offsets[static_cast<std::size_t>(mol)];
       k < list.offsets[static_cast<std::size_t>(mol) + 1]; ++k) {
    const md::Vec3 s = list.shifts[static_cast<std::size_t>(k)];
    ShiftGroup* g = nullptr;
    for (auto& existing : groups) {
      if (existing.shift.x == s.x && existing.shift.y == s.y &&
          existing.shift.z == s.z) {
        g = &existing;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back({s, {}});
      g = &groups.back();
    }
    g->entries.push_back(k);
  }
  return groups;
}

md::NeighborList make_full_list(const md::NeighborList& half) {
  // Row r of the full list is {i, -s} for each half entry (i, r, s), then
  // row r of the half list. Walking the half list by ascending i fills
  // each row in that order, which is ascending when the half rows are
  // ascending with j > i: one counting pass, no per-row sort.
  md::NeighborList full;
  full.cutoff = half.cutoff;
  const auto n = static_cast<std::size_t>(half.n_molecules());
  full.offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    full.offsets[i + 1] += half.offsets[i + 1] - half.offsets[i];
    for (std::int32_t k = half.offsets[i]; k < half.offsets[i + 1]; ++k) {
      ++full.offsets[static_cast<std::size_t>(half.neighbors[static_cast<std::size_t>(k)]) + 1];
    }
  }
  for (std::size_t i = 1; i <= n; ++i) full.offsets[i] += full.offsets[i - 1];
  full.neighbors.resize(static_cast<std::size_t>(full.offsets[n]));
  full.shifts.resize(full.neighbors.size());
  std::vector<std::int32_t> next(full.offsets.begin(), full.offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::int32_t k = half.offsets[i]; k < half.offsets[i + 1]; ++k) {
      const std::int32_t j = half.neighbors[static_cast<std::size_t>(k)];
      const md::Vec3& s = half.shifts[static_cast<std::size_t>(k)];
      const auto at_i = static_cast<std::size_t>(next[i]++);
      full.neighbors[at_i] = j;
      full.shifts[at_i] = s;
      const auto at_j = static_cast<std::size_t>(next[static_cast<std::size_t>(j)]++);
      full.neighbors[at_j] = static_cast<std::int32_t>(i);
      full.shifts[at_j] = -s;
    }
  }
  return full;
}

std::int64_t VariantLayout::memory_words() const {
  std::int64_t words = 0;
  words += static_cast<std::int64_t>(central_records.size());
  words += static_cast<std::int64_t>(central_gather_idx.size()) * (1 + kPosWords);
  words += static_cast<std::int64_t>(neighbor_gather_idx.size()) * (1 + kPosWords);
  words += static_cast<std::int64_t>(pbc_records.size());
  words += static_cast<std::int64_t>(force_n_scatter_idx.size()) * (1 + kForceWords);
  words += static_cast<std::int64_t>(force_c_scatter_idx.size()) * (1 + kForceWords);
  return words;
}

double VariantLayout::arithmetic_intensity(double flops_per_interaction) const {
  const double flops =
      flops_per_interaction * static_cast<double>(n_computed_interactions);
  const std::int64_t words = memory_words();
  return words != 0 ? flops / static_cast<double>(words) : 0.0;
}

bool reads_fixed_list_length(Variant variant) {
  return variant == Variant::kFixed || variant == Variant::kDuplicated;
}

VariantLayout build_layout(Variant variant, const md::WaterSystem& sys,
                           const md::NeighborList& half_list,
                           const LayoutOptions& opts) {
  switch (variant) {
    case Variant::kExpanded:
      return build_expanded(sys, half_list, opts);
    case Variant::kFixed:
      return build_fixed_like(Variant::kFixed, sys, half_list, opts);
    case Variant::kDuplicated:
      return build_fixed_like(Variant::kDuplicated, sys,
                              make_full_list(half_list), opts);
    case Variant::kVariable:
      return build_variable(sys, half_list, opts);
  }
  throw std::runtime_error("unknown variant");
}

}  // namespace smd::core
