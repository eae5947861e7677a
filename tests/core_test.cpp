#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/analysis/verify_ir.h"
#include "src/core/blocking.h"
#include "src/core/kernels.h"
#include "src/core/layouts.h"
#include "src/core/program.h"
#include "src/core/run.h"
#include "src/md/force_ref.h"
#include "src/md/neighborlist.h"
#include "src/md/system.h"

namespace smd::core {
namespace {

/// A small but fully-featured problem (hundreds of pairs, multiple strips
/// forced by a small SRF) used by the end-to-end tests.
const Problem& small_problem() {
  static const Problem p = [] {
    ExperimentSetup setup;
    setup.n_molecules = 125;
    setup.cutoff = 0.7;
    return Problem::make(setup);
  }();
  return p;
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

TEST(Kernels, AllVariantsBuildAndValidate) {
  for (Variant v : {Variant::kExpanded, Variant::kFixed, Variant::kVariable,
                    Variant::kDuplicated}) {
    const kernel::KernelDef def = build_water_kernel(v, md::spc());
    EXPECT_EQ(analysis::verify_kernel(def).errors(), 0) << variant_name(v);
    EXPECT_GT(def.n_regs, 0);
  }
}

TEST(Kernels, InteractionFlopCensusMatchesPaperShape) {
  const kernel::FlopCensus c = interaction_flops(md::spc());
  // Paper: ~234 flops including 9 divides and 9 square roots.
  EXPECT_EQ(c.divides, 9);
  EXPECT_EQ(c.square_roots, 9);
  EXPECT_GE(c.flops, 180);
  EXPECT_LE(c.flops, 260);
  // A model sets only the values of the kernel's constants, never its
  // instructions, so Problem::make counts the census once per process.
  for (const md::WaterModel* m : {&md::tip5p(), &md::ppc()}) {
    EXPECT_EQ(kernel::to_json(interaction_flops(*m)).dump(),
              kernel::to_json(c).dump())
        << m->name;
  }
  EXPECT_EQ(small_problem().flops_per_interaction,
            static_cast<double>(c.flops));
}

TEST(Kernels, DuplicatedIsCheaperPerIteration) {
  // duplicated skips the neighbor-force side entirely.
  const auto fixed = build_water_kernel(Variant::kFixed, md::spc());
  const auto dup = build_water_kernel(Variant::kDuplicated, md::spc());
  EXPECT_LT(dup.body_census().flops, fixed.body_census().flops);
  EXPECT_LT(dup.body_census().words_written, fixed.body_census().words_written);
}

TEST(Kernels, VariableUsesConditionalStreams) {
  const auto def = build_water_kernel(Variant::kVariable, md::spc());
  bool has_cond_in = false, has_cond_out = false;
  for (const auto& s : def.streams) {
    if (s.conditional && s.dir == kernel::StreamDir::kIn) has_cond_in = true;
    if (s.conditional && s.dir == kernel::StreamDir::kOut) has_cond_out = true;
  }
  EXPECT_TRUE(has_cond_in);
  EXPECT_TRUE(has_cond_out);
}

// ---------------------------------------------------------------------------
// Layouts
// ---------------------------------------------------------------------------

class LayoutInvariants : public ::testing::TestWithParam<Variant> {};

TEST_P(LayoutInvariants, CountsConsistent) {
  const Variant v = GetParam();
  const Problem& p = small_problem();
  LayoutOptions opts;
  const VariantLayout lay = build_layout(v, p.system, p.half_list, opts);

  EXPECT_EQ(lay.n_real_interactions, p.half_list.n_pairs());
  EXPECT_GE(lay.n_computed_interactions, lay.n_real_interactions *
                                             (v == Variant::kDuplicated ? 2 : 1));
  EXPECT_FALSE(lay.strips.empty());
  // Strips tile the rounds exactly.
  std::int64_t r = 0;
  for (const auto& s : lay.strips) {
    EXPECT_EQ(s.round_begin, r);
    EXPECT_GT(s.round_end, s.round_begin);
    r = s.round_end;
  }
  EXPECT_EQ(r, lay.rounds);
  // Slices cover the index arrays exactly.
  EXPECT_EQ(lay.strips.back().neighbor_end,
            static_cast<std::int64_t>(lay.neighbor_gather_idx.size()));
  EXPECT_EQ(lay.strips.back().fc_end,
            static_cast<std::int64_t>(lay.force_c_scatter_idx.size()));
}

TEST_P(LayoutInvariants, GatherIndicesInRange) {
  const Variant v = GetParam();
  const Problem& p = small_problem();
  const VariantLayout lay = build_layout(v, p.system, p.half_list, {});
  const auto n = static_cast<std::uint64_t>(p.system.n_molecules());
  for (auto idx : lay.neighbor_gather_idx) EXPECT_LE(idx, n + 1);
  for (auto idx : lay.force_c_scatter_idx) EXPECT_LE(idx, n);
  for (auto idx : lay.force_n_scatter_idx) EXPECT_LE(idx, n);
}

TEST_P(LayoutInvariants, EveryRealPairAppearsOnce) {
  // Multiset of (min,max) molecule pairs reconstructed from the layout
  // must equal the half list (duplicated: twice).
  const Variant v = GetParam();
  const Problem& p = small_problem();
  const VariantLayout lay = build_layout(v, p.system, p.half_list, {});
  const auto n = static_cast<std::uint64_t>(p.system.n_molecules());

  std::map<std::pair<int, int>, int> seen;
  if (v == Variant::kExpanded) {
    for (std::size_t k = 0; k < lay.neighbor_gather_idx.size(); ++k) {
      const auto c = lay.central_gather_idx[k];
      const auto nb = lay.neighbor_gather_idx[k];
      if (c >= n || nb >= n) continue;  // padding
      ++seen[{static_cast<int>(std::min(c, nb)), static_cast<int>(std::max(c, nb))}];
    }
  } else {
    // Reconstruct block membership from the scatter streams: pair each
    // neighbor slot with its block's central via force_n order -- for the
    // fixed-like variants the slot order is deterministic; for variable we
    // use the neighbor/fc reconstruction below instead.
    if (v == Variant::kVariable) {
      GTEST_SKIP() << "covered by the end-to-end force validation";
    }
    const int L = kFixedListLength, C = 16;
    const std::int64_t blocks =
        static_cast<std::int64_t>(lay.force_c_scatter_idx.size());
    for (std::int64_t b = 0; b < blocks; ++b) {
      const auto central = lay.force_c_scatter_idx[static_cast<std::size_t>(b)];
      if (central >= n) continue;
      const std::int64_t r = b / C, c = b % C;
      for (int l = 0; l < L; ++l) {
        const std::int64_t slot = (r * L + l) * C + c;
        const auto nb = lay.neighbor_gather_idx[static_cast<std::size_t>(slot)];
        if (nb >= n) continue;
        ++seen[{static_cast<int>(std::min<std::uint64_t>(central, nb)),
                static_cast<int>(std::max<std::uint64_t>(central, nb))}];
      }
    }
  }
  const int expect = v == Variant::kDuplicated ? 2 : 1;
  std::int64_t total = 0;
  for (const auto& [pair, count] : seen) {
    EXPECT_EQ(count, expect) << pair.first << "," << pair.second;
    total += count;
  }
  EXPECT_EQ(total, p.half_list.n_pairs() * expect);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, LayoutInvariants,
                         ::testing::Values(Variant::kExpanded, Variant::kFixed,
                                           Variant::kVariable,
                                           Variant::kDuplicated));

TEST(Layouts, FullListDoublesPairs) {
  const Problem& p = small_problem();
  const md::NeighborList full = make_full_list(p.half_list);
  EXPECT_EQ(full.n_pairs(), 2 * p.half_list.n_pairs());
  // Symmetric: j in row i <=> i in row j.
  for (int i = 0; i < full.n_molecules(); ++i) {
    for (std::int32_t k = full.offsets[i]; k < full.offsets[i + 1]; ++k) {
      const std::int32_t j = full.neighbors[k];
      bool found = false;
      for (std::int32_t k2 = full.offsets[j]; k2 < full.offsets[j + 1]; ++k2) {
        if (full.neighbors[k2] == i) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
}

/// make_full_list as it was built before its counting pass: per-row
/// vectors of (neighbor, shift), each sorted by neighbor.
md::NeighborList full_list_by_sorting(const md::NeighborList& half) {
  md::NeighborList full;
  full.cutoff = half.cutoff;
  const int n = half.n_molecules();
  std::vector<std::vector<std::pair<std::int32_t, md::Vec3>>> rows(
      static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (std::int32_t k = half.offsets[static_cast<std::size_t>(i)];
         k < half.offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int32_t j = half.neighbors[static_cast<std::size_t>(k)];
      const md::Vec3 s = half.shifts[static_cast<std::size_t>(k)];
      rows[static_cast<std::size_t>(i)].push_back({j, s});
      rows[static_cast<std::size_t>(j)].push_back({i, -s});
    }
  }
  full.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    auto& row = rows[static_cast<std::size_t>(i)];
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [j, s] : row) {
      full.neighbors.push_back(j);
      full.shifts.push_back(s);
    }
    full.offsets[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int32_t>(full.neighbors.size());
  }
  return full;
}

TEST(Layouts, FullListMatchesTheSortedConstruction) {
  // Shifts compare by bit pattern, so a 0.0 where the sorted construction
  // has -0.0 (the negation of a zero shift component) fails.
  for (const int n : {64, 900, 1800}) {
    md::WaterBoxOptions opts;
    opts.n_molecules = n;
    const md::WaterSystem sys = md::build_water_box(opts);
    const md::NeighborList half = md::build_neighbor_list(sys, 1.0);
    const md::NeighborList got = make_full_list(half);
    const md::NeighborList want = full_list_by_sorting(half);
    EXPECT_EQ(got.cutoff, want.cutoff);
    ASSERT_EQ(got.offsets, want.offsets) << n;
    ASSERT_EQ(got.neighbors, want.neighbors) << n;
    ASSERT_EQ(got.shifts.size(), want.shifts.size()) << n;
    std::int64_t negative_zeros = 0;
    for (std::size_t k = 0; k < want.shifts.size(); ++k) {
      const md::Vec3& a = got.shifts[k];
      const md::Vec3& b = want.shifts[k];
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.x), std::bit_cast<std::uint64_t>(b.x)) << n << " entry " << k;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.y), std::bit_cast<std::uint64_t>(b.y)) << n << " entry " << k;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.z), std::bit_cast<std::uint64_t>(b.z)) << n << " entry " << k;
      negative_zeros += std::signbit(b.x) && b.x == 0.0;
    }
    EXPECT_GT(negative_zeros, 0) << n;  // the -0.0 case is exercised
  }
}

TEST(Layouts, ShiftGroupsPartitionTheRow) {
  const Problem& p = small_problem();
  for (int mol = 0; mol < 20; ++mol) {
    const auto groups = group_by_shift(p.half_list, mol);
    std::int64_t total = 0;
    for (const auto& g : groups) total += static_cast<std::int64_t>(g.entries.size());
    EXPECT_EQ(total, p.half_list.degree(mol));
  }
}

TEST(Layouts, FixedPadsToListLength) {
  const Problem& p = small_problem();
  const VariantLayout lay = build_layout(Variant::kFixed, p.system, p.half_list, {});
  EXPECT_EQ(lay.n_neighbor_slots % kFixedListLength, 0);
  EXPECT_GE(lay.n_neighbor_slots, p.half_list.n_pairs());
}

TEST(Layouts, FixedListLengthBelowOneThrows) {
  const Problem& p = small_problem();
  for (const int L : {0, -3}) {
    LayoutOptions opts;
    opts.fixed_list_length = L;
    for (Variant v : {Variant::kFixed, Variant::kDuplicated}) {
      EXPECT_THROW(build_layout(v, p.system, p.half_list, opts),
                   std::invalid_argument)
          << variant_name(v) << " L=" << L;
    }
  }
}

/// Everything a layout hands the stream program, as text.
std::string layout_text(const VariantLayout& l) {
  std::ostringstream os;
  const auto words = [&os](const char* name, const auto& v) {
    os << name << ':';
    for (const auto w : v) {
      if constexpr (std::is_same_v<decltype(w), const double>) {
        os << ' ' << std::bit_cast<std::uint64_t>(w);  // exact bits
      } else {
        os << ' ' << w;
      }
    }
    os << '\n';
  };
  words("central_records", l.central_records);
  words("neighbor_gather_idx", l.neighbor_gather_idx);
  words("central_gather_idx", l.central_gather_idx);
  words("pbc_records", l.pbc_records);
  words("force_n_scatter_idx", l.force_n_scatter_idx);
  words("force_c_scatter_idx", l.force_c_scatter_idx);
  for (const StripSlice& s : l.strips) {
    os << "strip " << s.round_begin << ' ' << s.round_end << ' '
       << s.neighbor_begin << ' ' << s.neighbor_end << ' ' << s.central_begin
       << ' ' << s.central_end << ' ' << s.fc_begin << ' ' << s.fc_end << '\n';
  }
  os << "counts " << l.central_record_words << ' ' << l.rounds << ' '
     << l.n_real_interactions << ' ' << l.n_computed_interactions << ' '
     << l.n_central_blocks << ' ' << l.n_neighbor_slots << '\n';
  return os.str();
}

/// Every instruction and stream declaration of a kernel, as text.
std::string kernel_text(const kernel::KernelDef& k) {
  std::ostringstream os;
  os << k.name << ' ' << k.n_regs << ' ' << k.block_len << '\n';
  for (const kernel::StreamDecl& d : k.streams) {
    os << d.name << ' ' << static_cast<int>(d.dir) << ' ' << d.record_words
       << ' ' << d.conditional << '\n';
  }
  for (const auto* section : {&k.prologue, &k.outer_pre, &k.body, &k.outer_post}) {
    os << "section\n";
    for (const kernel::Instr& in : *section) {
      os << kernel::opcode_name(in.op) << ' ' << in.dst << ' ' << in.a << ' '
         << in.b << ' ' << in.c << ' ' << in.stream << ' ' << in.count << ' '
         << std::bit_cast<std::uint64_t>(in.imm) << '\n';
    }
  }
  return os.str();
}

// The rule tune::run_hash shares simulations by: a variant whose layout and
// kernel do not read L builds the same streams and instructions at every
// L. Fails the day a variant starts reading L without the rule knowing.
TEST(Layouts, OnlyFixedLikeVariantsReadTheListLength) {
  const Problem& p = small_problem();
  for (Variant v : {Variant::kExpanded, Variant::kFixed, Variant::kVariable,
                    Variant::kDuplicated}) {
    LayoutOptions at4;
    at4.fixed_list_length = 4;
    LayoutOptions at12;
    at12.fixed_list_length = 12;
    const bool same_layout =
        layout_text(build_layout(v, p.system, p.half_list, at4)) ==
        layout_text(build_layout(v, p.system, p.half_list, at12));
    const bool same_kernel =
        kernel_text(build_water_kernel(v, p.system.model(), 4)) ==
        kernel_text(build_water_kernel(v, p.system.model(), 12));
    EXPECT_EQ(same_layout, !reads_fixed_list_length(v)) << variant_name(v);
    EXPECT_EQ(same_kernel, !reads_fixed_list_length(v)) << variant_name(v);
  }
}

/// The paper's full-scale dataset (900 molecules, r_c = 1 nm, mean degree
/// ~70). Layout construction is scalar-side and cheap; only used by tests
/// that need the paper's density regime.
const Problem& paper_problem() {
  static const Problem p = Problem::make({});
  return p;
}

TEST(Layouts, ArithmeticIntensityOrderingOnPaperDataset) {
  // Paper Table 4: duplicated > variable > fixed > expanded. The ordering
  // of fixed vs variable depends on the neighbor-count distribution (a
  // variable central amortizes over a whole shift group, a fixed one over
  // L=8), so it must be checked at the paper's density regime.
  const Problem& p = paper_problem();
  const double f = p.flops_per_interaction;
  const double ai_exp =
      build_layout(Variant::kExpanded, p.system, p.half_list, {}).arithmetic_intensity(f);
  const double ai_fix =
      build_layout(Variant::kFixed, p.system, p.half_list, {}).arithmetic_intensity(f);
  const double ai_var =
      build_layout(Variant::kVariable, p.system, p.half_list, {}).arithmetic_intensity(f);
  const double ai_dup =
      build_layout(Variant::kDuplicated, p.system, p.half_list, {}).arithmetic_intensity(f);
  EXPECT_LT(ai_exp, ai_fix);
  EXPECT_LT(ai_fix, ai_var);
  EXPECT_LT(ai_var, ai_dup);
}

// ---------------------------------------------------------------------------
// End-to-end: simulate each variant and validate forces.
// ---------------------------------------------------------------------------

class EndToEnd : public ::testing::TestWithParam<Variant> {};

TEST_P(EndToEnd, ForcesMatchReference) {
  const Variant v = GetParam();
  const Problem& p = small_problem();
  const VariantResult res = run_variant(p, v);
  EXPECT_LT(res.max_force_rel_err, 1e-9) << variant_name(v);
  EXPECT_GT(res.run.cycles, 0u);
  EXPECT_GT(res.solution_gflops, 0.0);
  EXPECT_GT(res.run.n_kernel_launches, 0);
}

TEST_P(EndToEnd, DeterministicAcrossRuns) {
  const Variant v = GetParam();
  const Problem& p = small_problem();
  const VariantResult a = run_variant(p, v);
  const VariantResult b = run_variant(p, v);
  EXPECT_EQ(a.run.cycles, b.run.cycles);
  EXPECT_EQ(a.mem_refs, b.mem_refs);
  EXPECT_DOUBLE_EQ(a.solution_gflops, b.solution_gflops);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, EndToEnd,
                         ::testing::Values(Variant::kExpanded, Variant::kFixed,
                                           Variant::kVariable,
                                           Variant::kDuplicated));

TEST(EndToEnd, BoxWithoutPairsReadsZeroRatesNotNan) {
  // One molecule has no neighbour within the cutoff: the run simulates 0
  // cycles and moves 0 words, and every rate over them reads 0.
  ExperimentSetup setup;
  setup.n_molecules = 1;
  const Problem p = Problem::make(setup);
  for (const Variant v : kAllVariants) {
    const VariantResult r = run_variant(p, v);
    EXPECT_EQ(r.n_real_interactions, 0) << variant_name(v);
    for (const double x :
         {r.time_ms, r.solution_gflops, r.all_gflops, r.ai_calculated,
          r.ai_measured, r.lrf_fraction, r.srf_fraction, r.mem_fraction,
          r.kernel_cycles_per_iteration, r.kernel_issue_rate,
          r.max_force_rel_err}) {
      EXPECT_TRUE(std::isfinite(x)) << variant_name(v);
    }
  }
}

TEST(EndToEnd, LocalityDominatedByLrf) {
  // Figure 8: ~90%+ of references hit the LRF in every variant.
  const Problem& p = small_problem();
  for (Variant v : {Variant::kExpanded, Variant::kVariable}) {
    const VariantResult res = run_variant(p, v);
    EXPECT_GT(res.lrf_fraction, 0.80) << variant_name(v);
    EXPECT_NEAR(res.lrf_fraction + res.srf_fraction + res.mem_fraction, 1.0, 1e-9);
  }
}

TEST(EndToEnd, MemoryTrafficAndAiShapes) {
  const Problem& p = small_problem();
  const auto results = run_all_variants(p);
  std::map<Variant, const VariantResult*> by;
  for (const auto& r : results) by[r.variant] = &r;
  // expanded is by far the most traffic-hungry; fixed improves on it;
  // variable improves further (no dummy words).
  EXPECT_GT(by[Variant::kExpanded]->mem_refs, by[Variant::kFixed]->mem_refs);
  EXPECT_GT(by[Variant::kFixed]->mem_refs, by[Variant::kVariable]->mem_refs);
  // duplicated trades total traffic for arithmetic intensity: it has the
  // highest measured AI and the highest raw (all-ops) execution rate, even
  // though its absolute word count exceeds variable's.
  for (const auto& r : results) {
    if (r.variant == Variant::kDuplicated) continue;
    EXPECT_GT(by[Variant::kDuplicated]->ai_measured, r.ai_measured) << r.name;
  }
}

// ---------------------------------------------------------------------------
// Blocking model
// ---------------------------------------------------------------------------

TEST(Blocking, KernelRisesMemoryFalls) {
  BlockingModelParams params;
  params.variable_kernel_cycles = 1e6;
  params.variable_memory_cycles = 2e6;
  const BlockingModel model(params);
  const auto pts = model.sweep(0.5, 5.0, 10);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].kernel_rel, pts[i - 1].kernel_rel);
    EXPECT_LT(pts[i].memory_rel, pts[i - 1].memory_rel);
  }
}

TEST(Blocking, MemoryBoundWorkloadHasInteriorMinimum) {
  BlockingModelParams params;
  params.variable_kernel_cycles = 1e6;
  params.variable_memory_cycles = 2e6;  // memory bound, like the paper
  const BlockingModel model(params);
  const BlockingPoint min = model.minimum();
  EXPECT_LT(min.time_rel, 1.0);   // blocking helps
  EXPECT_GT(min.size, 0.5);       // interior minimum
  EXPECT_LT(min.size, 6.0);
}

TEST(Blocking, RejectsNonPositiveSize) {
  const BlockingModel model(BlockingModelParams{});
  EXPECT_THROW(model.at(0.0), std::runtime_error);
}

}  // namespace
}  // namespace smd::core
