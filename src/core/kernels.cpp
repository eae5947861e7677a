#include "src/core/kernels.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "src/kernel/schedule.h"
#include "src/md/constants.h"

namespace smd::core {
namespace {

using kernel::KernelBuilder;
using kernel::Section;
using Reg = KernelBuilder::Reg;

/// Constants shared by every variant's kernel, emitted into the prologue
/// (Merrimac preloads immediates through the microcode store).
struct Consts {
  Reg zero, one;
  Reg six, twelve;
  Reg c6, c12;
  std::array<std::array<Reg, 3>, 3> qq;  ///< ke * q_a * q_b per site pair
};

Consts emit_consts(KernelBuilder& kb, const md::WaterModel& model) {
  Consts c;
  kb.section(Section::kPrologue);
  c.zero = kb.constant(0.0);
  c.one = kb.constant(1.0);
  c.six = kb.constant(6.0);
  c.twelve = kb.constant(12.0);
  c.c6 = kb.constant(model.c6);
  c.c12 = kb.constant(model.c12);
  // Three distinct products (OO, OH, HH); reuse registers for symmetry.
  const double qo = model.sites[0].charge;
  const double qh = model.sites[1].charge;
  const Reg oo = kb.constant(md::kCoulombFactor * qo * qo);
  const Reg oh = kb.constant(md::kCoulombFactor * qo * qh);
  const Reg hh = kb.constant(md::kCoulombFactor * qh * qh);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      const bool ao = a == 0, bo = b == 0;
      c.qq[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          (ao && bo) ? oo : ((ao || bo) ? oh : hh);
    }
  }
  return c;
}

struct PairSums {
  std::array<Reg, 9> central;   ///< force on the central molecule's atoms
  std::array<Reg, 9> neighbor;  ///< force on the neighbor (negated sums)
  Reg e_coulomb{-1};            ///< pair Coulomb energy (if requested)
  Reg e_lj{-1};                 ///< pair Lennard-Jones energy (if requested)
};

/// Emit the 9-atom-pair interaction between central coordinates c[0..8]
/// and neighbor coordinates n[0..8]. Computes central-side force sums
/// always; neighbor-side sums only when `want_neighbor` (the `duplicated`
/// variant skips them entirely -- that is its flop/bandwidth trade);
/// Equation-1 energies only when `want_energy`.
PairSums emit_interaction(KernelBuilder& kb, const Consts& k,
                          const std::array<Reg, 9>& c,
                          const std::array<Reg, 9>& n, bool want_neighbor,
                          bool want_energy = false) {
  PairSums out;
  Reg e_c{-1}, e_lj{-1};
  bool e_c_init = false;
  std::array<std::array<Reg, 3>, 3> csum{};  // [a][xyz]
  std::array<std::array<Reg, 3>, 3> nsum{};  // [b][xyz]
  std::array<std::array<bool, 3>, 3> cinit{};
  std::array<std::array<bool, 3>, 3> ninit{};

  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      const auto ca = [&](int d) { return c[static_cast<std::size_t>(3 * a + d)]; };
      const auto nb = [&](int d) { return n[static_cast<std::size_t>(3 * b + d)]; };
      const Reg dx = kb.sub(ca(0), nb(0));
      const Reg dy = kb.sub(ca(1), nb(1));
      const Reg dz = kb.sub(ca(2), nb(2));
      const Reg r2 = kb.madd(dz, dz, kb.madd(dy, dy, kb.mul(dx, dx)));
      const Reg rinv = kb.rsqrt(r2);
      const Reg rinv2 = kb.mul(rinv, rinv);
      const Reg vc = kb.mul(
          k.qq[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)], rinv);
      Reg fs = kb.mul(vc, rinv2);
      if (want_energy) {
        e_c = e_c_init ? kb.add(e_c, vc) : vc;
        e_c_init = true;
      }
      if (a == 0 && b == 0) {
        const Reg rinv6 = kb.mul(rinv2, kb.mul(rinv2, rinv2));
        const Reg c6t = kb.mul(k.c6, rinv6);
        const Reg c12t = kb.mul(k.c12, kb.mul(rinv6, rinv6));
        const Reg lj = kb.msub(k.twelve, c12t, kb.mul(k.six, c6t));
        fs = kb.madd(lj, rinv2, fs);
        if (want_energy) e_lj = kb.sub(c12t, c6t);
      }
      const Reg f[3] = {kb.mul(fs, dx), kb.mul(fs, dy), kb.mul(fs, dz)};
      for (int d = 0; d < 3; ++d) {
        auto& cs = csum[static_cast<std::size_t>(a)][static_cast<std::size_t>(d)];
        cs = cinit[static_cast<std::size_t>(a)][static_cast<std::size_t>(d)]
                 ? kb.add(cs, f[d])
                 : f[d];
        cinit[static_cast<std::size_t>(a)][static_cast<std::size_t>(d)] = true;
        if (want_neighbor) {
          auto& ns = nsum[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)];
          ns = ninit[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)]
                   ? kb.add(ns, f[d])
                   : f[d];
          ninit[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)] = true;
        }
      }
    }
  }
  for (int a = 0; a < 3; ++a) {
    for (int d = 0; d < 3; ++d) {
      out.central[static_cast<std::size_t>(3 * a + d)] =
          csum[static_cast<std::size_t>(a)][static_cast<std::size_t>(d)];
      if (want_neighbor) {
        // Newton's third law: the neighbor gets the negated sum.
        out.neighbor[static_cast<std::size_t>(3 * a + d)] = kb.sub(
            k.zero, nsum[static_cast<std::size_t>(a)][static_cast<std::size_t>(d)]);
      }
    }
  }
  if (want_energy) {
    out.e_coulomb = e_c;
    out.e_lj = e_lj;
  }
  return out;
}

std::array<Reg, 9> read9(KernelBuilder& kb, int stream) {
  const auto v = kb.read(stream, 9);
  std::array<Reg, 9> a;
  for (int i = 0; i < 9; ++i) a[static_cast<std::size_t>(i)] = v[static_cast<std::size_t>(i)];
  return a;
}

/// Move scattered result registers into a fresh contiguous block for a
/// stream write (MOVs are handled by the cluster switch, no FPU slots).
Reg pack9(KernelBuilder& kb, const std::array<Reg, 9>& vals) {
  const auto block = kb.alloc_n(9);
  for (int i = 0; i < 9; ++i) kb.mov_to(block[static_cast<std::size_t>(i)], vals[static_cast<std::size_t>(i)]);
  return block[0];
}

kernel::KernelDef build_expanded_kernel(const md::WaterModel& model) {
  KernelBuilder kb("water_expanded");
  const int s_c = kb.stream_in("c_pos", kPosWords);
  const int s_n = kb.stream_in("n_pos", kPosWords);
  const int s_p = kb.stream_in("pbc", kPbcWords);
  const int s_fc = kb.stream_out("f_c", kForceWords);
  const int s_fn = kb.stream_out("f_n", kForceWords);
  const Consts k = emit_consts(kb, model);

  kb.section(Section::kBody);
  const auto c = read9(kb, s_c);
  const auto n_raw = read9(kb, s_n);
  const auto p = read9(kb, s_p);
  std::array<Reg, 9> n;
  for (int i = 0; i < 9; ++i) {
    n[static_cast<std::size_t>(i)] =
        kb.add(n_raw[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(i)]);
  }
  const PairSums sums = emit_interaction(kb, k, c, n, /*want_neighbor=*/true);
  kb.write(s_fc, pack9(kb, sums.central), 9);
  kb.write(s_fn, pack9(kb, sums.neighbor), 9);
  return kb.build();
}

/// See kernels.h: same math and stream interface as the expanded kernel,
/// written the way a first draft might be -- every inefficiency here is
/// one a verifier lint reports.
kernel::KernelDef build_naive_kernel(const md::WaterModel& model) {
  KernelBuilder kb("water_expanded_naive");
  const int s_c = kb.stream_in("c_pos", kPosWords);
  const int s_n = kb.stream_in("n_pos", kPosWords);
  const int s_p = kb.stream_in("pbc", kPbcWords);
  const int s_fc = kb.stream_out("f_c", kForceWords);
  const int s_fn = kb.stream_out("f_n", kForceWords);

  // Immediates "computed" at runtime (IR019). The products associate left
  // like emit_consts so the computed values match the tuned kernel's
  // constants bit-for-bit.
  kb.section(Section::kPrologue);
  Consts k;
  k.zero = kb.constant(0.0);
  k.one = kb.constant(1.0);  // never consumed (IR012)
  const Reg two = kb.constant(2.0);
  const Reg three = kb.constant(3.0);
  k.six = kb.mul(two, three);
  k.twelve = kb.mul(two, k.six);
  k.c6 = kb.constant(model.c6);
  k.c12 = kb.constant(model.c12);
  const Reg ke = kb.constant(md::kCoulombFactor);
  const Reg qo = kb.constant(model.sites[0].charge);
  const Reg qh = kb.constant(model.sites[1].charge);
  const Reg oo = kb.mul(kb.mul(ke, qo), qo);
  const Reg oh = kb.mul(kb.mul(ke, qo), qh);
  const Reg hh = kb.mul(kb.mul(ke, qh), qh);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      const bool ao = a == 0, bo = b == 0;
      k.qq[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          (ao && bo) ? oo : ((ao || bo) ? oh : hh);
    }
  }

  kb.section(Section::kBody);
  const auto c = read9(kb, s_c);
  const auto n_raw = read9(kb, s_n);
  const auto p = read9(kb, s_p);
  std::array<Reg, 9> n;
  for (int i = 0; i < 9; ++i) {
    n[static_cast<std::size_t>(i)] =
        kb.add(n_raw[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(i)]);
  }
  const PairSums sums = emit_interaction(kb, k, c, n, /*want_neighbor=*/true);

  // Recompute the O-O pair's distance vector and r^2 from scratch (IR018)
  // and fold them into an r^4 nobody reads (IR012).
  const Reg dx2 = kb.sub(c[0], n[0]);
  const Reg dy2 = kb.sub(c[1], n[1]);
  const Reg dz2 = kb.sub(c[2], n[2]);
  const Reg r2b = kb.madd(dz2, dz2, kb.madd(dy2, dy2, kb.mul(dx2, dx2)));
  const Reg waste = kb.mul(r2b, r2b);
  (void)waste;

  // Pack the force writes through a two-step copy chain (IR020; the tuned
  // pack9 moves each value once).
  const auto pack9_chained = [&](const std::array<Reg, 9>& vals) {
    std::array<Reg, 9> tmp;
    for (int i = 0; i < 9; ++i) {
      tmp[static_cast<std::size_t>(i)] = kb.mov(vals[static_cast<std::size_t>(i)]);
    }
    const auto block = kb.alloc_n(9);
    for (int i = 0; i < 9; ++i) {
      kb.mov_to(block[static_cast<std::size_t>(i)], tmp[static_cast<std::size_t>(i)]);
    }
    return block[0];
  };
  kb.write(s_fc, pack9_chained(sums.central), 9);
  kb.write(s_fn, pack9_chained(sums.neighbor), 9);
  return kb.build();
}

kernel::KernelDef build_fixed_like_kernel(const md::WaterModel& model,
                                          int L, bool want_neighbor,
                                          const char* name) {
  KernelBuilder kb(name);
  const int s_c = kb.stream_in("central", kPosWords);
  const int s_n = kb.stream_in("n_pos", kPosWords);
  const int s_fn = want_neighbor ? kb.stream_out("f_n", kForceWords) : -1;
  const int s_fc = kb.stream_out("f_c", kForceWords);
  const Consts k = emit_consts(kb, model);
  kb.block_len(L);

  // Stable registers: central coordinates and the force accumulator.
  const auto cblock = kb.alloc_n(9);
  const auto acc = kb.alloc_n(9);

  kb.section(Section::kOuterPre);
  kb.read_to(s_c, cblock[0], 9);
  for (int i = 0; i < 9; ++i) kb.mov_to(acc[static_cast<std::size_t>(i)], k.zero);

  kb.section(Section::kBody);
  std::array<Reg, 9> c;
  for (int i = 0; i < 9; ++i) c[static_cast<std::size_t>(i)] = cblock[static_cast<std::size_t>(i)];
  const auto n = read9(kb, s_n);
  const PairSums sums = emit_interaction(kb, k, c, n, want_neighbor);
  for (int i = 0; i < 9; ++i) {
    kb.add_to(acc[static_cast<std::size_t>(i)], acc[static_cast<std::size_t>(i)],
              sums.central[static_cast<std::size_t>(i)]);
  }
  if (want_neighbor) kb.write(s_fn, pack9(kb, sums.neighbor), 9);

  kb.section(Section::kOuterPost);
  kb.write(s_fc, acc[0], 9);
  return kb.build();
}

kernel::KernelDef build_variable_kernel(const md::WaterModel& model) {
  KernelBuilder kb("water_variable");
  const int s_c = kb.stream_in("central", kPosWords + 1, /*conditional=*/true);
  const int s_n = kb.stream_in("n_pos", kPosWords);
  const int s_fn = kb.stream_out("f_n", kForceWords);
  const int s_fc = kb.stream_out("f_c", kForceWords, /*conditional=*/true);
  const Consts k = emit_consts(kb, model);

  // Stable state: central record (9 pos + count), remaining counter,
  // force accumulator.
  const auto crec = kb.alloc_n(10);
  const auto acc = kb.alloc_n(9);
  const Reg rem = kb.alloc();

  kb.section(Section::kPrologue);
  kb.mov_to(rem, k.zero);

  kb.section(Section::kBody);
  // Pull a new central when the current one is exhausted. All clusters
  // issue the access every iteration (SIMD); only those whose predicate is
  // set consume a record -- Merrimac's conditional streams.
  const Reg need_new = kb.cmp_eq(rem, k.zero);
  kb.read_cond_to(s_c, crec[0], 10, need_new);
  kb.sel_to(rem, need_new, crec[9], rem);
  for (int i = 0; i < 9; ++i) {
    kb.sel_to(acc[static_cast<std::size_t>(i)], need_new, k.zero,
              acc[static_cast<std::size_t>(i)]);
  }

  std::array<Reg, 9> c;
  for (int i = 0; i < 9; ++i) c[static_cast<std::size_t>(i)] = crec[static_cast<std::size_t>(i)];
  const auto n = read9(kb, s_n);
  const PairSums sums = emit_interaction(kb, k, c, n, /*want_neighbor=*/true);
  for (int i = 0; i < 9; ++i) {
    kb.add_to(acc[static_cast<std::size_t>(i)], acc[static_cast<std::size_t>(i)],
              sums.central[static_cast<std::size_t>(i)]);
  }
  kb.write(s_fn, pack9(kb, sums.neighbor), 9);

  // Retire the central when its last neighbor has been processed.
  const Reg rem2 = kb.sub(rem, k.one);
  kb.mov_to(rem, rem2);
  const Reg done = kb.cmp_eq(rem2, k.zero);
  kb.write_cond(s_fc, acc[0], 9, done);
  (void)s_fn;
  return kb.build();
}

}  // namespace

kernel::KernelDef build_water_kernel(Variant variant,
                                     const md::WaterModel& model,
                                     int fixed_list_length) {
  switch (variant) {
    case Variant::kExpanded:
      return build_expanded_kernel(model);
    case Variant::kFixed:
      return build_fixed_like_kernel(model, fixed_list_length, true,
                                     "water_fixed");
    case Variant::kDuplicated:
      return build_fixed_like_kernel(model, fixed_list_length, false,
                                     "water_duplicated");
    case Variant::kVariable:
      return build_variable_kernel(model);
  }
  throw std::runtime_error("unknown variant");
}

kernel::KernelDef build_expanded_naive_kernel(const md::WaterModel& model) {
  return build_naive_kernel(model);
}

kernel::FlopCensus interaction_flops(const md::WaterModel& model) {
  return build_water_kernel(Variant::kExpanded, model).body_census();
}

kernel::KernelDef build_expanded_energy_kernel(const md::WaterModel& model) {
  KernelBuilder kb("water_expanded_energy");
  const int s_c = kb.stream_in("c_pos", kPosWords);
  const int s_n = kb.stream_in("n_pos", kPosWords);
  const int s_p = kb.stream_in("pbc", kPbcWords);
  const int s_fc = kb.stream_out("f_c", kForceWords);
  const int s_fn = kb.stream_out("f_n", kForceWords);
  const int s_e = kb.stream_out("energy", 2);
  const Consts k = emit_consts(kb, model);

  kb.section(Section::kBody);
  const auto c = read9(kb, s_c);
  const auto n_raw = read9(kb, s_n);
  const auto p = read9(kb, s_p);
  std::array<Reg, 9> n;
  for (int i = 0; i < 9; ++i) {
    n[static_cast<std::size_t>(i)] =
        kb.add(n_raw[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(i)]);
  }
  const PairSums sums = emit_interaction(kb, k, c, n, /*want_neighbor=*/true,
                                         /*want_energy=*/true);
  kb.write(s_fc, pack9(kb, sums.central), 9);
  kb.write(s_fn, pack9(kb, sums.neighbor), 9);
  const auto e_block = kb.alloc_n(2);
  kb.mov_to(e_block[0], sums.e_coulomb);
  kb.mov_to(e_block[1], sums.e_lj);
  kb.write(s_e, e_block[0], 2);
  return kb.build();
}

kernel::KernelDef build_multisite_kernel(const md::WaterModel& model) {
  const int S = static_cast<int>(model.sites.size());
  if (S < 1) throw std::runtime_error("model has no sites");
  KernelBuilder kb("water_" + model.name + "_multisite");
  const int s_c = kb.stream_in("c_pos", 3 * S);
  const int s_n = kb.stream_in("n_pos", 3 * S);
  const int s_sh = kb.stream_in("shift", 3);
  const int s_fc = kb.stream_out("f_c", 3 * S);
  const int s_fn = kb.stream_out("f_n", 3 * S);

  kb.section(Section::kPrologue);
  const Reg zero = kb.constant(0.0);
  const Reg six = kb.constant(6.0);
  const Reg twelve = kb.constant(12.0);
  const Reg c6 = kb.constant(model.c6);
  const Reg c12 = kb.constant(model.c12);
  // Distinct nonzero charge products only (symmetric pairs share a
  // register, like the SPC kernel's OO/OH/HH trio).
  std::vector<std::vector<Reg>> qq(static_cast<std::size_t>(S),
                                   std::vector<Reg>(static_cast<std::size_t>(S)));
  std::vector<std::pair<double, Reg>> pool;
  for (int a = 0; a < S; ++a) {
    for (int b = 0; b < S; ++b) {
      const double v = md::kCoulombFactor *
                       model.sites[static_cast<std::size_t>(a)].charge *
                       model.sites[static_cast<std::size_t>(b)].charge;
      if (v == 0.0) continue;
      Reg r{-1};
      for (const auto& [val, reg] : pool) {
        if (val == v) r = reg;
      }
      if (r.idx < 0) {
        r = kb.constant(v);
        pool.push_back({v, r});
      }
      qq[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = r;
    }
  }

  kb.section(Section::kBody);
  const auto c = kb.read(s_c, 3 * S);
  const auto n_raw = kb.read(s_n, 3 * S);
  const auto sh = kb.read(s_sh, 3);
  // Apply the minimum-image shift to the neighbor sites.
  std::vector<Reg> n(static_cast<std::size_t>(3 * S));
  for (int i = 0; i < 3 * S; ++i) {
    n[static_cast<std::size_t>(i)] =
        kb.add(n_raw[static_cast<std::size_t>(i)], sh[static_cast<std::size_t>(i % 3)]);
  }

  std::vector<Reg> csum(static_cast<std::size_t>(3 * S));
  std::vector<Reg> nsum(static_cast<std::size_t>(3 * S));
  std::vector<bool> cinit(static_cast<std::size_t>(3 * S), false);
  std::vector<bool> ninit(static_cast<std::size_t>(3 * S), false);
  int active_pairs = 0;

  for (int a = 0; a < S; ++a) {
    for (int b = 0; b < S; ++b) {
      const bool lj = (a == 0 && b == 0) && (model.c6 != 0.0 || model.c12 != 0.0);
      const bool coulomb =
          qq[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)].idx >= 0;
      if (!lj && !coulomb) continue;  // inert site pair: no work emitted
      ++active_pairs;
      const Reg dx = kb.sub(c[static_cast<std::size_t>(3 * a + 0)], n[static_cast<std::size_t>(3 * b + 0)]);
      const Reg dy = kb.sub(c[static_cast<std::size_t>(3 * a + 1)], n[static_cast<std::size_t>(3 * b + 1)]);
      const Reg dz = kb.sub(c[static_cast<std::size_t>(3 * a + 2)], n[static_cast<std::size_t>(3 * b + 2)]);
      const Reg r2 = kb.madd(dz, dz, kb.madd(dy, dy, kb.mul(dx, dx)));
      const Reg rinv = kb.rsqrt(r2);
      const Reg rinv2 = kb.mul(rinv, rinv);
      Reg fs = zero;
      if (coulomb) {
        fs = kb.mul(
            kb.mul(qq[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)], rinv),
            rinv2);
      }
      if (lj) {
        const Reg rinv6 = kb.mul(rinv2, kb.mul(rinv2, rinv2));
        const Reg c6t = kb.mul(c6, rinv6);
        const Reg c12t = kb.mul(c12, kb.mul(rinv6, rinv6));
        const Reg ljs = kb.msub(twelve, c12t, kb.mul(six, c6t));
        fs = coulomb ? kb.madd(ljs, rinv2, fs) : kb.mul(ljs, rinv2);
      }
      const Reg f[3] = {kb.mul(fs, dx), kb.mul(fs, dy), kb.mul(fs, dz)};
      for (int d = 0; d < 3; ++d) {
        auto& cs = csum[static_cast<std::size_t>(3 * a + d)];
        cs = cinit[static_cast<std::size_t>(3 * a + d)] ? kb.add(cs, f[d]) : f[d];
        cinit[static_cast<std::size_t>(3 * a + d)] = true;
        auto& ns = nsum[static_cast<std::size_t>(3 * b + d)];
        ns = ninit[static_cast<std::size_t>(3 * b + d)] ? kb.add(ns, f[d]) : f[d];
        ninit[static_cast<std::size_t>(3 * b + d)] = true;
      }
    }
  }
  (void)active_pairs;

  // Pack results (inert sites get exact zeros) and negate the neighbor sums.
  const auto fc_block = kb.alloc_n(3 * S);
  const auto fn_block = kb.alloc_n(3 * S);
  for (int i = 0; i < 3 * S; ++i) {
    if (cinit[static_cast<std::size_t>(i)]) {
      kb.mov_to(fc_block[static_cast<std::size_t>(i)], csum[static_cast<std::size_t>(i)]);
    } else {
      kb.mov_to(fc_block[static_cast<std::size_t>(i)], zero);
    }
    if (ninit[static_cast<std::size_t>(i)]) {
      kb.mov_to(fn_block[static_cast<std::size_t>(i)],
                kb.sub(zero, nsum[static_cast<std::size_t>(i)]));
    } else {
      kb.mov_to(fn_block[static_cast<std::size_t>(i)], zero);
    }
  }
  kb.write(s_fc, fc_block[0], 3 * S);
  kb.write(s_fn, fn_block[0], 3 * S);
  return kb.build();
}

kernel::KernelDef build_blocked_kernel(const md::WaterModel& model,
                                       double cutoff, int block_len) {
  KernelBuilder kb("water_blocked");
  const int s_c = kb.stream_in("central", kPosWords + 1);
  const int s_n = kb.stream_in("neighbor", kPosWords + 4);
  const int s_fc = kb.stream_out("f_c", kForceWords);
  const Consts k = emit_consts(kb, model);
  kb.section(Section::kPrologue);
  const Reg rc2 = kb.constant(cutoff * cutoff);
  kb.block_len(block_len);

  // Stable state: own central record and the force accumulator.
  const auto crec = kb.alloc_n(kPosWords + 1);  // 9 pos + id
  const auto acc = kb.alloc_n(9);

  kb.section(Section::kOuterPre);
  kb.read_to(s_c, crec[0], kPosWords + 1);
  for (int i = 0; i < 9; ++i) kb.mov_to(acc[static_cast<std::size_t>(i)], k.zero);

  kb.section(Section::kBody);
  // All clusters receive the same neighbor record (broadcast).
  const auto nrec = kb.alloc_n(kPosWords + 4);  // 9 pos + id + shift
  kb.read_bcast_to(s_n, nrec[0], kPosWords + 4);
  const Reg n_id = nrec[9];
  const Reg c_id = crec[9];

  // Validity: not a padding slot on either side, and not the self pair.
  Reg valid = kb.sel(kb.cmp_eq(c_id, n_id), k.zero, k.one);
  valid = kb.sel(kb.cmp_lt(c_id, k.zero), k.zero, valid);
  valid = kb.sel(kb.cmp_lt(n_id, k.zero), k.zero, valid);

  // Shifted neighbor positions (minimum image of the cell pair).
  std::array<Reg, 9> n;
  for (int i = 0; i < 9; ++i) {
    n[static_cast<std::size_t>(i)] =
        kb.add(nrec[static_cast<std::size_t>(i)],
               nrec[static_cast<std::size_t>(10 + i % 3)]);
  }

  // Interaction, central sums only, gated per atom pair by the cutoff --
  // the blocking scheme computes every paved pair and zeroes those beyond
  // r_c so the result matches the neighbor-list reference exactly.
  for (int a = 0; a < 3; ++a) {
    const auto ca = [&](int d) { return crec[static_cast<std::size_t>(3 * a + d)]; };
    for (int b = 0; b < 3; ++b) {
      const auto nb = [&](int d) { return n[static_cast<std::size_t>(3 * b + d)]; };
      const Reg dx = kb.sub(ca(0), nb(0));
      const Reg dy = kb.sub(ca(1), nb(1));
      const Reg dz = kb.sub(ca(2), nb(2));
      const Reg r2_raw = kb.madd(dz, dz, kb.madd(dy, dy, kb.mul(dx, dx)));
      // The self pair has r = 0; substitute a harmless distance so the
      // iterative rsqrt stays finite (its result is masked to zero anyway
      // -- an infinity would poison the masking multiply with NaN).
      const Reg r2 = kb.sel(valid, r2_raw, k.one);
      const Reg rinv = kb.rsqrt(r2);
      const Reg rinv2 = kb.mul(rinv, rinv);
      Reg fs = kb.mul(
          kb.mul(k.qq[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)], rinv),
          rinv2);
      if (a == 0 && b == 0) {
        const Reg rinv6 = kb.mul(rinv2, kb.mul(rinv2, rinv2));
        const Reg c6t = kb.mul(k.c6, rinv6);
        const Reg c12t = kb.mul(k.c12, kb.mul(rinv6, rinv6));
        const Reg lj = kb.msub(k.twelve, c12t, kb.mul(k.six, c6t));
        fs = kb.madd(lj, rinv2, fs);
      }
      // The cutoff is evaluated on the *molecule* (oxygen-oxygen) distance
      // in the list-based variants; the blocking scheme has no list, so it
      // gates per molecule pair on the O-O distance: compute it for the
      // (0,0) pair and reuse the predicate.
      if (a == 0 && b == 0) {
        const Reg incut = kb.cmp_lt(r2, rc2);
        kb.mov_to(valid, kb.mul(valid, incut));
      }
      fs = kb.mul(fs, valid);
      for (int d = 0; d < 3; ++d) {
        const Reg fd = kb.mul(fs, d == 0 ? dx : (d == 1 ? dy : dz));
        kb.add_to(acc[static_cast<std::size_t>(3 * a + d)],
                  acc[static_cast<std::size_t>(3 * a + d)], fd);
      }
    }
  }

  kb.section(Section::kOuterPost);
  kb.write(s_fc, acc[0], 9);
  return kb.build();
}

MultisiteProfile profile_multisite_kernel(const md::WaterModel& model,
                                          const sim::MachineConfig& cfg,
                                          double mem_words_per_cycle) {
  MultisiteProfile p;
  p.sites = static_cast<int>(model.sites.size());
  const kernel::KernelDef def = build_multisite_kernel(model);
  p.census = def.body_census();
  for (int a = 0; a < p.sites; ++a) {
    for (int b = 0; b < p.sites; ++b) {
      const bool lj = (a == 0 && b == 0);
      const double v = model.sites[static_cast<std::size_t>(a)].charge *
                       model.sites[static_cast<std::size_t>(b)].charge;
      if (lj || v != 0.0) ++p.active_pairs;
    }
  }
  // Memory words per interaction: gathered positions (+1 index word each),
  // 3-word shift, both force records (+1 scatter index each).
  const double s3 = 3.0 * p.sites;
  p.words_per_interaction = (s3 + 1) * 2 + 3 + (s3 + 1) * 2;
  p.arithmetic_intensity =
      static_cast<double>(p.census.flops) / p.words_per_interaction;

  const kernel::Schedule schedule = kernel::schedule_body(def, cfg.sched);
  p.cycles_per_interaction = schedule.cycles_per_iteration();

  const double compute_gflops = static_cast<double>(p.census.flops) *
                                cfg.n_clusters / p.cycles_per_interaction *
                                cfg.clock_ghz;
  const double bandwidth_gflops =
      p.arithmetic_intensity * mem_words_per_cycle * cfg.clock_ghz;
  p.projected_gflops = std::min(compute_gflops, bandwidth_gflops);
  return p;
}

}  // namespace smd::core
