// Compiled-VM equivalence sweep: the hard gate behind kernel/vm.h.
//
// The VM backend is only allowed to exist because it is bit-identical to
// the reference interpreter in every observable way (DESIGN.md section
// 17, the same discipline section 10 applies to the simulation
// engines). This suite enforces that claim at
// three levels:
//
//   * functional -- every built-in kernel runs on randomized inputs under
//     both backends; every output word must match by bit pattern and
//     every InterpStats field must match exactly, and KernelBackend::
//     kLockstep (which re-runs both internally) must complete without
//     throwing.
//   * full simulation -- every Table-3 variant runs a complete
//     strip-mined water-box time-step under kernel_backend = kLockstep
//     AND as an explicit interp-vs-vm pair, under BOTH SDR policies; the
//     paired runs must agree on every field to_json(RunStats) emits plus
//     every timeline interval, and on the final memory image bit for bit.
//   * randomized programs -- 60 generated kernels exercising conditional
//     reads/writes, broadcast reads, multi-word records and all four
//     sections, swept through the same functional gate.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/kernels.h"
#include "src/core/program.h"
#include "src/core/run.h"
#include "src/core/streammd.h"
#include "src/kernel/interp.h"
#include "src/kernel/vm.h"
#include "src/md/water.h"
#include "src/sim/config.h"
#include "src/sim/machine.h"
#include "src/util/rng.h"

namespace smd {
namespace {

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr int kClusters = 4;
constexpr std::int64_t kRounds = 3;

/// Run `def` on deterministic randomized inputs under the interpreter,
/// the VM, and lockstep; outputs must match by bit pattern, stats
/// by every to_json field, and lockstep must not throw.
void expect_vm_bit_identical(const kernel::KernelDef& def,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  // Generous sizing: every section of every cluster could take every
  // conditional access on every iteration.
  const std::int64_t accesses = kRounds * (def.block_len + 2) * kClusters;
  std::vector<std::vector<double>> store(def.streams.size());
  for (std::size_t s = 0; s < def.streams.size(); ++s) {
    if (def.streams[s].dir != kernel::StreamDir::kIn) continue;
    store[s].resize(
        static_cast<std::size_t>(accesses * def.streams[s].record_words));
    for (double& d : store[s]) d = rng.uniform(-2.0, 2.0);
  }
  auto make_bindings = [&](std::vector<std::vector<double>>& outs) {
    kernel::StreamBindings b;
    for (std::size_t s = 0; s < def.streams.size(); ++s) {
      if (def.streams[s].dir == kernel::StreamDir::kIn) {
        b.inputs.emplace_back(store[s]);
        b.outputs.push_back(nullptr);
      } else {
        b.inputs.emplace_back();
        b.outputs.push_back(&outs[s]);
      }
    }
    return b;
  };

  std::vector<std::vector<double>> oi(def.streams.size());
  std::vector<std::vector<double>> ov(def.streams.size());
  kernel::Interpreter interp(def, kClusters);
  kernel::CompiledKernel vm(def, kClusters);
  const kernel::StreamBindings bi = make_bindings(oi);
  const kernel::StreamBindings bv = make_bindings(ov);
  const kernel::InterpStats si = interp.run(bi, kRounds);
  const kernel::InterpStats sv = vm.run(bv, kRounds);
  EXPECT_EQ(kernel::diff_interp_stats(si, sv), "") << def.name;
  for (std::size_t s = 0; s < def.streams.size(); ++s) {
    if (def.streams[s].dir == kernel::StreamDir::kIn) continue;
    ASSERT_EQ(oi[s].size(), ov[s].size())
        << def.name << " stream " << def.streams[s].name;
    for (std::size_t w = 0; w < oi[s].size(); ++w) {
      ASSERT_EQ(bits_of(oi[s][w]), bits_of(ov[s][w]))
          << def.name << " stream " << def.streams[s].name << " word " << w;
    }
  }

  // The wrapper's own cross-check mode must agree with itself.
  std::vector<std::vector<double>> ol(def.streams.size());
  kernel::KernelExec lock(def, kClusters, kernel::KernelBackend::kLockstep);
  const kernel::StreamBindings bl = make_bindings(ol);
  EXPECT_NO_THROW((void)lock.run(bl, kRounds)) << def.name;
}

TEST(VmEquivalence, BuiltinKernelsBitIdentical) {
  const md::WaterModel& model = md::spc();
  std::vector<kernel::KernelDef> defs;
  for (const core::Variant v :
       {core::Variant::kExpanded, core::Variant::kFixed,
        core::Variant::kVariable, core::Variant::kDuplicated}) {
    defs.push_back(core::build_water_kernel(v, model));
  }
  defs.push_back(core::build_expanded_naive_kernel(model));
  defs.push_back(core::build_expanded_energy_kernel(model));
  for (const md::WaterModel& m : {md::spc(), md::tip5p(), md::ppc()}) {
    defs.push_back(core::build_multisite_kernel(m));
  }
  defs.push_back(core::build_blocked_kernel(model, 1.0, 8));
  std::uint64_t seed = 0x50f7;
  for (const kernel::KernelDef& def : defs) {
    expect_vm_bit_identical(def, seed++);
  }
}

/// One full strip-mined simulation of `v`'s layout under `cfg`'s kernel
/// backend.
struct SimOut {
  sim::RunStats run;
  mem::GlobalMemory mem;
};

SimOut simulate(const core::Problem& problem, core::Variant v,
                const sim::MachineConfig& cfg) {
  const kernel::KernelDef kdef =
      core::build_water_kernel(v, problem.system.model(),
                               problem.setup.fixed_list_length);
  const core::VariantLayout layout =
      core::build_layout(v, problem.system, problem.half_list,
                         core::layout_options(problem.setup, cfg));
  sim::Machine machine(cfg);
  const core::ProblemImage image =
      core::upload_system(machine.memory(), problem.system);
  const sim::StreamProgram program =
      core::build_program(machine.memory(), image, layout, kdef);
  SimOut out;
  out.run = machine.run(program);
  out.mem = machine.memory();
  return out;
}

// The tentpole gate: Table-3 variants, both SDR policies, full simulation.
// kLockstep cross-checks inside every kernel launch; the explicit
// interp-vs-vm pair must produce identical RunStats and memory images.
TEST(VmEquivalence, LockstepSweepTableThreeVariantsBothPolicies) {
  core::ExperimentSetup setup;
  setup.n_molecules = 48;
  const core::Problem problem = core::Problem::make(setup);

  for (const core::Variant v :
       {core::Variant::kExpanded, core::Variant::kFixed,
        core::Variant::kVariable, core::Variant::kDuplicated}) {
    for (const sim::SdrPolicy policy :
         {sim::SdrPolicy::kConservative, sim::SdrPolicy::kTransferScoped}) {
      sim::MachineConfig cfg = sim::MachineConfig::merrimac();
      cfg.sdr_policy = policy;
      const std::string what =
          std::string(core::variant_name(v)) +
          (policy == sim::SdrPolicy::kConservative ? " [conservative]"
                                                   : " [transfer-scoped]");

      // Every kernel launch runs both backends and throws on divergence.
      cfg.kernel_backend = kernel::KernelBackend::kLockstep;
      const SimOut locked = simulate(problem, v, cfg);

      cfg.kernel_backend = kernel::KernelBackend::kInterp;
      const SimOut ri = simulate(problem, v, cfg);
      cfg.kernel_backend = kernel::KernelBackend::kVm;
      const SimOut rv = simulate(problem, v, cfg);

      EXPECT_EQ(sim::diff_run_stats(ri.run, rv.run), "") << what;
      EXPECT_EQ(sim::diff_run_stats(ri.run, locked.run), "") << what;
      EXPECT_EQ(mem::diff_memory(ri.mem, rv.mem), "") << what;
    }
  }
}

// Randomized property: generated kernels exercising every stream-transfer
// shape -- unconditional and conditional reads/writes, broadcast reads,
// multi-word records, all four sections -- are bit-identical across
// backends.
TEST(VmEquivalence, RandomProgramsBitIdentical) {
  for (int trial = 0; trial < 60; ++trial) {
    util::Rng rng(0xc0157ULL + 977ULL * static_cast<std::uint64_t>(trial));
    kernel::KernelBuilder kb("vmrand_" + std::to_string(trial));
    using Reg = kernel::KernelBuilder::Reg;

    const int n_in = 1 + static_cast<int>(rng.uniform_u64(2));
    std::vector<int> ins;
    std::vector<int> in_words;
    for (int i = 0; i < n_in; ++i) {
      in_words.push_back(1 + static_cast<int>(rng.uniform_u64(2)));
      ins.push_back(kb.stream_in("in" + std::to_string(i), in_words.back()));
    }
    const int bcast_words = 1 + static_cast<int>(rng.uniform_u64(2));
    const int bc = kb.stream_in("bc", bcast_words);
    const int cin = kb.stream_in("ci", 1, /*conditional=*/true);
    const int out = kb.stream_out("out", 1);
    const int cout_s = kb.stream_out("co", 1, /*conditional=*/true);

    kb.section(kernel::Section::kPrologue);
    const Reg zero = kb.constant(0.0);
    std::vector<Reg> vals;
    vals.push_back(kb.constant(rng.uniform(0.5, 2.0)));

    kb.section(kernel::Section::kOuterPre);
    // Per-round state: a record read once per round, shared by the body.
    // (Reads must be record-sized -- IR006.)
    const auto round_v = kb.read(ins[0], in_words[0]);
    vals.push_back(round_v[0]);

    kb.section(kernel::Section::kBody);
    std::vector<Reg> raw;  // values straight off a stream: good predicates
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const auto r = kb.read(ins[i], in_words[i]);
      for (const Reg& x : r) {
        vals.push_back(x);
        raw.push_back(x);
      }
    }
    const std::vector<Reg> b_regs = kb.alloc_n(bcast_words);
    kb.read_bcast_to(bc, b_regs[0], bcast_words);
    for (const Reg& x : b_regs) vals.push_back(x);

    const int n_ops = 4 + static_cast<int>(rng.uniform_u64(10));
    for (int i = 0; i < n_ops; ++i) {
      const Reg a = vals[rng.uniform_u64(vals.size())];
      const Reg b = vals[rng.uniform_u64(vals.size())];
      switch (rng.uniform_u64(6)) {
        case 0: vals.push_back(kb.add(a, b)); break;
        case 1: vals.push_back(kb.sub(a, b)); break;
        case 2: vals.push_back(kb.mul(a, b)); break;
        case 3:
          vals.push_back(kb.madd(a, b, vals[rng.uniform_u64(vals.size())]));
          break;
        case 4: vals.push_back(kb.sel(kb.cmp_lt(a, b), a, b)); break;
        default: vals.push_back(kb.cmp_eq(a, b)); break;
      }
    }

    // Conditional read: predicate is data-dependent (~50% taken on
    // uniform(-2,2) inputs); the landing register feeds later values only
    // through a sel so untaken iterations stay deterministic.
    const Reg pred = kb.cmp_lt(raw[rng.uniform_u64(raw.size())], zero);
    const Reg cr = kb.alloc();
    kb.read_cond_to(cin, cr, 1, pred);
    vals.push_back(kb.sel(pred, cr, vals[0]));

    kb.write(out, vals.back(), 1);
    const Reg pred2 = kb.cmp_lt(zero, raw[rng.uniform_u64(raw.size())]);
    kb.write_cond(cout_s, vals[vals.size() - 2], 1, pred2);

    kb.section(kernel::Section::kOuterPost);
    kb.write(out, vals[1], 1);  // per-round value, once per round

    expect_vm_bit_identical(kb.build(), 0xfaceULL + 7ULL * trial);
  }
}

}  // namespace
}  // namespace smd
