#include "src/core/run.h"

#include "src/sim/kernelexec.h"

namespace smd::core {
namespace {

/// Fill a VariantResult's metrics from a finished run.
VariantResult assemble_result(const Problem& problem, Variant variant,
                              const VariantLayout& layout,
                              const kernel::KernelDef& kdef,
                              const sim::MachineConfig& cfg,
                              sim::Machine& machine, const ProblemImage& image,
                              sim::RunStats run) {
  VariantResult res;
  res.variant = variant;
  res.name = variant_name(variant);
  res.run = std::move(run);

  // ---- Validation: simulated forces vs. the reference implementation. ----
  const std::vector<md::Vec3> forces = read_forces(machine.memory(), image);
  res.max_force_rel_err = md::max_force_rel_err(problem.reference.force, forces);

  // ---- Paper metrics. -----------------------------------------------------
  res.n_real_interactions = layout.n_real_interactions;
  res.n_computed_interactions = layout.n_computed_interactions;
  res.n_central_blocks = layout.n_central_blocks;
  res.n_neighbor_slots = layout.n_neighbor_slots;

  const double seconds = res.run.seconds(cfg.clock_ghz);
  res.time_ms = seconds * 1e3;
  const double solution_flops = problem.flops_per_interaction *
                                static_cast<double>(layout.n_real_interactions);
  res.solution_gflops = solution_flops / seconds / 1e9;
  res.all_gflops =
      static_cast<double>(res.run.interp.executed.flops) / seconds / 1e9;
  res.mem_refs = res.run.mem_words;

  res.ai_calculated = layout.arithmetic_intensity(problem.flops_per_interaction);
  res.ai_measured = static_cast<double>(res.run.interp.executed.flops) /
                    static_cast<double>(res.run.mem_words);

  const double lrf = static_cast<double>(res.run.interp.lrf_refs);
  const double srf = static_cast<double>(res.run.interp.srf_read_words +
                                         res.run.interp.srf_write_words);
  const double mem = static_cast<double>(res.run.mem_words);
  const double total = lrf + srf + mem;
  res.lrf_fraction = lrf / total;
  res.srf_fraction = srf / total;
  res.mem_fraction = mem / total;

  sim::KernelCostCache costs(cfg.sched);
  const sim::KernelCost& cost = costs.get(kdef);
  res.kernel_cycles_per_iteration = cost.body.cycles_per_iteration();
  res.kernel_issue_rate = cost.body.issue_rate;
  return res;
}

}  // namespace

Problem Problem::make(const ExperimentSetup& setup) {
  md::WaterBoxOptions opts;
  opts.n_molecules = setup.n_molecules;
  opts.seed = setup.seed;
  Problem p{setup,
            md::build_water_box(opts),
            {},
            {},
            0.0};
  p.half_list = md::build_neighbor_list(p.system, setup.cutoff);
  p.reference = md::compute_forces_reference(p.system, p.half_list);
  // The census counts the expanded kernel's instructions, which a water
  // model does not change (it sets only constants). Building that kernel
  // verifies it, which would cost more than the rest of a small problem,
  // so count it once per process.
  static const double kFlopsPerInteraction =
      static_cast<double>(interaction_flops(md::spc()).flops);
  p.flops_per_interaction = kFlopsPerInteraction;
  return p;
}

VariantResult run_variant(const Problem& problem, Variant variant,
                          const sim::MachineConfig& cfg) {
  LayoutOptions lopts;
  lopts.n_clusters = cfg.n_clusters;
  lopts.fixed_list_length = problem.setup.fixed_list_length;
  lopts.strip_rounds = problem.setup.strip_rounds;
  lopts.srf_words = cfg.srf_words;
  const VariantLayout layout =
      build_layout(variant, problem.system, problem.half_list, lopts);

  const kernel::KernelDef kdef = build_water_kernel(
      variant, problem.system.model(), problem.setup.fixed_list_length);

  sim::Machine machine(cfg);
  const ProblemImage image = upload_system(machine.memory(), problem.system);
  const sim::StreamProgram program =
      build_program(machine.memory(), image, layout, kdef);
  sim::RunStats run = machine.run(program);
  return assemble_result(problem, variant, layout, kdef, cfg, machine, image,
                         std::move(run));
}

std::vector<VariantResult> run_all_variants(const Problem& problem,
                                            const sim::MachineConfig& cfg) {
  std::vector<VariantResult> out;
  for (Variant v : kAllVariants) out.push_back(run_variant(problem, v, cfg));
  return out;
}

EnergyRunResult run_expanded_with_energy(const Problem& problem,
                                         const sim::MachineConfig& cfg) {
  LayoutOptions lopts;
  lopts.n_clusters = cfg.n_clusters;
  lopts.fixed_list_length = problem.setup.fixed_list_length;
  lopts.strip_rounds = problem.setup.strip_rounds;
  lopts.srf_words = cfg.srf_words;
  const VariantLayout layout = build_layout(Variant::kExpanded, problem.system,
                                            problem.half_list, lopts);
  const kernel::KernelDef kdef =
      build_expanded_energy_kernel(problem.system.model());

  sim::Machine machine(cfg);
  const ProblemImage image = upload_system(machine.memory(), problem.system);
  const std::int64_t slots =
      static_cast<std::int64_t>(layout.neighbor_gather_idx.size());
  const std::uint64_t energy_base = machine.memory().alloc(2 * slots);
  const sim::StreamProgram program =
      build_program(machine.memory(), image, layout, kdef, energy_base);
  sim::RunStats run = machine.run(program);

  EnergyRunResult out;
  out.result = assemble_result(problem, Variant::kExpanded, layout, kdef, cfg,
                               machine, image, std::move(run));
  // Dummy padding interactions contribute (numerically zero) rows too;
  // summing all slots is exact to double precision.
  for (std::int64_t i = 0; i < slots; ++i) {
    out.e_coulomb += machine.memory().read(energy_base + static_cast<std::uint64_t>(2 * i));
    out.e_lj += machine.memory().read(energy_base + static_cast<std::uint64_t>(2 * i + 1));
  }
  return out;
}

}  // namespace smd::core
