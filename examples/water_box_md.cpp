// Multi-step molecular dynamics with Merrimac in the loop.
//
// The paper's StreamMD "integrates with GROMACS through memory, and the
// interface is simply the molecules position array, neighbor-list stream,
// and the force array". This example runs real leapfrog/SHAKE dynamics
// where every force evaluation goes through the simulated Merrimac node
// (variant `variable`), exactly as GROMACS would use the stream unit as a
// force coprocessor, and checks the trajectory stays consistent with a
// pure host-side reference run.
#include <cstdio>
#include <cmath>

#include "bench/bench_io.h"
#include "src/core/run.h"
#include "src/md/integrator.h"

using namespace smd;

namespace {

/// Force provider that ships positions to the simulated Merrimac node,
/// runs the `variable` StreamMD program, and reads the forces back.
class MerrimacForceProvider {
 public:
  explicit MerrimacForceProvider(double cutoff) : cutoff_(cutoff) {}

  md::ForceEnergy operator()(const md::WaterSystem& sys) {
    const md::NeighborList list = md::build_neighbor_list(sys, cutoff_);
    core::LayoutOptions lopts;
    const core::VariantLayout layout =
        core::build_layout(core::Variant::kVariable, sys, list, lopts);
    const kernel::KernelDef kdef =
        core::build_water_kernel(core::Variant::kVariable, sys.model());

    sim::Machine machine;  // fresh node; positions uploaded below
    const core::ProblemImage image = core::upload_system(machine.memory(), sys);
    const sim::StreamProgram program =
        core::build_program(machine.memory(), image, layout, kdef);
    const sim::RunStats stats = machine.run(program);
    total_cycles_ += stats.cycles;

    md::ForceEnergy fe;
    fe.force = core::read_forces(machine.memory(), image);
    // Energies are evaluated scalar-side (the kernel streams forces only).
    const md::ForceEnergy ref = md::compute_forces_reference(sys, list);
    fe.e_coulomb = ref.e_coulomb;
    fe.e_lj = ref.e_lj;
    return fe;
  }

  std::uint64_t total_cycles() const { return total_cycles_; }

 private:
  double cutoff_;
  std::uint64_t total_cycles_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  benchio::check_flags(argc, argv, "water_box_md", "water_box_md", {}, {});
  const double cutoff = 0.7;
  const int steps = 10;

  md::WaterBoxOptions opts;
  opts.n_molecules = 125;
  opts.temperature_kelvin = 250.0;
  md::WaterSystem sys = md::build_water_box(opts);

  // Relax the synthetic lattice before dynamics (host side, like any MD
  // package's preparation step) so the trajectory starts near equilibrium.
  auto host_force = [&](const md::WaterSystem& s) {
    return md::compute_forces_reference(s, md::build_neighbor_list(s, cutoff));
  };
  const double e_min = md::minimize_energy(sys, host_force, 80);
  std::printf("minimized potential energy: %.1f kJ/mol\n", e_min);

  md::WaterSystem sys_ref = sys;  // identical starting state

  MerrimacForceProvider merrimac(cutoff);
  md::LeapfrogIntegrator on_merrimac(sys, std::ref(merrimac));
  md::LeapfrogIntegrator on_host(sys_ref, [&](const md::WaterSystem& s) {
    return md::compute_forces_reference(s, md::build_neighbor_list(s, cutoff));
  });

  std::printf("%d steps of leapfrog + SHAKE, forces from the simulated "
              "Merrimac node:\n\n", steps);
  std::printf("step   E_pot (kJ/mol)   E_kin    T (K)   max |dx| vs host run\n");
  for (int step = 0; step < steps; ++step) {
    const md::ForceEnergy fe = on_merrimac.step();
    on_host.step();
    double max_dx = 0.0;
    for (int a = 0; a < sys.n_atoms(); ++a) {
      max_dx = std::max(max_dx, (sys.pos(a) - sys_ref.pos(a)).norm());
    }
    std::printf("%4d   %14.2f  %7.2f  %6.1f   %.3e nm\n", step,
                fe.e_potential(), sys.kinetic_energy(), sys.temperature(),
                max_dx);
    if (max_dx > 1e-6) {
      std::printf("trajectory diverged from the host reference!\n");
      return 1;
    }
  }
  std::printf("\nsimulated Merrimac cycles across all force evaluations: %llu\n",
              static_cast<unsigned long long>(merrimac.total_cycles()));
  std::printf("trajectories agree to %.0e nm after %d steps.\n", 1e-6, steps);
  return 0;
}
