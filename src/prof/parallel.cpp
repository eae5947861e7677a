#include "src/prof/parallel.h"

#include <sstream>
#include <stdexcept>

#include "src/util/table.h"

namespace smd::prof {
namespace {

double fraction(std::uint64_t part, std::uint64_t total) {
  return total > 0 ? static_cast<double>(part) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace

double ParallelTaxonomy::parallel_efficiency() const {
  return fraction(compute_ns, total_node_ns);
}
double ParallelTaxonomy::communication_fraction() const {
  return fraction(communication_ns, total_node_ns);
}
double ParallelTaxonomy::serialization_fraction() const {
  return fraction(serialization_ns, total_node_ns);
}
double ParallelTaxonomy::imbalance_fraction() const {
  return fraction(imbalance_ns, total_node_ns);
}

net::ScalingWorkload scaling_workload(const core::Problem& problem,
                                      const core::VariantResult& variable) {
  if (variable.n_real_interactions == 0) {
    throw std::invalid_argument(
        "cannot calibrate the multi-node model: the " +
        std::to_string(problem.system.n_molecules()) +
        "-molecule box has no interaction pairs within the cutoff");
  }
  net::ScalingWorkload w;
  w.n_molecules = problem.system.n_molecules();
  w.cutoff = problem.setup.cutoff;
  w.flops_per_interaction = problem.flops_per_interaction;
  w.words_per_interaction = static_cast<double>(variable.mem_refs) /
                            static_cast<double>(variable.n_real_interactions);
  w.cycles_per_interaction =
      static_cast<double>(variable.run.cycles) /
      static_cast<double>(variable.n_real_interactions);
  w.seed = problem.setup.seed;
  return w;
}

ParallelTaxonomy attribute_parallel(const net::StepBreakdown& b) {
  ParallelTaxonomy t;
  t.nodes = b.nodes;
  t.step_ns = b.step_ns;
  t.total_node_ns = b.step_ns * static_cast<std::uint64_t>(b.nodes);
  for (const auto& ledger : b.ledgers) {
    t.compute_ns += ledger.compute_ns;
    t.communication_ns += ledger.halo_gather_ns + ledger.force_scatter_ns;
    t.serialization_ns += ledger.network_latency_ns;
    t.imbalance_ns += ledger.imbalance_wait_ns;
  }
  return t;
}

obs::Json to_json(const ParallelTaxonomy& t) {
  obs::Json j = obs::Json::object();
  j.set("nodes", t.nodes)
      .set("step_ns", t.step_ns)
      .set("total_node_ns", t.total_node_ns)
      .set("compute_ns", t.compute_ns)
      .set("communication_ns", t.communication_ns)
      .set("serialization_ns", t.serialization_ns)
      .set("imbalance_ns", t.imbalance_ns)
      .set("parallel_efficiency", t.parallel_efficiency())
      .set("communication_fraction", t.communication_fraction())
      .set("serialization_fraction", t.serialization_fraction())
      .set("imbalance_fraction", t.imbalance_fraction());
  return j;
}

std::string format_parallel_table(
    const std::vector<net::StepBreakdown>& breakdowns) {
  util::Table t({"nodes", "grid", "step (us)", "compute", "comm", "serial",
                 "imbal", "imb ratio", "halo frac", "crit node"});
  for (const auto& b : breakdowns) {
    const ParallelTaxonomy tax = attribute_parallel(b);
    std::ostringstream grid;
    grid << b.grid.nx << "x" << b.grid.ny << "x" << b.grid.nz;
    t.add_row({std::to_string(b.nodes), grid.str(),
               util::Table::num(static_cast<double>(b.step_ns) * 1e-3, 1),
               util::Table::percent(tax.parallel_efficiency(), 1),
               util::Table::percent(tax.communication_fraction(), 1),
               util::Table::percent(tax.serialization_fraction(), 1),
               util::Table::percent(tax.imbalance_fraction(), 1),
               util::Table::num(b.imbalance_ratio, 3),
               util::Table::num(b.halo_fraction, 2),
               std::to_string(b.critical_node)});
  }
  return t.render();
}

}  // namespace smd::prof
