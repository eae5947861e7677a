// The paper's Section 1/5 "initial results of the scaling of the algorithm
// to larger configurations of the system": strong scaling of StreamMD
// across Merrimac nodes on the folded-Clos network, calibrated with the
// simulated single-node `variable` run.
//
// Flags (smdtune drives these too):
//   --nodes a,b,c | lo:hi:step   node counts to sweep (default 1,2,4,...,64)
//   --molecules N                calibration water-box size (default 900)
//   --large-molecules N          the scaled-up system (default 115200, 128x)
//   --trace path                 per-node Chrome trace of the paper sweep
#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "bench/bench_io.h"
#include "src/core/run.h"
#include "src/net/multinode.h"
#include "src/obs/trace_event.h"
#include "src/prof/parallel.h"
#include "src/util/table.h"

using namespace smd;

namespace {

obs::Json sweep_json(const net::ScalingModel& model,
                     const std::vector<std::int64_t>& nodes) {
  obs::Json rows = obs::Json::array();
  for (const auto n : nodes) {
    const net::ScalingPoint p = model.at(n);
    const prof::ParallelTaxonomy tax =
        prof::attribute_parallel(model.breakdown(n));
    obs::Json j = obs::Json::object();
    j.set("nodes", p.nodes)
        .set("compute_s", p.compute_s)
        .set("local_mem_s", p.local_mem_s)
        .set("network_s", p.network_s)
        .set("serialization_s", p.serialization_s)
        .set("imbalance_s", p.imbalance_s)
        .set("step_s", p.step_s)
        .set("speedup", p.speedup)
        .set("efficiency", p.efficiency)
        .set("halo_fraction", p.halo_fraction)
        .set("imbalance_ratio", p.imbalance_ratio)
        .set("critical_node", p.critical_node)
        .set("taxonomy", prof::to_json(tax));
    rows.push_back(std::move(j));
  }
  return rows;
}

void sweep(const char* title, const net::ScalingModel& model,
           const std::vector<std::int64_t>& nodes) {
  util::Table t({"nodes", "compute (us)", "local mem (us)", "network (us)",
                 "step (us)", "speedup", "efficiency", "halo frac"});
  for (const auto& p : model.sweep(nodes)) {
    t.add_row({std::to_string(p.nodes), util::Table::num(p.compute_s * 1e6, 1),
               util::Table::num(p.local_mem_s * 1e6, 1),
               util::Table::num(p.network_s * 1e6, 1),
               util::Table::num(p.step_s * 1e6, 1),
               util::Table::num(p.speedup, 2),
               util::Table::percent(p.efficiency, 0),
               util::Table::num(p.halo_fraction, 2)});
  }
  std::printf("%s\n%s\n", title, t.render().c_str());
  std::printf("per-node decomposition (node-time shares)\n%s\n",
              prof::format_parallel_table([&] {
                std::vector<net::StepBreakdown> bds;
                bds.reserve(nodes.size());
                for (const auto n : nodes) bds.push_back(model.breakdown(n));
                return bds;
              }()).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  static const char* kUsage =
      "bench_scaling_multinode [--nodes a,b,c|lo:hi:step] [--molecules N] "
      "[--large-molecules N] [--trace path] [--json path]";
  benchio::check_flags(argc, argv, "bench_scaling_multinode", kUsage,
                       {"--nodes", "--molecules", "--large-molecules",
                        "--trace", "--json"},
                       {});
  benchio::JsonOut jout(argc, argv, "bench_scaling_multinode");
  const std::string trace_path =
      benchio::output_path_or_exit(argc, argv, "trace");

  std::vector<std::int64_t> nodes;
  for (const int n : benchio::counts_or_exit(
           argc, argv, "bench_scaling_multinode", "nodes", {"node"},
           {1, 2, 4, 8, 16, 32, 64}, kUsage, true)) {
    nodes.push_back(n);
  }

  core::ExperimentSetup setup;
  setup.n_molecules = benchio::molecules_or_exit(
      argc, argv, "bench_scaling_multinode", setup.n_molecules, kUsage).front();
  // The scaled-up box is modelled, not simulated, but its size follows the
  // same --molecules rule. Default: a 128x larger box.
  const int large_molecules =
      benchio::counts_or_exit(argc, argv, "bench_scaling_multinode",
                              "large-molecules", benchio::kMolecules, {115200},
                              kUsage)
          .front();
  const core::Problem problem = core::Problem::make(setup);
  const auto variable = core::run_variant(problem, core::Variant::kVariable);

  net::ScalingWorkload w;
  try {
    w = prof::scaling_workload(problem, variable);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_scaling_multinode: %s\n", e.what());
    return 2;
  }

  std::printf("== Multi-node strong scaling (calibrated from `variable`) ==\n\n");
  char title[96];
  std::snprintf(title, sizeof title, "paper dataset: %lld molecules",
                static_cast<long long>(w.n_molecules));
  sweep(title, net::ScalingModel(w, net::NetworkConfig{}), nodes);

  net::ScalingWorkload big = w;
  big.n_molecules = large_molecules;
  std::snprintf(title, sizeof title, "scaled-up system: %lld molecules",
                static_cast<long long>(big.n_molecules));
  sweep(title, net::ScalingModel(big, net::NetworkConfig{}), nodes);

  obs::Json workload = obs::Json::object();
  workload.set("n_molecules", w.n_molecules)
      .set("cutoff_nm", w.cutoff)
      .set("flops_per_interaction", w.flops_per_interaction)
      .set("words_per_interaction", w.words_per_interaction)
      .set("cycles_per_interaction", w.cycles_per_interaction);
  jout.root().set("workload", std::move(workload));
  jout.root().set("paper_dataset",
                  sweep_json(net::ScalingModel(w, net::NetworkConfig{}), nodes));
  jout.root().set("large_system",
                  sweep_json(net::ScalingModel(big, net::NetworkConfig{}), nodes));

  if (!trace_path.empty()) {
    obs::TraceSink sink;
    const net::ScalingModel model(w, net::NetworkConfig{});
    for (const auto n : nodes) net::append_trace(model.breakdown(n), sink);
    sink.write(trace_path);
    std::printf("per-node trace written to %s (%zu slices)\n",
                trace_path.c_str(), sink.size());
  }
  return jout.finish(0);
}
