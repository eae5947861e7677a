#include "src/core/report.h"

#include <sstream>

#include "src/core/schema.h"
#include "src/obs/registry.h"
#include "src/util/table.h"

namespace smd::core {

using util::Table;

std::string format_machine_table(const sim::MachineConfig& cfg) {
  Table t({"Parameter", "Value"});
  const auto& m = cfg.mem;
  t.add_row({"Number of stream cache banks", std::to_string(m.cache.n_banks)});
  t.add_row({"Number of scatter-add units per bank",
             std::to_string(mem::kScatterAddUnitsPerBank)});
  t.add_row({"Latency of scatter-add functional unit",
             std::to_string(m.scatter_add.latency)});
  t.add_row({"Number of combining store entries",
             std::to_string(m.scatter_add.combining_entries)});
  t.add_row({"Number of DRAM interface channels", std::to_string(m.dram.n_channels)});
  t.add_row({"Number of address generators",
             std::to_string(m.n_address_generators)});
  t.add_row({"Operating frequency", Table::num(cfg.clock_ghz, 1) + " GHz"});
  t.add_row({"Peak DRAM bandwidth",
             Table::num(cfg.dram_words_per_cycle() * 8.0 * cfg.clock_ghz, 1) +
                 " GB/s"});
  t.add_row({"Stream cache bandwidth",
             Table::num(m.cache.n_banks * 8.0 * cfg.clock_ghz, 0) + " GB/s"});
  t.add_row({"Number of clusters", std::to_string(cfg.n_clusters)});
  t.add_row({"Peak floating point operations per cycle",
             std::to_string(cfg.n_clusters * cfg.sched.n_fpus * 2)});
  t.add_row({"SRF bandwidth",
             Table::num(cfg.n_clusters * cfg.sched.srf_words_per_cycle * 8.0 *
                            cfg.clock_ghz,
                        0) +
                 " GB/s"});
  t.add_row({"SRF size", Table::num(static_cast<double>(cfg.srf_words) * 8 / (1 << 20), 0) + " MB"});
  t.add_row({"Stream cache size",
             Table::num(static_cast<double>(m.cache.total_words) * 8 / (1 << 20), 0) + " MB"});
  t.add_row({"Peak performance", Table::num(cfg.peak_gflops(), 0) + " GFLOPS"});
  return t.render();
}

std::string format_dataset_table(const Problem& problem,
                                 const std::vector<VariantResult>& results) {
  const VariantResult* fixed = nullptr;
  for (const auto& r : results) {
    if (r.variant == Variant::kFixed) fixed = &r;
  }
  Table t({"Parameter", "Value"});
  t.add_row({"molecules", Table::integer(problem.system.n_molecules())});
  t.add_row({"cutoff (nm)", Table::num(problem.setup.cutoff, 2)});
  t.add_row({"interactions", Table::integer(problem.half_list.n_pairs())});
  t.add_row({"mean neighbors per molecule",
             Table::num(problem.half_list.mean_degree(), 1)});
  if (fixed != nullptr) {
    t.add_row({"repeated molecules for fixed",
               Table::integer(fixed->n_central_blocks)});
    t.add_row({"total neighbors for fixed",
               Table::integer(fixed->n_neighbor_slots)});
  }
  return t.render();
}

std::string format_variants_table() {
  Table t({"Name", "Description"});
  for (Variant v : kAllVariants) {
    t.add_row({variant_name(v), variant_description(v)});
  }
  t.add_row({"Pentium 4",
             "fully hand-optimized GROMACS on a Pentium 4 with "
             "single-precision SSE (water-water only)"});
  return t.render();
}

std::string format_arithmetic_intensity_table(
    const std::vector<VariantResult>& results) {
  Table t({"Variant", "Calculated", "Measured"});
  for (const auto& r : results) {
    t.add_row({r.name, Table::num(r.ai_calculated, 1), Table::num(r.ai_measured, 1)});
  }
  return t.render();
}

std::string format_locality_table(const std::vector<VariantResult>& results) {
  Table t({"Variant", "%LRF", "%SRF", "%MEM"});
  for (const auto& r : results) {
    t.add_row({r.name, Table::percent(r.lrf_fraction, 1),
               Table::percent(r.srf_fraction, 1),
               Table::percent(r.mem_fraction, 1)});
  }
  return t.render();
}

std::string format_performance_table(const std::vector<VariantResult>& results,
                                     double p4_solution_gflops,
                                     double optimal_solution_gflops) {
  Table t({"Variant", "Solution GFLOPS", "All GFLOPS", "MEM (K refs)",
           "time (ms)"});
  for (const auto& r : results) {
    t.add_row({r.name, Table::num(r.solution_gflops, 2),
               Table::num(r.all_gflops, 2),
               Table::num(static_cast<double>(r.mem_refs) / 1000.0, 0),
               Table::num(r.time_ms, 3)});
  }
  std::ostringstream os;
  os << t.render();
  if (p4_solution_gflops > 0) {
    os << "\nPentium 4 (2.4 GHz, single-precision SSE): "
       << Table::num(p4_solution_gflops, 2) << " solution GFLOPS\n";
  }
  if (optimal_solution_gflops > 0) {
    os << "StreamMD optimal on this machine: "
       << Table::num(optimal_solution_gflops, 2) << " solution GFLOPS\n";
  }
  return os.str();
}

std::string format_blocking_table(const std::vector<BlockingPoint>& pts,
                                  const BlockingPoint& minimum) {
  Table t({"cluster size", "molecules", "kernel (rel)", "memory ops (rel)",
           "run time (rel)"});
  for (const auto& p : pts) {
    t.add_row({Table::num(p.size, 2), Table::num(p.molecules, 1),
               Table::num(p.kernel_rel, 3), Table::num(p.memory_rel, 3),
               Table::num(p.time_rel, 3)});
  }
  std::ostringstream os;
  os << t.render();
  os << "\nminimum: run time " << Table::num(minimum.time_rel, 3)
     << " of variable at cluster size " << Table::num(minimum.size, 2) << " ("
     << Table::num(minimum.molecules, 1) << " molecules per cluster)\n";
  return os.str();
}

obs::Json to_json(const sim::MachineConfig& cfg) {
  obs::Json mem = obs::Json::object();
  mem.set("cache_banks", cfg.mem.cache.n_banks)
      .set("cache_line_words", cfg.mem.cache.line_words)
      .set("cache_total_words", cfg.mem.cache.total_words)
      .set("cache_associativity", cfg.mem.cache.associativity)
      .set("dram_channels", cfg.mem.dram.n_channels)
      .set("dram_channel_words_per_cycle", cfg.mem.dram.channel_words_per_cycle)
      .set("dram_access_latency", cfg.mem.dram.access_latency)
      .set("scatter_add_latency", cfg.mem.scatter_add.latency)
      .set("combining_entries", cfg.mem.scatter_add.combining_entries)
      .set("address_generators", cfg.mem.n_address_generators)
      .set("addrs_per_generator", cfg.mem.addrs_per_generator);
  obs::Json sched = obs::Json::object();
  sched.set("n_fpus", cfg.sched.n_fpus)
      .set("srf_words_per_cycle", cfg.sched.srf_words_per_cycle)
      .set("unroll", cfg.sched.unroll)
      .set("software_pipeline", cfg.sched.software_pipeline);
  obs::Json j = obs::Json::object();
  j.set("n_clusters", cfg.n_clusters)
      .set("clock_ghz", cfg.clock_ghz)
      .set("peak_gflops", cfg.peak_gflops())
      .set("lrf_words_per_cluster", cfg.lrf_words_per_cluster)
      .set("srf_words", cfg.srf_words)
      .set("n_stream_descriptor_registers", cfg.n_stream_descriptor_registers)
      .set("sdr_policy", sim::sdr_policy_name(cfg.sdr_policy))
      .set("kernel_startup_cycles", cfg.kernel_startup_cycles)
      .set("mem", std::move(mem))
      .set("sched", std::move(sched));
  return j;
}

obs::Json to_json(const VariantResult& r) {
  obs::Json locality = obs::Json::object();
  locality.set("lrf", r.lrf_fraction)
      .set("srf", r.srf_fraction)
      .set("mem", r.mem_fraction);
  obs::Json j = obs::Json::object();
  j.set("variant", r.name)
      .set("n_real_interactions", r.n_real_interactions)
      .set("n_computed_interactions", r.n_computed_interactions)
      .set("n_central_blocks", r.n_central_blocks)
      .set("n_neighbor_slots", r.n_neighbor_slots)
      .set("time_ms", r.time_ms)
      .set("solution_gflops", r.solution_gflops)
      .set("all_gflops", r.all_gflops)
      .set("mem_refs", r.mem_refs)
      .set("ai_calculated", r.ai_calculated)
      .set("ai_measured", r.ai_measured)
      .set("locality", std::move(locality))
      .set("kernel_cycles_per_iteration", r.kernel_cycles_per_iteration)
      .set("kernel_issue_rate", r.kernel_issue_rate)
      .set("max_force_rel_err", r.max_force_rel_err)
      .set("run", to_json(r.run));
  return j;
}

obs::Json to_json(const BlockingPoint& p) {
  obs::Json j = obs::Json::object();
  j.set("size", p.size)
      .set("molecules", p.molecules)
      .set("kernel_rel", p.kernel_rel)
      .set("memory_rel", p.memory_rel)
      .set("time_rel", p.time_rel);
  return j;
}

obs::Json bench_record(const std::string& bench_name,
                       const sim::MachineConfig& cfg,
                       const std::vector<VariantResult>& results) {
  obs::Json rs = obs::Json::array();
  for (const auto& r : results) rs.push_back(to_json(r));
  obs::Json j = obs::Json::object();
  j.set("schema_version", kBenchSchemaVersion)
      .set("bench", bench_name)
      .set("machine", to_json(cfg))
      .set("results", std::move(rs))
      .set("telemetry", obs::CounterRegistry::global().to_json());
  return j;
}

}  // namespace smd::core
