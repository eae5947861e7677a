#include "src/prof/baseline.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "src/core/kernels.h"
#include "src/kernel/vm.h"
#include "src/md/water.h"
#include "src/prof/attribution.h"
#include "src/prof/parallel.h"

namespace smd::prof {

obs::Json capture_baseline(const std::vector<core::VariantResult>& results,
                           const core::ExperimentSetup& setup,
                           const sim::MachineConfig& cfg,
                           const std::vector<net::StepBreakdown>& scaling) {
  obs::Json j = obs::Json::object();
  j.set("schema_version", kBaselineSchemaVersion);
  obs::Json jsetup = obs::Json::object();
  jsetup.set("n_molecules", setup.n_molecules);
  jsetup.set("seed", setup.seed);
  jsetup.set("fixed_list_length", setup.fixed_list_length);
  j.set("setup", std::move(jsetup));
  obs::Json machine = obs::Json::object();
  machine.set("sdr_policy", sim::sdr_policy_name(cfg.sdr_policy));
  machine.set("peak_gflops", cfg.peak_gflops());
  j.set("machine", std::move(machine));

  // One {"variant", "metrics"} entry; every metric is a double.
  const auto entry = [](const std::string& name, obs::Json metrics) {
    obs::Json e = obs::Json::object();
    e.set("variant", name);
    e.set("metrics", std::move(metrics));
    return e;
  };

  obs::Json variants = obs::Json::array();
  for (const auto& r : results) {
    const StallTaxonomy tax = attribute_cycles(r.run);
    obs::Json m = obs::Json::object();
    m.set("cycles", static_cast<double>(r.run.cycles));
    m.set("time_ms", r.time_ms);
    m.set("kernel_busy_cycles", static_cast<double>(r.run.kernel_busy_cycles));
    m.set("mem_busy_cycles", static_cast<double>(r.run.mem_busy_cycles));
    m.set("overlap_cycles", static_cast<double>(r.run.overlap_cycles));
    m.set("sdr_stall_cycles", static_cast<double>(r.run.sdr_stall_cycles));
    m.set("memory_exposed_cycles", static_cast<double>(tax.memory_exposed));
    m.set("scatter_serialization_cycles",
          static_cast<double>(tax.scatter_serialization));
    m.set("schedule_drain_cycles", static_cast<double>(tax.schedule_drain));
    m.set("mem_words", static_cast<double>(r.run.mem_words));
    m.set("srf_peak_words", static_cast<double>(r.run.srf_peak_words));
    m.set("n_kernel_launches", static_cast<double>(r.run.n_kernel_launches));
    m.set("n_memory_ops", static_cast<double>(r.run.n_memory_ops));
    m.set("executed_flops", static_cast<double>(r.run.interp.executed.flops));
    m.set("solution_gflops", r.solution_gflops);
    m.set("ai_measured", r.ai_measured);
    m.set("lrf_fraction", r.lrf_fraction);
    m.set("max_force_rel_err", r.max_force_rel_err);
    // The compiled-VM program size of the variant's kernel, so a change
    // to the lowering shows like any other.
    const kernel::CompiledKernel vm(
        core::build_water_kernel(r.variant, md::spc(),
                                 setup.fixed_list_length),
        cfg.n_clusters);
    m.set("kernel_vm_ops", static_cast<double>(vm.n_ops()));
    variants.push_back(entry(r.name, std::move(m)));
  }
  j.set("variants", std::move(variants));

  obs::Json points = obs::Json::array();
  for (const auto& bd : scaling) {
    const ParallelTaxonomy tax = attribute_parallel(bd);
    obs::Json m = obs::Json::object();
    m.set("step_ns", static_cast<double>(tax.step_ns));
    m.set("compute_node_ns", static_cast<double>(tax.compute_ns));
    m.set("communication_node_ns", static_cast<double>(tax.communication_ns));
    m.set("serialization_node_ns", static_cast<double>(tax.serialization_ns));
    m.set("imbalance_node_ns", static_cast<double>(tax.imbalance_ns));
    m.set("parallel_efficiency", tax.parallel_efficiency());
    m.set("imbalance_ratio", bd.imbalance_ratio);
    m.set("halo_fraction", bd.halo_fraction);
    points.push_back(entry("p=" + std::to_string(bd.nodes), std::move(m)));
  }
  j.set("scaling", std::move(points));
  return j;
}

obs::Json load_baseline(const std::string& path, std::string* text) {
  std::string bytes = obs::read_file(path);
  obs::Json j = obs::Json::parse(bytes);
  if (text != nullptr) *text = std::move(bytes);
  const obs::Json* version = j.find("schema_version");
  if (version == nullptr || !version->is_number() ||
      version->as_double() != kBaselineSchemaVersion) {
    throw std::runtime_error(
        path + ": baseline schema_version " +
        (version == nullptr ? std::string("missing") : version->dump()) +
        ", this build reads only " + std::to_string(kBaselineSchemaVersion) +
        "; re-record it with scripts/bench_baseline.sh");
  }
  return j;
}

std::string diff_baseline(const obs::Json& file, const obs::Json& capture) {
  return obs::diff(file, obs::Json::parse(capture.dump(2)));
}

std::string diff_baseline_text(const std::string& file_text,
                               const obs::Json& capture) {
  const std::string want = obs::file_text(capture);
  if (file_text == want) return "";
  // The next line of `text` from `pos` (without its newline), or nullopt
  // past the end.
  const auto next_line = [](const std::string& text, std::size_t& pos)
      -> std::optional<std::string> {
    if (pos >= text.size()) return std::nullopt;
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    return line;
  };
  const auto shown = [](const std::optional<std::string>& line) {
    return line ? "`" + *line + "`" : std::string("missing");
  };
  std::size_t a = 0, b = 0;
  for (int n = 1;; ++n) {
    const auto got = next_line(file_text, a);
    const auto rec = next_line(want, b);
    if (!got && !rec) return "end of file: no final newline";
    if (got != rec) {
      return "line " + std::to_string(n) + ": " + shown(got) + " vs " +
             shown(rec);
    }
  }
}

}  // namespace smd::prof
