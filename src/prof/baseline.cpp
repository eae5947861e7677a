#include "src/prof/baseline.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "src/core/kernels.h"
#include "src/core/schema.h"
#include "src/kernel/vm.h"
#include "src/md/water.h"
#include "src/prof/attribution.h"
#include "src/prof/parallel.h"
#include "src/util/table.h"

namespace smd::prof {
namespace {

/// Metric -> tolerance table. Structural counts are exact; cycle totals
/// get 5%; small stall buckets get looser relative slack plus an absolute
/// floor so a handful of cycles of jitter in a tiny bucket cannot fail
/// the gate.
struct NamedPolicy {
  const char* name;
  MetricPolicy policy;
};

constexpr NamedPolicy kPolicies[] = {
    {"cycles", {true, 0.05, 0.0}},
    {"time_ms", {true, 0.05, 0.0}},
    {"kernel_busy_cycles", {true, 0.10, 0.0}},
    {"mem_busy_cycles", {true, 0.10, 0.0}},
    {"overlap_cycles", {false, 0.10, 0.0}},
    {"sdr_stall_cycles", {true, 0.15, 128.0}},
    {"memory_exposed_cycles", {true, 0.15, 128.0}},
    {"scatter_serialization_cycles", {true, 0.15, 128.0}},
    {"schedule_drain_cycles", {true, 0.15, 128.0}},
    {"mem_words", {true, 0.02, 0.0}},
    {"srf_peak_words", {true, 0.10, 0.0}},
    {"n_kernel_launches", {true, 0.0, 0.0}},
    {"n_memory_ops", {true, 0.0, 0.0}},
    {"executed_flops", {true, 0.0, 0.0}},
    {"solution_gflops", {false, 0.05, 0.0}},
    {"ai_measured", {false, 0.05, 0.0}},
    {"lrf_fraction", {false, 0.02, 0.0}},
    {"max_force_rel_err", {true, 0.0, 1e-9}},
    // Compiled-VM program size (kernel/vm.h): a structural count, exact by
    // construction. Growth means the lowering changed -- refresh on
    // intentional kernel/lowering changes only.
    {"kernel_vm_ops", {true, 0.0, 0.0}},
    // Multi-node scaling decomposition (schema v2). Node-time buckets in
    // integer ns; small buckets (latency, imbalance) get absolute floors
    // so single-digit-ns calibration drift cannot fail the gate.
    {"step_ns", {true, 0.05, 0.0}},
    {"compute_node_ns", {true, 0.05, 0.0}},
    {"communication_node_ns", {true, 0.05, 64.0}},
    {"serialization_node_ns", {true, 0.10, 64.0}},
    {"imbalance_node_ns", {true, 0.15, 256.0}},
    {"parallel_efficiency", {false, 0.02, 0.0}},
    {"imbalance_ratio", {true, 0.10, 0.01}},
    {"halo_fraction", {true, 0.0, 1e-9}},
};

double metric_or_throw(const VariantBaseline& v, const std::string& name,
                       bool* found) {
  for (const auto& m : v.metrics) {
    if (m.name == name) {
      *found = true;
      return m.value;
    }
  }
  *found = false;
  return 0.0;
}

}  // namespace

MetricPolicy policy_for(const std::string& metric) {
  for (const auto& p : kPolicies) {
    if (metric == p.name) return p.policy;
  }
  return MetricPolicy{};
}

Baseline Baseline::capture(const std::vector<core::VariantResult>& results,
                           const core::ExperimentSetup& setup,
                           const sim::MachineConfig& cfg) {
  Baseline b;
  b.bench_schema_version = core::kBenchSchemaVersion;
  b.n_molecules = setup.n_molecules;
  b.seed = setup.seed;
  b.fixed_list_length = setup.fixed_list_length;
  b.sdr_policy = sim::sdr_policy_name(cfg.sdr_policy);
  b.peak_gflops = cfg.peak_gflops();
  for (const auto& r : results) {
    const StallTaxonomy tax = attribute_cycles(r.run);
    VariantBaseline v;
    v.variant = r.name;
    auto put = [&v](const char* name, double value) {
      v.metrics.push_back({name, value});
    };
    put("cycles", static_cast<double>(r.run.cycles));
    put("time_ms", r.time_ms);
    put("kernel_busy_cycles", static_cast<double>(r.run.kernel_busy_cycles));
    put("mem_busy_cycles", static_cast<double>(r.run.mem_busy_cycles));
    put("overlap_cycles", static_cast<double>(r.run.overlap_cycles));
    put("sdr_stall_cycles", static_cast<double>(r.run.sdr_stall_cycles));
    put("memory_exposed_cycles", static_cast<double>(tax.memory_exposed));
    put("scatter_serialization_cycles",
        static_cast<double>(tax.scatter_serialization));
    put("schedule_drain_cycles", static_cast<double>(tax.schedule_drain));
    put("mem_words", static_cast<double>(r.run.mem_words));
    put("srf_peak_words", static_cast<double>(r.run.srf_peak_words));
    put("n_kernel_launches", static_cast<double>(r.run.n_kernel_launches));
    put("n_memory_ops", static_cast<double>(r.run.n_memory_ops));
    put("executed_flops", static_cast<double>(r.run.interp.executed.flops));
    put("solution_gflops", r.solution_gflops);
    put("ai_measured", r.ai_measured);
    put("lrf_fraction", r.lrf_fraction);
    put("max_force_rel_err", r.max_force_rel_err);
    // Pin the compiled-VM program size for this variant's kernel so
    // accidental lowering bloat gates like any other regression.
    const kernel::CompiledKernel vm(
        core::build_water_kernel(r.variant, md::spc(),
                                 setup.fixed_list_length),
        cfg.n_clusters);
    put("kernel_vm_ops", static_cast<double>(vm.n_ops()));
    b.variants.push_back(std::move(v));
  }
  return b;
}

void Baseline::capture_scaling(
    const std::vector<net::StepBreakdown>& breakdowns) {
  for (const auto& bd : breakdowns) {
    const ParallelTaxonomy tax = attribute_parallel(bd);
    VariantBaseline v;
    v.variant = "p=" + std::to_string(bd.nodes);
    auto put = [&v](const char* name, double value) {
      v.metrics.push_back({name, value});
    };
    put("step_ns", static_cast<double>(tax.step_ns));
    put("compute_node_ns", static_cast<double>(tax.compute_ns));
    put("communication_node_ns", static_cast<double>(tax.communication_ns));
    put("serialization_node_ns", static_cast<double>(tax.serialization_ns));
    put("imbalance_node_ns", static_cast<double>(tax.imbalance_ns));
    put("parallel_efficiency", tax.parallel_efficiency());
    put("imbalance_ratio", bd.imbalance_ratio);
    put("halo_fraction", bd.halo_fraction);
    scaling.push_back(std::move(v));
  }
}

obs::Json Baseline::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("schema_version", schema_version);
  j.set("bench_schema_version", bench_schema_version);
  obs::Json setup = obs::Json::object();
  setup.set("n_molecules", n_molecules);
  setup.set("seed", seed);
  setup.set("fixed_list_length", fixed_list_length);
  j.set("setup", std::move(setup));
  obs::Json machine = obs::Json::object();
  machine.set("sdr_policy", sdr_policy);
  machine.set("peak_gflops", peak_gflops);
  j.set("machine", std::move(machine));
  auto section_json = [](const std::vector<VariantBaseline>& section) {
    obs::Json arr = obs::Json::array();
    for (const auto& v : section) {
      obs::Json jv = obs::Json::object();
      jv.set("variant", v.variant);
      obs::Json metrics = obs::Json::object();
      for (const auto& m : v.metrics) metrics.set(m.name, m.value);
      jv.set("metrics", std::move(metrics));
      arr.push_back(std::move(jv));
    }
    return arr;
  };
  j.set("variants", section_json(variants));
  j.set("scaling", section_json(scaling));
  return j;
}

Baseline Baseline::from_json(const obs::Json& j) {
  Baseline b;
  b.schema_version = static_cast<int>(j.at("schema_version").as_int());
  // v1 files are still readable: they predate the scaling section, which
  // stays empty (compare() then simply has no scaling rows to gate).
  if (b.schema_version < 1 || b.schema_version > kBaselineSchemaVersion) {
    throw std::runtime_error(
        "unsupported baseline schema_version " +
        std::to_string(b.schema_version) + " (this build reads 1.." +
        std::to_string(kBaselineSchemaVersion) + "); re-record the baseline");
  }
  b.bench_schema_version =
      static_cast<int>(j.at("bench_schema_version").as_int());
  const obs::Json& setup = j.at("setup");
  b.n_molecules = static_cast<int>(setup.at("n_molecules").as_int());
  b.seed = static_cast<std::uint64_t>(setup.at("seed").as_int());
  b.fixed_list_length =
      static_cast<int>(setup.at("fixed_list_length").as_int());
  const obs::Json& machine = j.at("machine");
  b.sdr_policy = machine.at("sdr_policy").as_string();
  b.peak_gflops = machine.at("peak_gflops").as_double();
  auto read_section = [](const obs::Json& arr,
                         std::vector<VariantBaseline>& out) {
    for (const obs::Json& jv : arr.elements()) {
      VariantBaseline v;
      v.variant = jv.at("variant").as_string();
      for (const auto& [name, value] : jv.at("metrics").items()) {
        v.metrics.push_back({name, value.as_double()});
      }
      out.push_back(std::move(v));
    }
  };
  read_section(j.at("variants"), b.variants);
  if (const obs::Json* scaling = j.find("scaling")) {
    read_section(*scaling, b.scaling);
  }
  return b;
}

void Baseline::write(const std::string& path) const {
  obs::write_file(to_json(), path);
}

Baseline Baseline::load(const std::string& path) {
  return from_json(obs::load_file(path));
}

std::vector<MetricDelta> CompareReport::regressions() const {
  std::vector<MetricDelta> out;
  for (const auto& d : deltas) {
    if (d.regression) out.push_back(d);
  }
  return out;
}

std::vector<MetricDelta> CompareReport::improvements() const {
  std::vector<MetricDelta> out;
  for (const auto& d : deltas) {
    if (d.improvement) out.push_back(d);
  }
  return out;
}

CompareReport compare(const Baseline& base, const Baseline& current) {
  CompareReport rep;
  if (base.n_molecules != current.n_molecules ||
      base.seed != current.seed ||
      base.fixed_list_length != current.fixed_list_length) {
    rep.notes.push_back("experiment setup differs from the baseline's");
  }
  if (base.sdr_policy != current.sdr_policy ||
      base.peak_gflops != current.peak_gflops) {
    rep.notes.push_back("machine configuration differs from the baseline's");
  }
  auto compare_section = [&rep](const std::vector<VariantBaseline>& base_sec,
                                const std::vector<VariantBaseline>& cur_sec,
                                const char* kind) {
    for (const auto& bv : base_sec) {
      const VariantBaseline* cv = nullptr;
      for (const auto& v : cur_sec) {
        if (v.variant == bv.variant) {
          cv = &v;
          break;
        }
      }
      if (cv == nullptr) {
        rep.notes.push_back(std::string(kind) + " '" + bv.variant +
                            "' missing from the current run");
        continue;
      }
      for (const auto& m : bv.metrics) {
        bool found = false;
        const double cur = metric_or_throw(*cv, m.name, &found);
        if (!found) {
          rep.notes.push_back("metric '" + bv.variant + "." + m.name +
                              "' missing from the current run");
          continue;
        }
        MetricDelta d;
        d.variant = bv.variant;
        d.metric = m.name;
        d.baseline = m.value;
        d.current = cur;
        const double denom = std::abs(m.value);
        d.rel_change = denom > 0.0 ? (cur - m.value) / denom
                                   : (cur == m.value ? 0.0 : 1.0);
        const MetricPolicy pol = policy_for(m.name);
        const double drift =
            pol.lower_is_better ? cur - m.value : m.value - cur;
        if (drift > pol.rel_tol * denom + pol.abs_floor) {
          d.regression = true;
        } else if (-drift > pol.rel_tol * denom + pol.abs_floor) {
          d.improvement = true;
        }
        rep.deltas.push_back(std::move(d));
      }
    }
  };
  compare_section(base.variants, current.variants, "variant");
  compare_section(base.scaling, current.scaling, "scaling point");
  return rep;
}

std::string format_compare(const CompareReport& report) {
  std::ostringstream os;
  for (const auto& note : report.notes) os << "note: " << note << "\n";
  const auto regs = report.regressions();
  const auto imps = report.improvements();
  if (!regs.empty()) {
    util::Table t({"Variant", "Metric", "Baseline", "Current", "Change"});
    for (const auto& d : regs) {
      char change[32];
      std::snprintf(change, sizeof change, "%+.2f%%", 100.0 * d.rel_change);
      t.add_row({d.variant, d.metric, std::to_string(d.baseline),
                 std::to_string(d.current), change});
    }
    os << "REGRESSIONS:\n" << t.render();
  }
  if (!imps.empty()) {
    os << "improvements (informational):\n";
    for (const auto& d : imps) {
      char change[32];
      std::snprintf(change, sizeof change, "%+.2f%%", 100.0 * d.rel_change);
      os << "  " << d.variant << "." << d.metric << ": " << d.baseline
         << " -> " << d.current << " (" << change << ")\n";
    }
  }
  os << (report.ok() ? "baseline check OK" : "baseline check FAILED")
     << " (" << report.deltas.size() << " metrics, " << regs.size()
     << " regressions, " << imps.size() << " improvements)\n";
  return os.str();
}

}  // namespace smd::prof
