#include "src/prof/roofline.h"

#include <algorithm>
#include <cstdio>

#include "src/util/table.h"

namespace smd::prof {
namespace {

std::string num(double v, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

}  // namespace

const char* binding_verdict(std::uint64_t kernel_busy_cycles,
                            std::uint64_t mem_busy_cycles) {
  return kernel_busy_cycles >= mem_busy_cycles ? "compute" : "memory";
}

double paper_lrf_fraction(core::Variant v) {
  switch (v) {
    case core::Variant::kExpanded: return 0.89;
    case core::Variant::kFixed: return 0.93;
    case core::Variant::kVariable: return 0.95;
    case core::Variant::kDuplicated: return 0.96;
  }
  return 0.0;
}

RooflinePoint roofline_point(const core::VariantResult& r,
                             const sim::MachineConfig& cfg) {
  RooflinePoint p;
  p.variant = r.name;
  p.ai_flops_per_word = r.ai_measured;
  p.ai_flops_per_byte = r.ai_measured / 8.0;
  p.peak_gflops = cfg.peak_gflops();
  p.dram_bw_gbps = cfg.dram_words_per_cycle() * 8.0 * cfg.clock_ghz;
  p.cache_bw_gbps = cfg.mem.cache.n_banks * 8.0 * cfg.clock_ghz;
  p.dram_bound_gflops = p.ai_flops_per_byte * p.dram_bw_gbps;
  p.roofline_gflops = std::min(p.peak_gflops, p.dram_bound_gflops);
  p.sustained_gflops = r.solution_gflops;
  p.fraction_of_roofline =
      p.roofline_gflops > 0.0 ? p.sustained_gflops / p.roofline_gflops : 0.0;
  p.model_binding =
      p.dram_bound_gflops < p.peak_gflops ? "memory" : "compute";
  p.measured_binding = binding_verdict(r.run.kernel_busy_cycles,
                                       r.run.mem_busy_cycles);
  p.lrf_fraction = r.lrf_fraction;
  p.paper_lrf = paper_lrf_fraction(r.variant);
  return p;
}

obs::Json to_json(const RooflinePoint& p) {
  obs::Json j = obs::Json::object();
  j.set("variant", p.variant);
  j.set("ai_flops_per_word", p.ai_flops_per_word);
  j.set("ai_flops_per_byte", p.ai_flops_per_byte);
  j.set("peak_gflops", p.peak_gflops);
  j.set("dram_bw_gbps", p.dram_bw_gbps);
  j.set("cache_bw_gbps", p.cache_bw_gbps);
  j.set("dram_bound_gflops", p.dram_bound_gflops);
  j.set("roofline_gflops", p.roofline_gflops);
  j.set("sustained_gflops", p.sustained_gflops);
  j.set("fraction_of_roofline", p.fraction_of_roofline);
  j.set("model_binding", p.model_binding);
  j.set("measured_binding", p.measured_binding);
  j.set("lrf_fraction", p.lrf_fraction);
  j.set("paper_lrf_fraction", p.paper_lrf);
  return j;
}

std::string format_roofline_table(const std::vector<RooflinePoint>& points) {
  util::Table t({"Variant", "AI (f/w)", "Roof GFLOPS", "Sustained", "% roof",
                 "Model", "Measured", "%LRF", "%LRF paper"});
  for (const auto& p : points) {
    t.add_row({p.variant, num(p.ai_flops_per_word, 1),
               num(p.roofline_gflops, 1), num(p.sustained_gflops, 1),
               num(100.0 * p.fraction_of_roofline, 1), p.model_binding,
               p.measured_binding, num(100.0 * p.lrf_fraction, 1),
               num(100.0 * p.paper_lrf, 0)});
  }
  return t.render();
}

}  // namespace smd::prof
