// smdcheck: static verifier + lint driver for every built-in kernel,
// stream program and blocking scheme.
//
//   smdcheck [--all] [--n-molecules N] [--verbose] [--json out.json]
//   smdcheck --dataflow [--all] [--json out.json]
//   smdcheck --opt-report [--json out.json]
//
// Default mode runs the IR verifier (analysis/verify_ir.h) over every
// built-in kernel -- the four variant kernels, the expanded+energy kernel,
// the multi-site kernels and the blocked kernel -- then builds each
// variant's layout and strip-mined stream program for a small water box
// and runs the stream-program checker (analysis/check_stream.h) including
// the scatter-add race detector over the controller's dependence graph,
// and finally walks the blocking schemes' interaction assignments. Exit
// status is 0 iff no check reported an error; warnings are printed (and
// counted in the JSON artifact) but do not fail the run.
//
// --dataflow prints the dataflow engine's per-kernel liveness report
// (exact peak LRF pressure vs. the machine bound and vs. the dynamic
// replay oracle) and fails if the static and measured pressures disagree
// or the bound is exceeded. --opt-report runs the verified optimizer over
// every kernel (plus the deliberately naive expanded kernel) and prints
// what each pass removed and the scheduled cycles/iteration before and
// after; it fails if an optimized kernel no longer verifies cleanly or
// tripped the schedule non-regression guard.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_io.h"
#include "src/analysis/check_stream.h"
#include "src/analysis/dataflow.h"
#include "src/analysis/verify_ir.h"
#include "src/core/blocking.h"
#include "src/core/kernels.h"
#include "src/core/program.h"
#include "src/core/run.h"
#include "src/kernel/opt.h"
#include "src/md/water.h"
#include "src/sim/config.h"

namespace {

using smd::analysis::Diagnostics;
using smd::analysis::Severity;

/// Every built-in kernel definition, in catalogue order. `with_naive`
/// additionally appends the deliberately inefficient expanded kernel
/// (optimizer demo fodder; not a shipped kernel, so the default verify
/// pass skips it).
std::vector<smd::kernel::KernelDef> builtin_kernels(bool with_naive) {
  namespace core = smd::core;
  namespace md = smd::md;
  const md::WaterModel model = md::spc();
  std::vector<smd::kernel::KernelDef> defs;
  for (core::Variant v : core::kAllVariants) {
    defs.push_back(core::build_water_kernel(v, model));
  }
  defs.push_back(core::build_expanded_energy_kernel(model));
  for (const md::WaterModel& m : {md::spc(), md::tip5p(), md::ppc()}) {
    defs.push_back(core::build_multisite_kernel(m));
  }
  defs.push_back(core::build_blocked_kernel(model, 1.0, 64));
  if (with_naive) defs.push_back(core::build_expanded_naive_kernel(model));
  return defs;
}

/// `smdcheck --dataflow`: per-kernel liveness/pressure report. Returns the
/// number of kernels whose static pressure disagrees with the dynamic
/// replay oracle or exceeds the machine LRF bound.
int run_dataflow_report(smd::benchio::JsonOut& json, int lrf_words) {
  namespace analysis = smd::analysis;
  smd::obs::Json list = smd::obs::Json::array();
  int failures = 0;
  std::printf("%-28s %6s %7s %7s %8s %6s\n", "kernel", "regs", "points",
              "static", "dynamic", "bound");
  for (const smd::kernel::KernelDef& def : builtin_kernels(true)) {
    const analysis::KernelDataflow dfa(def);
    const int stat = dfa.max_live_pressure();
    const int dyn = analysis::dynamic_lrf_pressure(def);
    const auto ranges = dfa.live_ranges();
    int longest = 0;
    for (const auto& r : ranges) {
      longest = std::max(longest, r.last_point - r.first_point + 1);
    }
    const bool ok = stat == dyn && stat <= lrf_words;
    if (!ok) ++failures;
    std::printf("%-28s %6d %7d %7d %8d %6d %s\n", def.name.c_str(),
                def.n_regs, dfa.n_points(), stat, dyn, lrf_words,
                ok ? "ok" : "FAIL");
    smd::obs::Json j = smd::obs::Json::object();
    j.set("kernel", def.name);
    j.set("n_regs", def.n_regs);
    j.set("n_points", dfa.n_points());
    j.set("static_pressure", stat);
    j.set("dynamic_pressure", dyn);
    j.set("lrf_words", lrf_words);
    j.set("live_registers", static_cast<int>(ranges.size()));
    j.set("longest_live_range", longest);
    j.set("ok", ok);
    list.push_back(std::move(j));
  }
  json.root().set("dataflow", std::move(list));
  return failures;
}

/// `smdcheck --opt-report`: run the verified optimizer over every kernel
/// and report what the passes removed. Returns the number of kernels whose
/// optimized form failed to re-verify or tripped the regression guard.
int run_opt_report(smd::benchio::JsonOut& json,
                   const smd::sim::MachineConfig& cfg) {
  namespace analysis = smd::analysis;
  namespace kernel = smd::kernel;
  smd::obs::Json list = smd::obs::Json::array();
  int failures = 0;
  analysis::VerifyOptions vopts;
  vopts.lrf_words = cfg.lrf_words_per_cluster;
  for (const kernel::KernelDef& def : builtin_kernels(true)) {
    kernel::OptReport rep;
    const kernel::KernelDef opt = kernel::optimize_kernel(def, &rep, cfg.sched);
    const Diagnostics diags = analysis::verify_kernel(opt, vopts);
    const bool ok = diags.errors() == 0 && !rep.reverted_schedule_regression;
    if (!ok) ++failures;
    std::printf("%s%s", rep.str().c_str(),
                diags.errors() > 0 ? diags.format().c_str() : "");
    smd::obs::Json j = smd::obs::Json::object();
    j.set("kernel", rep.kernel);
    j.set("const_folded", rep.const_folded);
    j.set("copies_propagated", rep.copies_propagated);
    j.set("cse_replaced", rep.cse_replaced);
    j.set("dce_removed", rep.dce_removed);
    j.set("dead_stream_reads_removed", rep.dead_stream_reads_removed);
    j.set("dead_streams_removed", rep.dead_streams_removed);
    j.set("passes", rep.passes);
    j.set("cycles_per_iteration_before", rep.cycles_per_iteration_before);
    j.set("cycles_per_iteration_after", rep.cycles_per_iteration_after);
    j.set("reverted_schedule_regression", rep.reverted_schedule_regression);
    j.set("reverifies_clean", diags.errors() == 0);
    list.push_back(std::move(j));
  }
  json.root().set("opt_report", std::move(list));
  return failures;
}

struct Report {
  smd::obs::Json units = smd::obs::Json::array();
  int errors = 0;
  int warnings = 0;
  bool verbose = false;

  void add(const std::string& kind, const std::string& name,
           const Diagnostics& diags) {
    errors += diags.errors();
    warnings += diags.warnings();
    int notes = 0;
    for (const auto& d : diags.all()) {
      if (d.severity == Severity::kNote) {
        ++notes;
        if (verbose) std::printf("  %s\n", d.str().c_str());
      } else {
        std::printf("  %s\n", d.str().c_str());
      }
    }
    if (diags.errors() > 0) {
      std::printf("%-8s %-24s FAIL (%d errors, %d warnings)\n", kind.c_str(),
                  name.c_str(), diags.errors(), diags.warnings());
    } else {
      std::printf("%-8s %-24s ok (%d warnings, %d notes)\n", kind.c_str(),
                  name.c_str(), diags.warnings(), notes);
    }
    smd::obs::Json u = diags.to_json();
    u.set("kind", kind);
    u.set("unit", name);
    units.push_back(std::move(u));
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace smd;
  static const char* kUsage =
      "smdcheck [--dataflow] [--opt-report] [--n-molecules N] [--verbose] "
      "[--all] [--json out.json]";
  benchio::check_flags(argc, argv, "smdcheck", kUsage,
                       {"--n-molecules", "--json"},
                       {"--dataflow", "--opt-report", "--verbose", "--all"});
  benchio::JsonOut json(argc, argv, "smdcheck");

  const int n_molecules =
      benchio::int_flag_or_exit(argc, argv, "smdcheck", "n-molecules", 64,
                                kUsage);
  Report report;
  bool dataflow_mode = false;
  bool opt_report_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verbose") == 0) report.verbose = true;
    if (std::strcmp(argv[i], "--dataflow") == 0) dataflow_mode = true;
    if (std::strcmp(argv[i], "--opt-report") == 0) opt_report_mode = true;
  }

  const sim::MachineConfig cfg = sim::MachineConfig::merrimac();

  if (dataflow_mode || opt_report_mode) {
    int failures = 0;
    if (dataflow_mode) {
      failures += run_dataflow_report(json, cfg.lrf_words_per_cluster);
    }
    if (opt_report_mode) failures += run_opt_report(json, cfg);
    json.root().set("failures", failures);
    std::printf("smdcheck: %d failures\n", failures);
    return failures > 0 ? 1 : 0;
  }

  analysis::VerifyOptions vopts;
  vopts.lrf_words = cfg.lrf_words_per_cluster;

  // ---- Pass 1: IR verifier over every built-in kernel. ---------------------
  const md::WaterModel model = md::spc();
  for (core::Variant v : core::kAllVariants) {
    const kernel::KernelDef def = core::build_water_kernel(v, model);
    report.add("kernel", def.name, analysis::verify_kernel(def, vopts));
  }
  {
    const kernel::KernelDef def = core::build_expanded_energy_kernel(model);
    report.add("kernel", def.name, analysis::verify_kernel(def, vopts));
  }
  for (const md::WaterModel& m : {md::spc(), md::tip5p(), md::ppc()}) {
    const kernel::KernelDef def = core::build_multisite_kernel(m);
    report.add("kernel", def.name, analysis::verify_kernel(def, vopts));
  }
  {
    const kernel::KernelDef def = core::build_blocked_kernel(model, 1.0, 64);
    report.add("kernel", def.name, analysis::verify_kernel(def, vopts));
  }

  // ---- Pass 2: stream-program checker per variant. -------------------------
  core::ExperimentSetup setup;
  setup.n_molecules = n_molecules;
  const core::Problem problem = core::Problem::make(setup);
  for (core::Variant v : core::kAllVariants) {
    core::LayoutOptions lopts;
    lopts.n_clusters = cfg.n_clusters;
    lopts.fixed_list_length = setup.fixed_list_length;
    lopts.srf_words = cfg.srf_words;
    const core::VariantLayout layout =
        core::build_layout(v, problem.system, problem.half_list, lopts);
    const kernel::KernelDef kdef =
        core::build_water_kernel(v, problem.system.model());
    mem::GlobalMemory memory;
    const core::ProblemImage image = core::upload_system(memory, problem.system);
    const sim::StreamProgram program =
        core::build_program(memory, image, layout, kdef);
    analysis::StreamCheckOptions sopts;
    sopts.program_name = std::string("program_") + core::variant_name(v);
    sopts.n_clusters = cfg.n_clusters;
    sopts.srf_words = cfg.srf_words;
    sopts.memory_words = memory.size();
    report.add("program", sopts.program_name,
               analysis::check_stream_program(program, sopts));
  }

  // ---- Pass 3: scatter-add race check over the blocking schemes. -----------
  for (int cells : core::builtin_blocking_cells()) {
    const core::BlockingScheme scheme =
        core::build_blocking_scheme(problem.system, cells, cfg.n_clusters);
    report.add("scheme", scheme.name,
               analysis::check_scatter_assignment(scheme.to_scatter_assignment()));
  }

  std::printf("smdcheck: %d errors, %d warnings\n", report.errors,
              report.warnings);
  json.root().set("n_molecules", n_molecules);
  json.root().set("errors", report.errors);
  json.root().set("warnings", report.warnings);
  json.root().set("units", std::move(report.units));
  return report.errors > 0 ? 1 : 0;
}
