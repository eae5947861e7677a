// Per-layer probes for traced runs: each calls one module's public
// functions from here, with a span per call.
#include <algorithm>
#include <set>

#include "hostbench/hostbench.h"
#include "src/analysis/check_stream.h"
#include "src/analysis/verify_ir.h"
#include "src/core/kernels.h"
#include "src/kernel/schedule.h"
#include "src/kernel/vm.h"
#include "src/mem/memsys.h"
#include "src/obs/registry.h"
#include "src/sim/kernelexec.h"
#include "src/sim/machine.h"
#include "src/tune/runner.h"

namespace smd::hostbench {
namespace {

core::LayoutOptions layout_options(const core::Problem& problem,
                                   const sim::MachineConfig& cfg) {
  core::LayoutOptions lopts;
  lopts.n_clusters = cfg.n_clusters;
  lopts.fixed_list_length = problem.setup.fixed_list_length;
  lopts.strip_rounds = problem.setup.strip_rounds;
  lopts.srf_words = cfg.srf_words;
  return lopts;
}

}  // namespace

core::ExperimentSetup experiment(int n_molecules, std::uint64_t seed) {
  core::ExperimentSetup setup;
  setup.n_molecules = n_molecules;
  setup.seed = seed;
  return setup;
}

core::Problem make_problem_traced(const core::ExperimentSetup& setup,
                                  Tracer& tracer) {
  Tracer::Chain chain("problem_make", std::to_string(setup.n_molecules));
  md::WaterBoxOptions opts;
  opts.n_molecules = setup.n_molecules;
  opts.seed = setup.seed;
  core::Problem p{setup, md::build_water_box(opts), {}, {}, 0.0};
  chain.mark("md.water_box");
  p.half_list = md::build_neighbor_list(p.system, setup.cutoff);
  chain.mark("md.neighbor_list");
  p.reference = md::compute_forces_reference(p.system, p.half_list);
  chain.mark("md.reference_forces");
  p.flops_per_interaction =
      static_cast<double>(core::interaction_flops(p.system.model()).flops);
  chain.mark("core.flop_census");
  tracer.record(chain);
  return p;
}

VariantRun traced_run_variant(const core::Problem& problem, core::Variant v,
                              Tracer& tracer) {
  // The steps of core::run_variant and its assemble_result, in order.
  const sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  obs::CounterRegistry& reg = obs::CounterRegistry::global();
  VariantRun out;
  Tracer::Chain chain("run_variant", core::variant_name(v));
  const core::VariantLayout layout = core::build_layout(
      v, problem.system, problem.half_list, layout_options(problem, cfg));
  chain.mark("core.layout");
  const kernel::KernelDef kdef = core::build_water_kernel(
      v, problem.system.model(), problem.setup.fixed_list_length);
  chain.mark("core.kernel_build");
  sim::Machine machine(cfg);
  const core::ProblemImage image =
      core::upload_system(machine.memory(), problem.system);
  chain.mark("core.upload");
  const sim::StreamProgram program =
      core::build_program(machine.memory(), image, layout, kdef);
  chain.mark("core.program_build");
  const std::int64_t scheduled0 = reg.counter("sim.kernels_scheduled");
  const std::int64_t t_sim = obs::monotonic_ns();
  out.run = machine.run(program);
  chain.mark("sim.run");
  out.sim_run_ms = ms(chain.end_ns() - t_sim);
  out.schedules_in_sim = reg.counter("sim.kernels_scheduled") - scheduled0;
  out.max_force_rel_err = md::max_force_rel_err(
      problem.reference.force, core::read_forces(machine.memory(), image));
  chain.mark("core.validate");
  {
    sim::KernelCostCache costs(cfg.sched);
    (void)costs.get(kdef);
  }
  chain.mark("core.assemble");
  tracer.record(chain);

  std::set<const kernel::KernelDef*> kernels;
  for (const sim::StreamInstr& instr : program.instrs) {
    if (const auto* k = std::get_if<sim::KernelOp>(&instr)) kernels.insert(k->def);
  }
  out.kernels_compiled = static_cast<int>(kernels.size());
  return out;
}

StandaloneCosts probe_standalone(const core::Problem& problem, core::Variant v,
                                 Tracer& tracer) {
  const sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  const core::VariantLayout layout = core::build_layout(
      v, problem.system, problem.half_list, layout_options(problem, cfg));
  const kernel::KernelDef kdef = core::build_water_kernel(
      v, problem.system.model(), problem.setup.fixed_list_length);
  sim::Machine machine(cfg);
  const core::ProblemImage image =
      core::upload_system(machine.memory(), problem.system);
  const sim::StreamProgram program =
      core::build_program(machine.memory(), image, layout, kdef);

  // The options the controller's and the scheduler's pre-flights use.
  analysis::StreamCheckOptions check;
  check.n_clusters = cfg.n_clusters;
  check.srf_words = cfg.srf_words;
  check.memory_words = machine.memory().size();
  analysis::VerifyOptions verify;
  verify.report_pressure = false;
  verify.dataflow = false;

  Tracer::Chain chain("standalone", core::variant_name(v));
  (void)analysis::check_stream_program(program, check);
  chain.mark("analysis.stream_check");
  (void)analysis::verify_kernel(kdef, verify);
  chain.mark("analysis.kernel_verify");
  (void)kernel::schedule_body(kdef, cfg.sched);
  chain.mark("kernel.schedule");
  { const kernel::CompiledKernel vm(kdef, cfg.n_clusters); }
  chain.mark("kernel.vm_compile");
  tracer.record(chain);

  const auto last = [&](const char* name) { return tracer.samples(name).back(); };
  return StandaloneCosts{last("analysis.stream_check"), last("kernel.schedule"),
                         last("kernel.vm_compile")};
}

void report_variant_layers(const std::vector<std::vector<VariantRun>>& rounds,
                           const std::vector<StandaloneCosts>& standalone,
                           const Tracer& tracer, Outcome& out) {
  for (const char* layer : {"core.layout", "core.kernel_build", "core.upload",
                            "core.program_build", "core.validate",
                            "core.assemble", "sim.run",
                            "analysis.stream_check", "analysis.kernel_verify",
                            "kernel.schedule", "kernel.vm_compile"}) {
    out.set(std::string(layer) + "_ms", tracer.median_ms(layer), "ms");
  }

  // Every round must repeat the first one's simulated statistics exactly.
  const std::vector<VariantRun>& first = rounds.front();
  for (std::size_t r = 1; r < rounds.size(); ++r) {
    for (std::size_t i = 0; i < first.size(); ++i) {
      if (rounds[r][i].run.cycles != first[i].run.cycles ||
          rounds[r][i].run.mem_words != first[i].run.mem_words) {
        out.fail("round " + std::to_string(r) + " " +
                 core::variant_name(kVariants[i]) +
                 ": cycles/words differ from round 0");
      }
    }
  }

  // sim.engine_self_ms (derived): the simulation's own time, i.e. sim.run
  // minus what the standalone calls say its pre-flight stream check,
  // kernel schedules and VM compiles cost. Kernel verification runs inside
  // schedule_body and the CompiledKernel constructor, so it is not
  // subtracted a second time.
  std::vector<double> self_ms;
  double cycles = 0.0;
  double run_s = 0.0;
  for (const std::vector<VariantRun>& round : rounds) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      const VariantRun& vr = round[i];
      const StandaloneCosts& c = standalone[i];
      self_ms.push_back(vr.sim_run_ms - c.stream_check_ms -
                        static_cast<double>(vr.schedules_in_sim) * c.schedule_ms -
                        static_cast<double>(vr.kernels_compiled) * c.vm_compile_ms);
      cycles += static_cast<double>(vr.run.cycles);
      run_s += vr.sim_run_ms / 1e3;
    }
  }
  out.set("sim.engine_self_ms", quantile(self_ms, 0.5), "ms");
  out.set("sim.cycles_per_host_s", cycles / run_s, "1/s");

  // Simulated counts of one round of the four variants.
  double sim_cycles = 0, launches = 0, mem_ops = 0, words = 0, dram_words = 0,
         busy = 0, hits = 0, accesses = 0;
  for (const VariantRun& vr : first) {
    sim_cycles += static_cast<double>(vr.run.cycles);
    launches += vr.run.n_kernel_launches;
    mem_ops += vr.run.n_memory_ops;
    words += static_cast<double>(vr.run.mem_words);
    dram_words += static_cast<double>(vr.run.dram_stats.read_words +
                                      vr.run.dram_stats.write_words);
    busy += static_cast<double>(vr.run.mem_busy_cycles);
    hits += static_cast<double>(vr.run.cache_stats.hits);
    accesses += static_cast<double>(vr.run.cache_stats.accesses);
  }
  out.set("sim.cycles", sim_cycles, "count");
  out.set("sim.kernel_launches", launches, "count");
  out.set("sim.memory_ops", mem_ops, "count");
  out.set("mem.words", words, "count");
  out.set("mem.dram_words", dram_words, "count");
  out.set("mem.busy_cycles", busy, "count");
  out.set("mem.cache_hit_ratio", accesses > 0 ? hits / accesses : 0.0, "ratio");
}

void check_variant_run(const VariantRun& vr, core::Variant v,
                       std::uint64_t ref_cycles, std::int64_t ref_words,
                       Outcome& out) {
  if (vr.run.cycles != ref_cycles || vr.run.mem_words != ref_words) {
    out.fail(std::string("recomposed ") + core::variant_name(v) + " gives " +
             std::to_string(vr.run.cycles) + " cycles / " +
             std::to_string(vr.run.mem_words) + " words, run_variant " +
             std::to_string(ref_cycles) + " / " + std::to_string(ref_words));
  }
  if (!(vr.max_force_rel_err <= kMaxForceRelErr)) {
    out.fail(std::string(core::variant_name(v)) + " force error " +
             std::to_string(vr.max_force_rel_err));
  }
}

void probe_memory(const core::Problem& problem, Tracer& tracer, Outcome& out) {
  const sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  const core::VariantLayout layout =
      core::build_layout(core::Variant::kExpanded, problem.system,
                         problem.half_list, layout_options(problem, cfg));
  mem::MemOpDesc gather;
  gather.kind = mem::MemOpKind::kLoadGather;
  gather.record_words = core::kPosWords;
  gather.n_records = static_cast<std::int64_t>(layout.neighbor_gather_idx.size());
  gather.indices = layout.neighbor_gather_idx;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    mem::GlobalMemory memory;
    memory.alloc(static_cast<std::int64_t>(problem.system.n_molecules() + 2) *
                 core::kPosWords);
    mem::MemSystem ms(cfg.mem, &memory);
    std::vector<double> dst;
    Tracer::Chain chain("mem_gather", std::to_string(gather.total_words()));
    ms.issue(gather, &dst, nullptr);
    while (!ms.all_done()) {
      const std::uint64_t next = ms.next_event_time();
      ms.tick_until(next == mem::MemSystem::kNever ? ms.now() + 1
                                                   : std::max(next, ms.now() + 1));
    }
    chain.mark("mem.gather");
    tracer.record(chain);
    rates.push_back(static_cast<double>(gather.total_words()) /
                    (tracer.samples("mem.gather").back() / 1e3));
    if (static_cast<std::int64_t>(dst.size()) != gather.total_words()) {
      out.fail("mem gather returned " + std::to_string(dst.size()) + " words");
    }
  }
  out.set("mem.gather_words_per_host_s", quantile(rates, 0.5), "1/s");
}

std::vector<tune::Metrics> probe_tune(const core::Problem& problem,
                                      const std::vector<tune::Candidate>& cands,
                                      Tracer& tracer, Outcome& out) {
  std::vector<tune::Metrics> metrics;
  for (const tune::Candidate& c : cands) {
    Tracer::Chain chain("tune_candidate", c.label());
    (void)tune::estimate(problem, c);
    chain.mark("tune.estimate");
    metrics.push_back(tune::evaluate(problem, c));
    chain.mark("tune.evaluate");
    tracer.record(chain);
  }
  out.set("tune.evaluate_ms", tracer.median_ms("tune.evaluate"), "ms");
  out.set("tune.estimate_ms", tracer.median_ms("tune.estimate"), "ms");
  return metrics;
}

void report_service(const std::vector<svc::Response>& resps,
                    std::int64_t simulated, Outcome& out) {
  std::vector<double> admission, queue, execute, serialize;
  double reused = 0;
  for (const svc::Response& r : resps) {
    admission.push_back(ms(r.admission_ns));
    queue.push_back(ms(r.queue_ns));
    execute.push_back(ms(r.lookup_ns + r.simulate_ns));
    serialize.push_back(ms(r.serialize_ns));
    if (r.served_by == "dedup" || r.served_by == "cache") ++reused;
  }
  out.set("svc.admission_ms", quantile(admission, 0.5), "ms");
  out.set("svc.queue_wait_ms", quantile(queue, 0.5), "ms");
  out.set("svc.execute_ms", quantile(execute, 0.5), "ms");
  out.set("svc.serialize_ms", quantile(serialize, 0.5), "ms");
  out.set("svc.simulated", static_cast<double>(simulated), "count");
  out.set("svc.dedup_ratio",
          resps.empty() ? 0.0 : reused / static_cast<double>(resps.size()),
          "ratio");
}

SpansByTrace spans_by_trace(const obs::SpanLog& log) {
  SpansByTrace by_trace;
  for (obs::SpanRecord& rec : log.snapshot()) {
    by_trace[rec.ctx.trace_id].push_back(std::move(rec));
  }
  return by_trace;
}

const std::vector<obs::SpanRecord>* request_spans(const SpansByTrace& by_trace,
                                                  const svc::Response& r,
                                                  Outcome& out) {
  const auto it = by_trace.find(r.trace_id);
  std::string why = "no spans recorded";
  if (it == by_trace.end() || !obs::spans_partition_exactly(it->second, &why)) {
    out.fail("svc " + r.id + " server spans: " + why);
    return nullptr;
  }
  return &it->second;
}

}  // namespace smd::hostbench
