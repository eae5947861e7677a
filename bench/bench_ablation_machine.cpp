// Machine-design ablations on the full paper dataset, for the DESIGN.md
// call-outs: how much does each Merrimac mechanism matter to StreamMD?
//  * stream-cache capacity (when the position array no longer fits,
//    gathers fall to DRAM random-access speed -- the regime where the
//    Section 5.4 blocking scheme starts to pay);
//  * combining-store depth (hot-row partial-force reductions);
//  * address-generator throughput (gather-dominated variants).
#include <cstdio>

#include "bench/bench_io.h"
#include "src/core/run.h"
#include "src/util/table.h"

using namespace smd;

int main(int argc, char** argv) {
  static const char* kUsage = "bench_ablation_machine [--json path]";
  benchio::check_flags(argc, argv, "bench_ablation_machine", kUsage,
                       {"--json"}, {});
  benchio::JsonOut jout(argc, argv, "bench_ablation_machine");
  const core::Problem problem = core::Problem::make({});

  {
    util::Table t({"stream cache", "cycles", "solution GFLOPS", "hit rate",
                   "DRAM read words"});
    obs::Json rows = obs::Json::array();
    for (std::int64_t words : {1024LL, 8192LL, 32768LL, 131072LL}) {
      sim::MachineConfig cfg = sim::MachineConfig::merrimac();
      cfg.mem.cache.total_words = words;
      const auto r = core::run_variant(problem, core::Variant::kVariable, cfg);
      obs::Json j = obs::Json::object();
      j.set("cache_words", words)
          .set("cycles", r.run.cycles)
          .set("solution_gflops", r.solution_gflops)
          .set("cache_hit_rate", r.run.cache_stats.hit_rate())
          .set("dram_read_words", r.run.dram_stats.read_words);
      rows.push_back(std::move(j));
      t.add_row({util::Table::num(static_cast<double>(words) * 8 / 1024, 0) + " KB",
                 util::Table::integer(static_cast<long long>(r.run.cycles)),
                 util::Table::num(r.solution_gflops, 2),
                 util::Table::percent(r.run.cache_stats.hit_rate(), 1),
                 util::Table::integer(r.run.dram_stats.read_words)});
    }
    std::printf("== Ablation: stream-cache capacity (variant `variable`) ==\n%s\n",
                t.render().c_str());
    jout.root().set("stream_cache_capacity", std::move(rows));
  }

  {
    util::Table t({"combining entries", "cycles", "combined", "sa stalls"});
    obs::Json rows = obs::Json::array();
    for (int entries : {1, 2, 8, 32}) {
      sim::MachineConfig cfg = sim::MachineConfig::merrimac();
      cfg.mem.scatter_add.combining_entries = entries;
      const auto r = core::run_variant(problem, core::Variant::kFixed, cfg);
      const auto& sa = r.run.scatter_add_stats;
      obs::Json j = obs::Json::object();
      j.set("combining_entries", entries)
          .set("cycles", r.run.cycles)
          .set("combine_rate", sa.requests ? static_cast<double>(sa.combined) /
                                                 static_cast<double>(sa.requests)
                                           : 0.0)
          .set("stalled", sa.stalled);
      rows.push_back(std::move(j));
      t.add_row({std::to_string(entries),
                 util::Table::integer(static_cast<long long>(r.run.cycles)),
                 util::Table::percent(sa.requests ? static_cast<double>(sa.combined) /
                                                        static_cast<double>(sa.requests)
                                                  : 0.0,
                                      1),
                 util::Table::integer(sa.stalled)});
    }
    std::printf("== Ablation: combining-store depth (variant `fixed`) ==\n%s\n",
                t.render().c_str());
    jout.root().set("combining_store_depth", std::move(rows));
  }

  {
    util::Table t({"addr gens x addrs", "cycles expanded", "cycles variable"});
    obs::Json rows = obs::Json::array();
    for (auto [gens, per] : {std::pair{1, 4}, std::pair{2, 4}, std::pair{4, 4}}) {
      sim::MachineConfig cfg = sim::MachineConfig::merrimac();
      cfg.mem.n_address_generators = gens;
      cfg.mem.addrs_per_generator = per;
      const auto re = core::run_variant(problem, core::Variant::kExpanded, cfg);
      const auto rv = core::run_variant(problem, core::Variant::kVariable, cfg);
      obs::Json j = obs::Json::object();
      j.set("address_generators", gens)
          .set("addrs_per_generator", per)
          .set("cycles_expanded", re.run.cycles)
          .set("cycles_variable", rv.run.cycles);
      rows.push_back(std::move(j));
      t.add_row({std::to_string(gens) + " x " + std::to_string(per),
                 util::Table::integer(static_cast<long long>(re.run.cycles)),
                 util::Table::integer(static_cast<long long>(rv.run.cycles))});
    }
    std::printf("== Ablation: address-generation throughput ==\n%s\n",
                t.render().c_str());
    std::printf("expanded gathers ~3x the words of variable, so it is the\n"
                "variant that feels address-generation and cache pressure.\n");
    jout.root().set("address_generation", std::move(rows));
  }
  return jout.finish(0);
}
