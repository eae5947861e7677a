// Characterization of the scatter-add units (Section 2.2): throughput of
// the atomic add-and-store path as a function of index distribution, and
// the effectiveness of the combining store on bursty (hot-spot) updates --
// the access pattern StreamMD's partial-force reduction produces.
#include <cstdio>

#include "bench/bench_io.h"
#include "src/mem/memsys.h"
#include "src/util/rng.h"
#include "src/util/table.h"

using namespace smd;

namespace {

struct Result {
  double words_per_cycle;
  double combine_rate;
};

Result run_scatter(const std::vector<std::uint64_t>& idx, std::int64_t rows) {
  mem::GlobalMemory gmem;
  const auto base = gmem.alloc(rows * 9);
  mem::MemSystemConfig cfg;
  mem::MemSystem ms(cfg, &gmem);
  mem::MemOpDesc d;
  d.kind = mem::MemOpKind::kScatterAdd;
  d.base = base;
  d.n_records = static_cast<std::int64_t>(idx.size());
  d.record_words = 9;
  d.indices = idx;
  std::vector<double> src(idx.size() * 9, 1.0);
  ms.issue(d, nullptr, &src);
  while (!ms.all_done()) ms.tick();
  const auto sa = ms.scatter_add_stats();
  Result r;
  r.words_per_cycle = static_cast<double>(d.total_words()) / static_cast<double>(ms.now());
  r.combine_rate = sa.requests ? static_cast<double>(sa.combined) /
                                     static_cast<double>(sa.requests)
                               : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  static const char* kUsage = "bench_scatteradd [--json path]";
  benchio::check_flags(argc, argv, "bench_scatteradd", kUsage, {"--json"}, {});
  benchio::JsonOut jout(argc, argv, "bench_scatteradd");
  obs::Json patterns = obs::Json::array();
  const std::int64_t n = 16384;
  const std::int64_t rows = 901;  // the paper's force array (+ trash row)
  util::Rng rng(11);

  util::Table t({"index pattern", "words/cycle", "GB/s @1GHz", "combined"});
  auto add = [&](const char* name, const std::vector<std::uint64_t>& idx) {
    const Result r = run_scatter(idx, rows);
    obs::Json j = obs::Json::object();
    j.set("pattern", name)
        .set("words_per_cycle", r.words_per_cycle)
        .set("gbytes_per_s", r.words_per_cycle * 8)
        .set("combine_rate", r.combine_rate);
    patterns.push_back(std::move(j));
    t.add_row({name, util::Table::num(r.words_per_cycle, 2),
               util::Table::num(r.words_per_cycle * 8, 1),
               util::Table::percent(r.combine_rate, 1)});
  };

  std::vector<std::uint64_t> seq, random, hot, clustered;
  for (std::int64_t i = 0; i < n; ++i) {
    seq.push_back(static_cast<std::uint64_t>(i % rows));
    random.push_back(rng.uniform_u64(static_cast<std::uint64_t>(rows)));
    hot.push_back(rng.uniform_u64(8));  // 8 hot molecules
    clustered.push_back(static_cast<std::uint64_t>((i / 16) % rows));
  }
  add("sequential rows", seq);
  add("uniform random rows", random);
  add("8 hot rows (worst-case conflicts)", hot);
  add("bursts of 16 to one row", clustered);

  std::printf("== Scatter-add unit characterization ==\n%s\n", t.render().c_str());
  std::printf("bursty same-row updates combine in the 8-entry combining store;\n"
              "StreamMD's partial-force reduction relies on exactly this.\n");
  jout.root().set("patterns", std::move(patterns));
  return jout.finish(0);
}
