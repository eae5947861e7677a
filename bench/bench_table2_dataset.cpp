// Reproduces paper Table 2: dataset properties of the 900-molecule water
// system (interactions, central-molecule replication and neighbor padding
// for the fixed-length variant), plus the neighbor-count distribution that
// motivates the variable-length machinery.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_io.h"
#include "src/core/layouts.h"
#include "src/core/report.h"
#include "src/core/run.h"

using namespace smd;

int main(int argc, char** argv) {
  static const char* kUsage = "bench_table2_dataset [--json path]";
  benchio::check_flags(argc, argv, "bench_table2_dataset", kUsage,
                       {"--json"}, {});
  benchio::JsonOut jout(argc, argv, "bench_table2_dataset");
  const core::Problem problem = core::Problem::make({});

  // Only the fixed layout is needed for the table; build it directly
  // rather than simulating.
  core::LayoutOptions opts;
  const core::VariantLayout fixed_layout = core::build_layout(
      core::Variant::kFixed, problem.system, problem.half_list, opts);

  core::VariantResult fixed_row;  // only the fields the table reads
  fixed_row.variant = core::Variant::kFixed;
  fixed_row.n_central_blocks = fixed_layout.n_central_blocks;
  fixed_row.n_neighbor_slots = fixed_layout.n_neighbor_slots;

  std::printf("== Table 2: dataset properties ==\n%s\n",
              core::format_dataset_table(problem, {fixed_row}).c_str());

  // Half-list degrees in 16 buckets of 10 neighbors; the last bucket also
  // takes every degree >= 150.
  constexpr int kBuckets = 16;
  constexpr int kBucketWidth = 10;
  std::vector<std::uint64_t> degrees(kBuckets, 0);
  for (int m = 0; m < problem.half_list.n_molecules(); ++m) {
    const int b = problem.half_list.degree(m) / kBucketWidth;
    ++degrees[static_cast<std::size_t>(std::min(b, kBuckets - 1))];
  }
  const std::uint64_t peak = std::max<std::uint64_t>(
      1, *std::max_element(degrees.begin(), degrees.end()));
  std::printf("half-list neighbor-count distribution (bucket lower bound):\n");
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(degrees[i]) / static_cast<double>(peak) * 32.0);
    std::printf("[%zu) %s %llu\n", i * kBucketWidth,
                std::string(bar, '#').c_str(),
                static_cast<unsigned long long>(degrees[i]));
  }
  std::printf("\n");

  obs::Json dataset = obs::Json::object();
  dataset.set("n_molecules", problem.system.n_molecules())
      .set("cutoff_nm", problem.setup.cutoff)
      .set("interactions", problem.half_list.n_pairs())
      .set("mean_neighbors", problem.half_list.mean_degree())
      .set("fixed_central_blocks", fixed_layout.n_central_blocks)
      .set("fixed_neighbor_slots", fixed_layout.n_neighbor_slots);
  obs::Json hist = obs::Json::array();
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    obs::Json bucket = obs::Json::object();
    bucket.set("lo", static_cast<double>(i * kBucketWidth))
        .set("count", degrees[i]);
    hist.push_back(std::move(bucket));
  }
  jout.root().set("dataset", std::move(dataset));
  jout.root().set("neighbor_histogram", std::move(hist));
  return jout.finish(0);
}
