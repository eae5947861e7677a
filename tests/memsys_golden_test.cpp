// Exact oracle for the memory model.
//
// The other bit-identity gates cannot see a change inside MemSystem:
// lockstep_test compares two engines that drive one shared memory model,
// and BENCH_baseline.json tolerates drift on cycle counts. This suite pins
// the model itself with FNV-1a digests recorded from the reference
// per-cycle implementation:
//   (a) StreamMD runs: the gated run record (every to_json(RunStats) field
//       plus every timeline interval, the tree diff_run_stats compares)
//       and the memory image by bit pattern, for the four Table-3 variants
//       x both SDR policies at the baseline setup, and the four variants
//       again on a 6-bank cache with 12-word lines (the non-power-of-two
//       geometry path);
//   (b) 50 seeded MemSystem op soups over tiny queues, MSHRs, combining
//       stores, DRAM read queues and write buffers, so every back-pressure
//       path and dirty eviction runs: per-op finish times, the four stats
//       records and the memory image.
// A mismatch means simulated results moved; the failing run's record is
// printed.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/kernels.h"
#include "src/core/layouts.h"
#include "src/core/program.h"
#include "src/core/run.h"
#include "src/mem/memsys.h"
#include "src/sim/config.h"
#include "src/sim/machine.h"
#include "tests/fnv1a.h"
#include "tests/mem_soup.h"

namespace smd {
namespace {

using golden::Fnv1a;
using golden::hex;

/// Feeds a memory image by bit pattern, word count first.
void hash_memory(Fnv1a& h, const mem::GlobalMemory& m) {
  h.u64(static_cast<std::uint64_t>(m.size()));
  for (std::int64_t w = 0; w < m.size(); ++w) {
    h.u64(std::bit_cast<std::uint64_t>(m.read(static_cast<std::uint64_t>(w))));
  }
}

// ---------------------------------------------------------------------------
// (a) StreamMD variant runs.
// ---------------------------------------------------------------------------

struct VariantCase {
  core::Variant variant;
  sim::SdrPolicy policy;
  bool odd_geometry;  ///< 6 banks x 12-word lines
  std::uint64_t digest;
};

constexpr std::array<VariantCase, 12> kVariantGolden = {{
    {core::Variant::kExpanded, sim::SdrPolicy::kTransferScoped, false,
     0x29f64057d3f8627fULL},
    {core::Variant::kFixed, sim::SdrPolicy::kTransferScoped, false,
     0x79fa7c3b81fb963fULL},
    {core::Variant::kVariable, sim::SdrPolicy::kTransferScoped, false,
     0x43d405b8ce961bc0ULL},
    {core::Variant::kDuplicated, sim::SdrPolicy::kTransferScoped, false,
     0x2ede9cda1ae9f16bULL},
    {core::Variant::kExpanded, sim::SdrPolicy::kConservative, false,
     0x79700d929cf8d0e0ULL},
    {core::Variant::kFixed, sim::SdrPolicy::kConservative, false,
     0x6b261791e55476a5ULL},
    {core::Variant::kVariable, sim::SdrPolicy::kConservative, false,
     0xa8ab9dc29d895455ULL},
    {core::Variant::kDuplicated, sim::SdrPolicy::kConservative, false,
     0x0c802419bec5a1efULL},
    {core::Variant::kExpanded, sim::SdrPolicy::kTransferScoped, true,
     0x388f538c585148deULL},
    {core::Variant::kFixed, sim::SdrPolicy::kTransferScoped, true,
     0xcb06f373f954afd4ULL},
    {core::Variant::kVariable, sim::SdrPolicy::kTransferScoped, true,
     0x596f0ee1be689592ULL},
    {core::Variant::kDuplicated, sim::SdrPolicy::kTransferScoped, true,
     0xac538d9116db39b5ULL},
}};

TEST(MemsysGolden, StreamMdVariantsMatchRecordedDigests) {
  const core::Problem problem = core::Problem::make(core::ExperimentSetup{});
  for (const VariantCase& c : kVariantGolden) {
    sim::MachineConfig cfg = sim::MachineConfig::merrimac();
    cfg.sdr_policy = c.policy;
    if (c.odd_geometry) {
      cfg.mem.cache.n_banks = 6;
      cfg.mem.cache.line_words = 12;
    }
    const core::VariantLayout layout =
        core::build_layout(c.variant, problem.system, problem.half_list,
                           core::layout_options(problem.setup, cfg));
    const kernel::KernelDef kdef =
        core::build_water_kernel(c.variant, problem.system.model());
    sim::Machine machine(cfg);
    const core::ProblemImage image =
        core::upload_system(machine.memory(), problem.system);
    const sim::StreamProgram program =
        core::build_program(machine.memory(), image, layout, kdef);
    const sim::RunStats run = machine.run(program);

    Fnv1a h;
    h.str(sim::gated_json(run).dump());
    hash_memory(h, machine.memory());
    EXPECT_EQ(hex(h.value()), hex(c.digest))
        << core::variant_name(c.variant) << " / "
        << (c.policy == sim::SdrPolicy::kConservative ? "conservative"
                                                      : "transfer-scoped")
        << (c.odd_geometry ? " / 6 banks x 12-word lines" : "")
        << " moved; run record:\n"
        << sim::to_json(run).dump(2);
  }
}

// ---------------------------------------------------------------------------
// (b) MemSystem op soups.
// ---------------------------------------------------------------------------

constexpr int kSoups = 50;

std::uint64_t soup_digest(int seed, std::string* record) {
  mem::soup::Soup soup = mem::soup::make(seed);
  const std::vector<mem::soup::Op>& ops = soup.ops;
  mem::GlobalMemory& memory = soup.memory;

  mem::MemSystem ms(soup.cfg, &memory);
  std::vector<std::vector<double>> loaded(ops.size());
  std::vector<mem::MemSystem::OpId> ids;
  std::size_t next = 0;
  while (next < ops.size() || !ms.all_done()) {
    while (next < ops.size() && ops[next].issue_at <= ms.now()) {
      const mem::soup::Op& op = ops[next];
      ids.push_back(ms.issue(op.desc, &loaded[next], &op.src));
      ++next;
    }
    ms.tick();
    if (ms.now() > 10'000'000) {
      ADD_FAILURE() << "soup " << seed << " did not drain";
      break;
    }
  }

  obs::Json finish = obs::Json::array();
  for (const mem::MemSystem::OpId id : ids) {
    finish.push_back(obs::Json(static_cast<std::int64_t>(ms.op_finish_time(id))));
  }
  obs::Json j = obs::Json::object();
  j.set("drained_at", static_cast<std::int64_t>(ms.now()))
      .set("finish_times", std::move(finish))
      .set("mem", mem::to_json(ms.stats()))
      .set("cache", mem::to_json(ms.cache_stats()))
      .set("dram", mem::to_json(ms.dram_stats()))
      .set("scatter_add", mem::to_json(ms.scatter_add_stats()));
  *record = j.dump(2);

  Fnv1a h;
  h.str(j.dump());
  for (const auto& words : loaded) {
    for (const double v : words) h.u64(std::bit_cast<std::uint64_t>(v));
  }
  hash_memory(h, memory);
  return h.value();
}

constexpr std::array<std::uint64_t, kSoups> kSoupGolden = {{
    0xfe2cc50c49dd4d0eULL, 0x7aa1007c28bb14a8ULL, 0x2969260d9740e0f2ULL,
    0xd86f5d90f37fb795ULL, 0xa97ec6cb3cfafabfULL, 0x0033cf35a7a34aabULL,
    0x7696e8174384ae3cULL, 0x1f2b33b396c37e9cULL, 0x470c0bd9d72d3e28ULL,
    0x5b4b51dd01660fe0ULL, 0x386805e1f37e8983ULL, 0x4b9b93e7d2e0dd75ULL,
    0xa8e14b2f379e9675ULL, 0xac798cd1d4dfb21dULL, 0xf3f39383e63bdb82ULL,
    0xac49d873c0e4cf14ULL, 0x1e6f07d49c0aaea4ULL, 0x03b511da93aeb3c3ULL,
    0xca56c8ec64ec7af7ULL, 0x40078f4c84f32f67ULL, 0x981b99ef86fe26dbULL,
    0x1f52c735a4a4d95cULL, 0x2afb1b2f8a73cebeULL, 0x159f1489824fed7cULL,
    0x55a14eed5dc204d6ULL, 0x5ca827539254c2bdULL, 0xa768de1bd78d6985ULL,
    0xe5aac13abe7fd94dULL, 0xd35180d8e9fa9f21ULL, 0x93380a4eaad99f47ULL,
    0x9e85c62e139d8805ULL, 0x8b77b0788bc50263ULL, 0x31dab76f86e5e75aULL,
    0x1c1fb49b94e573f9ULL, 0x265c70e91fdaa5e0ULL, 0xd3206b33f4f4c677ULL,
    0x068f7e4e863bca4eULL, 0x021c6788c87688e2ULL, 0xe4c283e97588ae47ULL,
    0x9bd29cc6e6cc6824ULL, 0x85df9d03069f1f03ULL, 0xaf91643b3f3c0fadULL,
    0x6df35c8d7a97ad88ULL, 0x4938587836240210ULL, 0x5a2056e94da5d450ULL,
    0xe203fa09964334b4ULL, 0x9990efc67a6070fbULL, 0xd798ceb671df2bd8ULL,
    0x18f3d9859d398af8ULL, 0x53b23572e866058dULL,
}};

TEST(MemsysGolden, OpSoupsMatchRecordedDigests) {
  for (int seed = 0; seed < kSoups; ++seed) {
    std::string record;
    const std::uint64_t got = soup_digest(seed, &record);
    EXPECT_EQ(hex(got), hex(kSoupGolden[static_cast<std::size_t>(seed)]))
        << "soup " << seed << " moved; record:\n"
        << record;
  }
}

}  // namespace
}  // namespace smd
