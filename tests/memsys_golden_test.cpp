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
//       geometry path), and at 256 molecules on a 128-bank cache (the
//       geometry of cache_gbps=1024: more banks than one 64-bit word);
//   (b) 50 seeded MemSystem op soups over tiny queues, MSHRs, combining
//       stores, DRAM read queues and write buffers, so every back-pressure
//       path and dirty eviction runs: per-op finish times, the four stats
//       records and the memory image; and the same soups again on a
//       direct-mapped cache of 6 banks x 12-word lines.
// A mismatch means simulated results moved; the failing run's record is
// printed.
#include <gtest/gtest.h>

#include <algorithm>
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

/// Digest of one variant's run on `cfg`: the gated run record and the
/// memory image. `record` receives the full run record for a failure.
std::uint64_t variant_digest(const core::Problem& problem, core::Variant variant,
                             const sim::MachineConfig& cfg,
                             std::string* record) {
  const core::VariantLayout layout =
      core::build_layout(variant, problem.system, problem.half_list,
                         core::layout_options(problem.setup, cfg));
  const kernel::KernelDef kdef =
      core::build_water_kernel(variant, problem.system.model());
  sim::Machine machine(cfg);
  const core::ProblemImage image =
      core::upload_system(machine.memory(), problem.system);
  const sim::StreamProgram program =
      core::build_program(machine.memory(), image, layout, kdef);
  const sim::RunStats run = machine.run(program);
  *record = sim::to_json(run).dump(2);

  Fnv1a h;
  h.str(sim::gated_json(run).dump());
  hash_memory(h, machine.memory());
  return h.value();
}

TEST(MemsysGolden, StreamMdVariantsMatchRecordedDigests) {
  const core::Problem problem = core::Problem::make(core::ExperimentSetup{});
  for (const VariantCase& c : kVariantGolden) {
    sim::MachineConfig cfg = sim::MachineConfig::merrimac();
    cfg.sdr_policy = c.policy;
    if (c.odd_geometry) {
      cfg.mem.cache.n_banks = 6;
      cfg.mem.cache.line_words = 12;
    }
    std::string record;
    const std::uint64_t got = variant_digest(problem, c.variant, cfg, &record);
    EXPECT_EQ(hex(got), hex(c.digest))
        << core::variant_name(c.variant) << " / "
        << (c.policy == sim::SdrPolicy::kConservative ? "conservative"
                                                      : "transfer-scoped")
        << (c.odd_geometry ? " / 6 banks x 12-word lines" : "")
        << " moved; run record:\n"
        << record;
  }
}

/// The four variants in kAllVariants order at 256 molecules on a 128-bank
/// cache, the bank count tune::Candidate derives from cache_gbps=1024.
constexpr std::array<std::uint64_t, 4> kWideCacheGolden = {{
    0x701e6c7e34da0cb9ULL, 0xfda893134fca5225ULL,
    0xbff6c92e92f3addbULL, 0x598a8176e03f0deeULL,
}};

TEST(MemsysGolden, WideCacheVariantsMatchRecordedDigests) {
  core::ExperimentSetup setup;
  setup.n_molecules = 256;
  const core::Problem problem = core::Problem::make(setup);
  sim::MachineConfig cfg = sim::MachineConfig::merrimac();
  cfg.mem.cache.n_banks = 128;
  for (std::size_t v = 0; v < core::kAllVariants.size(); ++v) {
    std::string record;
    const std::uint64_t got =
        variant_digest(problem, core::kAllVariants[v], cfg, &record);
    EXPECT_EQ(hex(got), hex(kWideCacheGolden[v]))
        << core::variant_name(core::kAllVariants[v])
        << " / 128 banks moved; run record:\n"
        << record;
  }
}

// ---------------------------------------------------------------------------
// (b) MemSystem op soups.
// ---------------------------------------------------------------------------

constexpr int kSoups = 50;

/// Digest of soup `seed`, run tick() by tick(); `reshape`, when set,
/// changes the soup's memory-system configuration first.
std::uint64_t soup_digest(int seed, void (*reshape)(mem::MemSystemConfig&),
                          std::string* record) {
  mem::soup::Soup soup = mem::soup::make(seed);
  if (reshape != nullptr) reshape(soup.cfg);
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
    const std::uint64_t got = soup_digest(seed, nullptr, &record);
    EXPECT_EQ(hex(got), hex(kSoupGolden[static_cast<std::size_t>(seed)]))
        << "soup " << seed << " moved; record:\n"
        << record;
  }
}

/// A direct-mapped cache of 6 banks x 12-word lines and 12 sets: every
/// fill that meets a resident line evicts it, through the division path.
/// A dirty writeback posts a whole line, so the write buffer holds one.
void direct_mapped(mem::MemSystemConfig& cfg) {
  cfg.cache.n_banks = 6;
  cfg.cache.line_words = 12;
  cfg.cache.associativity = 1;
  cfg.cache.total_words = 12 * 12;
  cfg.dram.write_buffer_words =
      std::max<std::int64_t>(cfg.dram.write_buffer_words, 12);
}

constexpr std::array<std::uint64_t, kSoups> kDirectMappedSoupGolden = {{
    0xdb1068d7da4cdc60ULL, 0x6eb17527ca651f19ULL, 0xaa465e655e4a9d20ULL,
    0xe6a9b7edc853910dULL, 0x8c68b453a859da20ULL, 0x5efe593c7c37f24aULL,
    0x4ccbe5ebe62e92d5ULL, 0xf2f80b402a5684feULL, 0x5262a8011a844cecULL,
    0x95c85d5d0c15cbf4ULL, 0x96f5dd370d1861c2ULL, 0x0bba8c8c1b1f8738ULL,
    0x2196cc99b19c37ecULL, 0xcce1116c01b86db0ULL, 0x19382f61d78af0beULL,
    0xf5a444c7a6e78385ULL, 0x7af20053d564c6deULL, 0x48f092dcb67e761fULL,
    0x13dec505e79e7dc7ULL, 0xd612629d97c233abULL, 0xaa284f4856e6c88aULL,
    0xc2ab2200ed480edfULL, 0xc9ed5f91f3407196ULL, 0x559254980a5fa1ffULL,
    0xf474e92834b49893ULL, 0xe6f3b799a57e8364ULL, 0xb656de44c49e4de2ULL,
    0x82cafbbb233ac982ULL, 0x1ae8b84162845823ULL, 0xa13f936810430329ULL,
    0x23a11f67a9b116b0ULL, 0xcf49864e0545740bULL, 0x1bbade21e1f5ab1fULL,
    0x1541d581ddb93df4ULL, 0x65acbce9afae7542ULL, 0x6db9375a87b96127ULL,
    0x4a8843778b68b322ULL, 0xb85323b6b7ffd943ULL, 0xd1455d0d14e67197ULL,
    0x1a1e7f4e5530e394ULL, 0x73cb0d378d0415c8ULL, 0x25e8429c858510eaULL,
    0x0a67ee55d5e7f0ecULL, 0xb64ee382caf02f42ULL, 0x594c54ab58734d4bULL,
    0x7078ea5181ea9024ULL, 0x8d31bdb51c61b508ULL, 0x4549b1414a33f8b6ULL,
    0x68375892e2f50639ULL, 0x9ce295c145138068ULL,
}};

TEST(MemsysGolden, DirectMappedOpSoupsMatchRecordedDigests) {
  for (int seed = 0; seed < kSoups; ++seed) {
    std::string record;
    const std::uint64_t got = soup_digest(seed, direct_mapped, &record);
    EXPECT_EQ(hex(got),
              hex(kDirectMappedSoupGolden[static_cast<std::size_t>(seed)]))
        << "direct-mapped soup " << seed << " moved; record:\n"
        << record;
  }
}

}  // namespace
}  // namespace smd
