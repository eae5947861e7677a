// Exact oracle for the kernel layer.
//
// BENCH_baseline.json gates run-level cycle counts within a tolerance and
// schedule_property_test checks schedule properties, so neither sees a
// schedule or a diagnostic that moves while staying plausible. This suite
// pins both with FNV-1a digests:
//   (a) schedules: for every built-in kernel (the ten smdcheck
//       --dataflow walks), schedule_body at unroll {1, 2} x software
//       pipelining {on, off} -- ii, unroll, depth, FPU slot-cycles, the
//       bits of fpu_occupancy and issue_rate, every ScheduledOp -- plus
//       straightline_cycles of the three straight-line sections;
//   (b) diagnostics: verify_kernel(def).to_json() with the dataflow checks
//       on, for the same kernels and for every hand-built malformed kernel
//       of tests/malformed_kernels.h.
// A mismatch means a schedule or a diagnostic moved; the failing kernel's
// record is printed.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/verify_ir.h"
#include "src/core/kernels.h"
#include "src/kernel/schedule.h"
#include "src/md/water.h"
#include "tests/fnv1a.h"
#include "tests/malformed_kernels.h"

namespace smd {
namespace {

using golden::hex;

/// The kernels smdcheck --dataflow walks, in its order.
std::vector<kernel::KernelDef> builtin_kernels() {
  const md::WaterModel model = md::spc();
  std::vector<kernel::KernelDef> defs;
  for (core::Variant v :
       {core::Variant::kExpanded, core::Variant::kFixed,
        core::Variant::kVariable, core::Variant::kDuplicated}) {
    defs.push_back(core::build_water_kernel(v, model));
  }
  defs.push_back(core::build_expanded_energy_kernel(model));
  for (const md::WaterModel& m : {md::spc(), md::tip5p(), md::ppc()}) {
    defs.push_back(core::build_multisite_kernel(m));
  }
  defs.push_back(core::build_blocked_kernel(model, 1.0, 64));
  defs.push_back(core::build_expanded_naive_kernel(model));
  return defs;
}

std::string bits(double v) { return hex(std::bit_cast<std::uint64_t>(v)); }

obs::Json schedule_record(const kernel::Schedule& s) {
  obs::Json ops = obs::Json::array();
  for (const kernel::ScheduledOp& op : s.ops) {
    ops.push_back(obs::Json::array()
                      .push_back(op.instr)
                      .push_back(op.copy)
                      .push_back(op.cycle)
                      .push_back(op.fpu)
                      .push_back(kernel::opcode_name(op.op)));
  }
  obs::Json j = obs::Json::object();
  j.set("ii", s.ii)
      .set("unroll", s.unroll)
      .set("depth", s.depth)
      .set("fpu_slot_cycles", s.fpu_slot_cycles)
      .set("fpu_occupancy", bits(s.fpu_occupancy))
      .set("issue_rate", bits(s.issue_rate))
      .set("pipelined", s.pipelined)
      .set("ops", std::move(ops));
  return j;
}

/// Every schedule of one kernel plus its straight-line section costs.
obs::Json kernel_schedules(const kernel::KernelDef& def) {
  obs::Json schedules = obs::Json::array();
  for (int unroll : {1, 2}) {
    for (bool swp : {true, false}) {
      kernel::ScheduleOptions opts;
      opts.unroll = unroll;
      opts.software_pipeline = swp;
      schedules.push_back(schedule_record(kernel::schedule_body(def, opts)));
    }
  }
  const kernel::ScheduleOptions opts;
  obs::Json j = obs::Json::object();
  j.set("kernel", def.name)
      .set("schedules", std::move(schedules))
      .set("prologue_cycles", kernel::straightline_cycles(def.prologue, opts))
      .set("outer_pre_cycles", kernel::straightline_cycles(def.outer_pre, opts))
      .set("outer_post_cycles",
           kernel::straightline_cycles(def.outer_post, opts));
  return j;
}

std::uint64_t digest(const obs::Json& record) {
  golden::Fnv1a h;
  h.str(record.dump());
  return h.value();
}

// ---------------------------------------------------------------------------
// (a) Schedules of the built-in kernels.
// ---------------------------------------------------------------------------

constexpr std::array<std::uint64_t, 10> kScheduleGolden = {{
    0x8e208f4415dc4383ULL, 0xc0a4eb918c04c661ULL, 0x239ea91a0b7302c4ULL,
    0xe5ffea0d898777c4ULL, 0xb5f7b5f63cb715efULL, 0xe543cfbb826803f6ULL,
    0x266f27f3fdd4be50ULL, 0x7bfbec8c5b383ee1ULL, 0x4236b9d80fbb0f7fULL,
    0x69d0f2329813ba9cULL,
}};

TEST(KernelGolden, SchedulesMatchRecordedDigests) {
  const std::vector<kernel::KernelDef> defs = builtin_kernels();
  ASSERT_EQ(defs.size(), kScheduleGolden.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const obs::Json record = kernel_schedules(defs[i]);
    EXPECT_EQ(hex(digest(record)), hex(kScheduleGolden[i]))
        << defs[i].name << " schedules moved; record:\n"
        << record.dump(2);
  }
}

// ---------------------------------------------------------------------------
// (b) Verifier diagnostics, built-in and malformed kernels.
// ---------------------------------------------------------------------------

constexpr std::array<std::uint64_t, 10> kBuiltinDiagGolden = {{
    0xb8700815e0ba93f7ULL, 0x31c07132974a2c8aULL, 0xa68210c3c4a20587ULL,
    0xa611887a6e43d658ULL, 0x85e47d3df766b9d7ULL, 0x37a3e85d40f33f98ULL,
    0xd2c9170da01c070bULL, 0xad4d8642cda55076ULL, 0xec9bf0b522592802ULL,
    0x4dff9ade86166a11ULL,
}};

TEST(KernelGolden, BuiltinDiagnosticsMatchRecordedDigests) {
  const std::vector<kernel::KernelDef> defs = builtin_kernels();
  ASSERT_EQ(defs.size(), kBuiltinDiagGolden.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const obs::Json record = analysis::verify_kernel(defs[i]).to_json();
    EXPECT_EQ(hex(digest(record)), hex(kBuiltinDiagGolden[i]))
        << defs[i].name << " diagnostics moved; record:\n"
        << record.dump(2);
  }
}

constexpr std::array<std::uint64_t, 21> kMalformedDiagGolden = {{
    0x2e5f8bb0d8d7cb9aULL, 0x8b1cef08939030c5ULL, 0x5e208fc4657460e4ULL,
    0x8be97dd318a18170ULL, 0xaf396bb0b6d91e14ULL, 0x0d2b3ad2a5b025deULL,
    0xc01965e772fe7219ULL, 0xc129ca3b0959ae63ULL, 0xb8bd9ed121223879ULL,
    0x4b6a478818c22047ULL, 0x421efc8677e6586dULL, 0xeadcfb3540999fcaULL,
    0x5776ec51e3e5c4b3ULL, 0x4788feb19d6c362eULL, 0x5aaba834945855e7ULL,
    0x5e4e6a92810e577fULL, 0xb7182773e59b40e5ULL, 0x2c87188024e7138dULL,
    0xe299d010348f305eULL, 0xfa2f84cfddaabadcULL, 0x196c07fc55a9bb21ULL,
}};

TEST(KernelGolden, MalformedDiagnosticsMatchRecordedDigests) {
  const std::vector<malformed::Case> cases = malformed::cases();
  ASSERT_EQ(cases.size(), kMalformedDiagGolden.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    analysis::VerifyOptions opts;
    opts.lrf_words = cases[i].lrf_words;
    const obs::Json record =
        analysis::verify_kernel(cases[i].def, opts).to_json();
    EXPECT_EQ(hex(digest(record)), hex(kMalformedDiagGolden[i]))
        << cases[i].name << " diagnostics moved; record:\n"
        << record.dump(2);
  }
}

}  // namespace
}  // namespace smd
