// Tests for the autotuning subsystem (src/tune/): config-space
// enumeration and hashing, the persistent result cache, the parallel
// runner, and the golden properties the paper pins down -- the variant
// ordering of Figure 9 and the blocking minimum of Figure 12 must fall
// out of the search, a cached re-run must be bit-identical with zero
// simulations, and the result list must not depend on --jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/blocking.h"
#include "src/core/report.h"
#include "src/core/run.h"
#include "src/obs/registry.h"
#include "src/tune/cache.h"
#include "src/tune/pareto.h"
#include "src/tune/runner.h"
#include "src/tune/space.h"
#include "tests/fnv1a.h"

namespace smd::tune {
namespace {

// Simulated runs dominate this suite's cost; build each problem size once.
const core::Problem& problem_with(int n_molecules) {
  static std::map<int, core::Problem> cache;
  auto it = cache.find(n_molecules);
  if (it == cache.end()) {
    core::ExperimentSetup setup;
    setup.n_molecules = n_molecules;
    it = cache.emplace(n_molecules, core::Problem::make(setup)).first;
  }
  return it->second;
}

std::string results_fingerprint(const std::vector<EvalResult>& results) {
  std::string s;
  for (const auto& r : results) s += to_json(r).dump() + "\n";
  return s;
}

TEST(Space, ParseEnumerateCartesian) {
  const ConfigSpace space = ConfigSpace::parse("variant=fixed,variable;L=4:8:4");
  EXPECT_EQ(space.size(), 4);
  const std::vector<Candidate> cands = space.enumerate();
  ASSERT_EQ(cands.size(), 4u);
  std::set<std::string> keys;
  for (const auto& c : cands) {
    keys.insert(c.key());
    EXPECT_TRUE(c.variant == core::Variant::kFixed ||
                c.variant == core::Variant::kVariable);
    EXPECT_TRUE(c.fixed_list_length == 4 || c.fixed_list_length == 8);
    // Axes absent from the space keep the base candidate's value.
    EXPECT_EQ(c.n_clusters, 16);
  }
  EXPECT_EQ(keys.size(), 4u) << "cartesian product produced duplicates";
}

TEST(Space, ParseRejectsUnknownAxisAndBadValue) {
  EXPECT_THROW(ConfigSpace::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(ConfigSpace::parse("variant=quantum"), std::invalid_argument);
  EXPECT_FALSE(axis_names().empty());
}

TEST(Space, ParseRejectsRangesThatNeverEnd) {
  // A step too small to change the value, non-finite bounds, and a range
  // too long to hold: each used to loop forever or until std::bad_alloc.
  const std::string specs[] = {"dram_gbps=1e20:2e20:1", "L=1:inf:1",
                               "L=-inf:1:1", "L=1:1e12:1"};
  for (const std::string& spec : specs) {
    try {
      ConfigSpace::parse(spec);
      ADD_FAILURE() << spec << " parsed";
    } catch (const std::invalid_argument& e) {
      // The error names the axis, as smdtune reports it.
      const std::string axis = spec.substr(0, spec.find('='));
      EXPECT_NE(std::string(e.what()).find("axis '" + axis + "'"),
                std::string::npos)
          << spec << ": " << e.what();
    }
  }
  EXPECT_EQ(ConfigSpace::parse("dram_gbps=32:64:16").size(), 3);
}

// L < 1 used to spin build_fixed_like forever, and int axes wrapped
// around (clusters=4294967312 ran as 16 clusters). The candidate check
// rejects both in every parser, naming the axis.
TEST(Space, CandidateCheckRejectsShortListsAndWrappedInts) {
  const std::pair<std::string, std::string> specs[] = {
      {"variant=fixed;L=0", "L"},
      {"L=-3", "L"},
      {"variant=duplicated;L=0", "L"},
      {"clusters=4294967312", "clusters"},
      {"unroll=-2147483649", "unroll"},
      {"blocking=9999999999", "blocking"}};
  for (const auto& [spec, axis] : specs) {
    try {
      ConfigSpace::parse(spec);
      ADD_FAILURE() << spec << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("axis '" + axis + "'"),
                std::string::npos)
          << spec << ": " << e.what();
    }
  }
  EXPECT_EQ(ConfigSpace::parse("L=1;clusters=2147483647").size(), 1);

  EXPECT_EQ(check_int_axis("L", 1), 1);
  EXPECT_THROW(check_int_axis("L", 0), std::invalid_argument);
  EXPECT_THROW(check_int_axis("clusters", 4294967312LL),
               std::invalid_argument);
  EXPECT_EQ(check_int_axis("blocking", 0), 0);

  Candidate c;
  EXPECT_NO_THROW(check_candidate(c));
  c.fixed_list_length = 0;
  EXPECT_THROW(check_candidate(c), std::invalid_argument);

  // Candidate::from_json goes through the same check.
  for (const auto& [axis, value] :
       {std::pair<std::string, double>{"L", 0.0}, {"clusters", 4294967312.0},
        {"unroll", 1e30}}) {
    obs::Json j = Candidate{}.to_json();
    j.set(axis, value);
    EXPECT_THROW(Candidate::from_json(j), std::invalid_argument) << axis;
  }
  obs::Json wrong_type = Candidate{}.to_json();
  wrong_type.set("variant", 3);
  EXPECT_THROW(Candidate::from_json(wrong_type), std::invalid_argument);
}

// Values that used to run silently: a non-finite bandwidth (llround of
// NaN or of an overflowing value is unspecified, and NaN passes MC009),
// a cache bandwidth whose bank count overflows int, an SRF size whose
// word count overflows int64, and a negative blocking or strip length
// (which ran as unblocked and auto under another hash). Every parser
// rejects them through the axis table, naming the axis.
TEST(Space, OutOfRangeAxisValuesAreRejected) {
  const std::pair<std::string, std::string> specs[] = {
      {"variant=variable;cache_gbps=8,3,0,-8,1e30,nan,inf", "cache_gbps"},
      {"cache_gbps=nan", "cache_gbps"},
      {"cache_gbps=-inf", "cache_gbps"},
      {"cache_gbps=1e30", "cache_gbps"},
      {"variant=variable;dram_gbps=38.4,nan,inf", "dram_gbps"},
      {"dram_gbps=inf", "dram_gbps"},
      {"dram_gbps=1e999", "dram_gbps"},
      {"srf_kb=72057594037927936", "srf_kb"},
      {"srf_kb=-72057594037927937", "srf_kb"},
      {"blocking=-1", "blocking"},
      {"blocking=-1,0", "blocking"},
      {"strip=-3", "strip"}};
  for (const auto& [spec, axis] : specs) {
    try {
      ConfigSpace::parse(spec);
      ADD_FAILURE() << spec << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("axis '" + axis + "'"),
                std::string::npos)
          << spec << ": " << e.what();
    }
  }
  // The edges of each range are accepted.
  EXPECT_EQ(ConfigSpace::parse("srf_kb=72057594037927935,-72057594037927936;"
                               "blocking=0;strip=0;cache_gbps=17179869176")
                .size(),
            2);

  // Candidate::from_json and the candidate check apply the same ranges.
  const std::pair<std::string, double> json_values[] = {
      {"dram_gbps", std::numeric_limits<double>::infinity()},
      {"dram_gbps", std::nan("")},
      {"cache_gbps", 1e30},
      {"cache_gbps", -std::numeric_limits<double>::infinity()},
      {"srf_kb", 72057594037927936.0},
      {"blocking", -1.0},
      {"strip", -3.0}};
  for (const auto& [axis, value] : json_values) {
    obs::Json j = Candidate{}.to_json();
    j.set(axis, value);
    try {
      Candidate::from_json(j);
      ADD_FAILURE() << axis << "=" << value << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("axis '" + axis + "': ", 0), 0u)
          << e.what();
    }
  }
  const auto rejects = [](auto set) {
    Candidate c;
    set(c);
    EXPECT_THROW(check_candidate(c), std::invalid_argument) << c.key();
    EXPECT_THROW(c.machine(), std::invalid_argument) << c.key();
  };
  rejects([](Candidate& c) { c.dram_gbps = std::nan(""); });
  rejects([](Candidate& c) { c.cache_gbps = 1e30; });
  rejects([](Candidate& c) { c.srf_kb = std::int64_t{1} << 57; });
  rejects([](Candidate& c) { c.blocking_cells = -1; });
  rejects([](Candidate& c) { c.strip_rounds = -3; });
  rejects([](Candidate& c) { c.variant = static_cast<core::Variant>(7); });
}

// A cache bandwidth below half a bank used to be clamped to one bank
// (cache_gbps=0 ran as 8 GB/s); now it reaches the machine check, MC010.
TEST(Space, CacheBandwidthBelowOneBankFailsTheMachineCheck) {
  for (const double gbps : {3.0, 0.0, -5.0, -8.0}) {
    Candidate c;
    c.cache_gbps = gbps;
    const analysis::Diagnostics d = c.machine().validate();
    EXPECT_GT(d.errors(), 0u) << gbps;
    EXPECT_NE(d.format().find("MC010"), std::string::npos) << d.format();
  }
  Candidate one_bank;
  one_bank.cache_gbps = 8.0;
  EXPECT_EQ(one_bank.machine().validate().errors(), 0u);
}

// %.6g keys made 38.4000001 and 38.4000002 one config (the second sweep
// row shared the first one's run), both equal to the default 38.4. A key
// prints %.17g where %.6g does not read back as the same double.
TEST(Space, KeysStayDistinctPastSixSignificantDigits) {
  const std::vector<Candidate> cands =
      ConfigSpace::parse("dram_gbps=38.4000001,38.4000002,38.4").enumerate();
  ASSERT_EQ(cands.size(), 3u);
  std::set<std::string> keys;
  std::set<std::uint64_t> hashes, runs;
  for (const Candidate& c : cands) {
    keys.insert(c.key());
    hashes.insert(config_hash(c, kModelVersion));
    runs.insert(run_hash(c, kModelVersion));
    EXPECT_EQ(Candidate::from_json(c.to_json()).key(), c.key());
    // The key's value reads back as the candidate's double.
    const std::string k = c.key();
    const std::size_t at = k.find("dram_gbps=") + 10;
    EXPECT_EQ(std::strtod(k.substr(at, k.find('|', at) - at).c_str(), nullptr),
              c.dram_gbps)
        << k;
  }
  EXPECT_EQ(keys.size(), 3u);
  EXPECT_EQ(hashes.size(), 3u);
  EXPECT_EQ(runs.size(), 3u);
  EXPECT_EQ(cands[2].key(), Candidate{}.key());
  EXPECT_EQ(config_hash(cands[2]), config_hash(Candidate{}));
}

TEST(Space, RunHashIgnoresLOnlyWhereNoRunReadsIt) {
  for (const core::Variant v :
       {core::Variant::kExpanded, core::Variant::kFixed,
        core::Variant::kVariable, core::Variant::kDuplicated}) {
    Candidate a;
    a.variant = v;
    a.fixed_list_length = 4;
    Candidate b = a;
    b.fixed_list_length = 12;
    EXPECT_NE(config_hash(a), config_hash(b));
    const bool reads = core::reads_fixed_list_length(v);
    EXPECT_EQ(run_hash(a) != run_hash(b), reads) << core::variant_name(v);
    EXPECT_EQ(a.label() != b.label(), reads) << core::variant_name(v);
    // At the default L the run hash is the config hash.
    Candidate d;
    d.variant = v;
    EXPECT_EQ(run_hash(d, kModelVersion), config_hash(d, kModelVersion));
  }
}

TEST(Space, HashIsStableAndSaltSensitive) {
  const Candidate a, b;
  EXPECT_EQ(config_hash(a, kModelVersion), config_hash(b, kModelVersion));
  Candidate c = a;
  c.variant = core::Variant::kFixed;
  EXPECT_NE(config_hash(a, kModelVersion), config_hash(c, kModelVersion));
  // Bumping the model version must miss every old entry.
  EXPECT_NE(config_hash(a, "smd-tune-v1"), config_hash(a, "smd-tune-v2"));
  EXPECT_EQ(hash_hex(0xabcULL), "0000000000000abc");
}

TEST(Space, CandidateJsonRoundTrip) {
  Candidate c;
  c.variant = core::Variant::kExpanded;
  c.fixed_list_length = 12;
  c.blocking_cells = 3;
  c.sdr_policy = sim::SdrPolicy::kConservative;
  c.n_clusters = 8;
  c.srf_kb = 512;
  c.dram_gbps = 19.2;
  const Candidate back = Candidate::from_json(c.to_json());
  EXPECT_EQ(back.key(), c.key());
  EXPECT_EQ(config_hash(back), config_hash(c));
}

// key(), label() and to_json().dump() of a fixed candidate list, recorded
// from the per-axis code the axis table replaced: the default candidate,
// the smdtune --paper candidates, the check.sh run-sharing sweep, one
// non-default value per axis, and every axis off its default at once.
// Each spec yields one candidate through the sweep parser. A mismatch
// means a key (and so every cache entry and config hash), a report label
// or a wire payload moved.
struct GoldenCandidate {
  const char* spec;
  const char* key;
  const char* label;
  const char* json;
};

constexpr GoldenCandidate kGoldenCandidates[] = {
    {"",
     "variant=variable|L=8|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "variable",
     "{\"variant\":\"variable\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=expanded",
     "variant=expanded|L=8|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "expanded",
     "{\"variant\":\"expanded\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=fixed",
     "variant=fixed|L=8|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "fixed L=8",
     "{\"variant\":\"fixed\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=duplicated",
     "variant=duplicated|L=8|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "duplicated L=8",
     "{\"variant\":\"duplicated\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=fixed;L=4",
     "variant=fixed|L=4|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "fixed L=4",
     "{\"variant\":\"fixed\",\"L\":4,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=fixed;L=6",
     "variant=fixed|L=6|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "fixed L=6",
     "{\"variant\":\"fixed\",\"L\":6,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=fixed;L=12",
     "variant=fixed|L=12|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "fixed L=12",
     "{\"variant\":\"fixed\",\"L\":12,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=fixed;L=16",
     "variant=fixed|L=16|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "fixed L=16",
     "{\"variant\":\"fixed\",\"L\":16,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=expanded;L=4;unroll=1",
     "variant=expanded|L=4|blocking=0|sdr=transfer|strip=0|unroll=1|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "expanded u=1",
     "{\"variant\":\"expanded\",\"L\":4,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":1,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=expanded;L=8;unroll=1",
     "variant=expanded|L=8|blocking=0|sdr=transfer|strip=0|unroll=1|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "expanded u=1",
     "{\"variant\":\"expanded\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":1,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=fixed;L=4;unroll=1",
     "variant=fixed|L=4|blocking=0|sdr=transfer|strip=0|unroll=1|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "fixed L=4 u=1",
     "{\"variant\":\"fixed\",\"L\":4,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":1,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=fixed;L=8;unroll=1",
     "variant=fixed|L=8|blocking=0|sdr=transfer|strip=0|unroll=1|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "fixed L=8 u=1",
     "{\"variant\":\"fixed\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":1,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=variable;L=4;unroll=1",
     "variant=variable|L=4|blocking=0|sdr=transfer|strip=0|unroll=1|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "variable u=1",
     "{\"variant\":\"variable\",\"L\":4,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":1,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=variable;L=8;unroll=1",
     "variant=variable|L=8|blocking=0|sdr=transfer|strip=0|unroll=1|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "variable u=1",
     "{\"variant\":\"variable\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":1,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"L=12",
     "variant=variable|L=12|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "variable",
     "{\"variant\":\"variable\",\"L\":12,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"blocking=3",
     "variant=variable|L=8|blocking=3|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "variable blk=3",
     "{\"variant\":\"variable\",\"L\":8,\"blocking\":3,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"sdr=conservative",
     "variant=variable|L=8|blocking=0|sdr=conservative|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "variable sdr=conservative",
     "{\"variant\":\"variable\",\"L\":8,\"blocking\":0,\"sdr\":\"conservative\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"strip=64",
     "variant=variable|L=8|blocking=0|sdr=transfer|strip=64|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "variable strip=64",
     "{\"variant\":\"variable\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":64,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"unroll=4",
     "variant=variable|L=8|blocking=0|sdr=transfer|strip=0|unroll=4|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "variable u=4",
     "{\"variant\":\"variable\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":4,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"swp=0",
     "variant=variable|L=8|blocking=0|sdr=transfer|strip=0|unroll=2|swp=0|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "variable swp=0",
     "{\"variant\":\"variable\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":false,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"clusters=8",
     "variant=variable|L=8|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=8|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "variable c=8",
     "{\"variant\":\"variable\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":8,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"srf_kb=512",
     "variant=variable|L=8|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=512|dram_gbps=38.4|cache_gbps=64",
     "variable srf=512K",
     "{\"variant\":\"variable\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":512,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"dram_gbps=19.2",
     "variant=variable|L=8|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=19.2|cache_gbps=64",
     "variable dram=19.2",
     "{\"variant\":\"variable\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":19.199999999999999,\"cache_gbps\":64}"},
    {"cache_gbps=32",
     "variant=variable|L=8|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=32",
     "variable cache=32",
     "{\"variant\":\"variable\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":32}"},
    {"variant=fixed;blocking=2;L=6",
     "variant=fixed|L=6|blocking=2|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=38.4|cache_gbps=64",
     "fixed blk=2 L=6",
     "{\"variant\":\"fixed\",\"L\":6,\"blocking\":2,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":38.399999999999999,\"cache_gbps\":64}"},
    {"variant=duplicated;L=12;blocking=3;sdr=conservative;strip=64;unroll=4;swp=off;clusters=8;srf_kb=512;dram_gbps=38.4001;cache_gbps=128",
     "variant=duplicated|L=12|blocking=3|sdr=conservative|strip=64|unroll=4|swp=0|clusters=8|srf_kb=512|dram_gbps=38.4001|cache_gbps=128",
     "duplicated blk=3 L=12 sdr=conservative strip=64 u=4 swp=0 c=8 srf=512K dram=38.4001 cache=128",
     "{\"variant\":\"duplicated\",\"L\":12,\"blocking\":3,\"sdr\":\"conservative\",\"strip\":64,\"unroll\":4,\"swp\":false,\"clusters\":8,\"srf_kb\":512,\"dram_gbps\":38.400100000000002,\"cache_gbps\":128}"},
    {"dram_gbps=1e-05;cache_gbps=1.5e+06",
     "variant=variable|L=8|blocking=0|sdr=transfer|strip=0|unroll=2|swp=1|clusters=16|srf_kb=1024|dram_gbps=1e-05|cache_gbps=1.5e+06",
     "variable dram=1e-05 cache=1.5e+06",
     "{\"variant\":\"variable\",\"L\":8,\"blocking\":0,\"sdr\":\"transfer\",\"strip\":0,\"unroll\":2,\"swp\":true,\"clusters\":16,\"srf_kb\":1024,\"dram_gbps\":1.0000000000000001e-05,\"cache_gbps\":1500000}"},
};

TEST(Space, KeyLabelAndJsonMatchTheGolden) {
  for (const GoldenCandidate& g : kGoldenCandidates) {
    const std::vector<Candidate> cands = ConfigSpace::parse(g.spec).enumerate();
    ASSERT_EQ(cands.size(), 1u) << g.spec;
    const Candidate& c = cands.front();
    EXPECT_EQ(c.key(), g.key) << g.spec;
    EXPECT_EQ(c.label(), g.label) << g.spec;
    EXPECT_EQ(c.to_json().dump(), g.json) << g.spec;
    EXPECT_EQ(Candidate::from_json(c.to_json()).key(), g.key) << g.spec;
  }
}

// Every row of the axis table, without naming one: the key names each
// axis exactly once, and each axis's key text, applied through the sweep
// parser, and its to_json value, applied through set_axis, set the same
// value. The candidates are the golden list above, so every axis is off
// its default somewhere; a new row is covered with no edit here.
TEST(Space, EveryAxisRoundTripsThroughTextAndJson) {
  const std::vector<std::string> names = axis_names();
  for (const GoldenCandidate& g : kGoldenCandidates) {
    const Candidate c = ConfigSpace::parse(g.spec).enumerate().front();
    const std::string key = c.key();
    const obs::Json json = c.to_json();
    std::map<std::string, std::vector<std::string>> text;  // axis -> values
    for (std::size_t start = 0; start <= key.size();) {
      std::size_t end = key.find('|', start);
      if (end == std::string::npos) end = key.size();
      const std::string field = key.substr(start, end - start);
      const std::size_t eq = field.find('=');
      ASSERT_NE(eq, std::string::npos) << key;
      text[field.substr(0, eq)].push_back(field.substr(eq + 1));
      start = end + 1;
    }
    EXPECT_EQ(text.size(), names.size()) << key;
    for (const std::string& axis : names) {
      ASSERT_EQ(text[axis].size(), 1u) << axis << " in " << key;
      ConfigSpace space;
      space.set(axis, text[axis]);
      EXPECT_EQ(space.enumerate(c).front().key(), key) << axis;
      Candidate via_json;
      set_axis(via_json, axis, json.at(axis));
      EXPECT_EQ(via_json.key(), space.enumerate().front().key()) << axis;
    }
  }
}

TEST(Space, MachineOverridesMaterializeAndValidate) {
  Candidate c;
  c.n_clusters = 8;
  c.srf_kb = 512;
  const sim::MachineConfig cfg = c.machine();
  EXPECT_EQ(cfg.n_clusters, 8);
  EXPECT_EQ(cfg.srf_words, 512 * 128);
  EXPECT_EQ(cfg.validate().errors(), 0u);

  Candidate bad = c;
  bad.n_clusters = 0;
  EXPECT_GT(bad.machine().validate().errors(), 0u);
  EXPECT_THROW(evaluate(problem_with(64), bad), analysis::CheckFailure);
}

// Candidate's machine axes default to Table 1 values of their own, because
// they are part of the cache-key format; this keeps them equal to the one
// Merrimac of sim::MachineConfig.
TEST(Space, DefaultCandidateRunsOnTheMerrimacMachine) {
  EXPECT_EQ(core::to_json(Candidate{}.machine()).dump(),
            core::to_json(sim::MachineConfig::merrimac()).dump());
}

TEST(Runner, AnalyticEstimateAndPruning) {
  const auto est = estimate(problem_with(64), Candidate{});
  EXPECT_GT(est.time_cycles, 0.0);
  EXPECT_GT(est.mem_words, 0.0);

  // b is 2x better than a on both axes: pruned at slack 1.5, kept at 3.
  std::vector<core::AnalyticEstimate> pts(2);
  pts[0].time_cycles = 2000.0;
  pts[0].mem_words = 2000.0;
  pts[1].time_cycles = 1000.0;
  pts[1].mem_words = 1000.0;
  const auto keep15 = core::prune_dominated(pts, 1.5);
  EXPECT_FALSE(keep15[0]);
  EXPECT_TRUE(keep15[1]);
  const auto keep3 = core::prune_dominated(pts, 3.0);
  EXPECT_TRUE(keep3[0] && keep3[1]);
  const auto keep_off = core::prune_dominated(pts, 0.0);
  EXPECT_TRUE(keep_off[0] && keep_off[1]);
}

// Figure 9's conclusion must fall out of the search: on the Table 1
// machine the tuner ranks variable < fixed < expanded by run time.
TEST(Golden, VariantOrderingReproduced) {
  const ConfigSpace space =
      ConfigSpace::parse("variant=expanded,fixed,variable");
  RunnerOptions opts;
  opts.jobs = 4;
  Runner runner(problem_with(256), opts);
  const std::vector<EvalResult> results = runner.run(space.enumerate());
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.error;

  double time_of[4] = {};
  for (const auto& r : results) {
    EXPECT_EQ(r.metrics.source, "sim");
    time_of[static_cast<int>(r.cand.variant)] = r.metrics.time_ms;
  }
  const double expanded = time_of[static_cast<int>(core::Variant::kExpanded)];
  const double fixed = time_of[static_cast<int>(core::Variant::kFixed)];
  const double variable = time_of[static_cast<int>(core::Variant::kVariable)];
  EXPECT_LT(variable, fixed);
  EXPECT_LT(fixed, expanded);

  // The report layer agrees: best overall is `variable`, and it is on the
  // Pareto front.
  const std::size_t best = best_index(results);
  ASSERT_LT(best, results.size());
  EXPECT_EQ(results[best].cand.variant, core::Variant::kVariable);
  const auto front = pareto_front(results);
  EXPECT_NE(std::find(front.begin(), front.end(), best), front.end());
}

// Figure 12's conclusion in the paper's memory-bound regime: an interior
// run-time minimum below 1.0x `variable` at a few molecules per cluster.
TEST(Golden, BlockingMinimumReproduced) {
  core::BlockingModelParams params;
  params.variable_kernel_cycles = 1.0e6;
  params.variable_memory_cycles = 2.5e6;  // the paper's regime
  const core::BlockingPoint min = core::BlockingModel(params).minimum();
  EXPECT_LT(min.time_rel, 1.0);
  EXPECT_GT(min.size, 0.4);
  EXPECT_LT(min.size, 6.0);
  EXPECT_GE(min.molecules, 1.0);
  EXPECT_LE(min.molecules, 64.0);
}

// A sweep re-run against a warm cache performs zero simulations and
// returns bit-identical results; the result list is independent of the
// worker count. (Counters are read as deltas of the process registry,
// which the workers write.)
TEST(Golden, CacheRerunBitIdenticalAndJobsInvariant) {
  const std::string path = testing::TempDir() + "/tune_test_cache.json";
  std::remove(path.c_str());
  const ConfigSpace space =
      ConfigSpace::parse("variant=fixed,variable;sdr=conservative,transfer");
  const std::vector<Candidate> cands = space.enumerate();
  ASSERT_EQ(cands.size(), 4u);
  const core::Problem& problem = problem_with(128);
  auto& reg = obs::CounterRegistry::process();

  RunnerOptions opts;
  opts.jobs = 1;
  opts.cache_path = path;
  const std::int64_t evaluated0 = reg.counter("tune.evaluated");
  const std::vector<EvalResult> cold = Runner(problem, opts).run(cands);
  for (const auto& r : cold) ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(reg.counter("tune.evaluated") - evaluated0, 4);

  // Warm re-run with a different worker count: 100% hits, 0 simulations.
  opts.jobs = 4;
  const std::int64_t hits0 = reg.counter("tune.cache.hits");
  const std::int64_t evaluated1 = reg.counter("tune.evaluated");
  const std::vector<EvalResult> warm = Runner(problem, opts).run(cands);
  EXPECT_EQ(reg.counter("tune.cache.hits") - hits0, 4);
  EXPECT_EQ(reg.counter("tune.evaluated") - evaluated1, 0);
  for (const auto& r : warm) EXPECT_TRUE(r.cached);

  // Bit-identical metrics (the cached flag itself differs by design).
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].hash, warm[i].hash);
    EXPECT_EQ(cold[i].metrics.to_json().dump(),
              warm[i].metrics.to_json().dump());
  }

  // Fresh evaluation with jobs=4 (cache off) matches jobs=1 byte for byte.
  RunnerOptions par;
  par.jobs = 4;
  const std::vector<EvalResult> jobs4 = Runner(problem, par).run(cands);
  EXPECT_EQ(results_fingerprint(cold), results_fingerprint(jobs4));
  std::remove(path.c_str());
}

// Candidates that differ only in L where the variant does not read it
// run once per sweep; every other member copies the first one's result.
TEST(Runner, SharesRunsThatDifferOnlyInUnreadL) {
  const std::vector<Candidate> cands =
      ConfigSpace::parse("variant=expanded,fixed,variable;L=4,8;unroll=1")
          .enumerate();
  ASSERT_EQ(cands.size(), 6u);
  const core::Problem& problem = problem_with(64);
  auto& reg = obs::CounterRegistry::process();

  RunnerOptions opts;
  opts.jobs = 1;
  const std::int64_t evaluated0 = reg.counter("tune.evaluated");
  const std::int64_t shared0 = reg.counter("tune.shared");
  const std::vector<EvalResult> serial = Runner(problem, opts).run(cands);
  EXPECT_EQ(reg.counter("tune.evaluated") - evaluated0, 4);
  EXPECT_EQ(reg.counter("tune.shared") - shared0, 2);

  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    EXPECT_FALSE(serial[i].cached || serial[i].pruned);
    // expanded L=8 and variable L=8 copy the L=4 runs; fixed runs twice.
    EXPECT_EQ(serial[i].shared,
              !core::reads_fixed_list_length(cands[i].variant) &&
                  cands[i].fixed_list_length == 8)
        << cands[i].key();
    EXPECT_EQ(serial[i].hash, config_hash(cands[i], kModelVersion));
    // Each result is its own candidate's direct evaluation, byte for byte.
    EXPECT_EQ(serial[i].metrics.to_json().dump(),
              evaluate(problem, cands[i]).to_json().dump())
        << cands[i].key();
  }
  EXPECT_NE(to_json(serial[1]).dump().find("\"shared\":true"),
            std::string::npos);

  for (const int jobs : {2, 4}) {
    RunnerOptions par;
    par.jobs = jobs;
    EXPECT_EQ(results_fingerprint(Runner(problem, par).run(cands)),
              results_fingerprint(serial))
        << "jobs=" << jobs;
  }
}

// Workers write the shared registry directly and counters add, so every
// counter total a sweep leaves is the same at any --jobs.
TEST(Runner, CounterTotalsDoNotDependOnJobs) {
  const std::vector<Candidate> cands =
      ConfigSpace::parse("variant=expanded,fixed,variable;L=4,8;unroll=1")
          .enumerate();
  const core::Problem& problem = problem_with(64);
  auto& reg = obs::CounterRegistry::process();
  const std::vector<std::string> names = {"sim.runs", "sim.cycles",
                                          "sim.kernel_launches",
                                          "tune.evaluated", "tune.shared"};
  std::map<int, std::vector<std::int64_t>> deltas;
  for (const int jobs : {1, 4}) {
    std::vector<std::int64_t> before;
    for (const std::string& n : names) before.push_back(reg.counter(n));
    RunnerOptions opts;
    opts.jobs = jobs;
    (void)Runner(problem, opts).run(cands);
    for (std::size_t i = 0; i < names.size(); ++i) {
      deltas[jobs].push_back(reg.counter(names[i]) - before[i]);
    }
  }
  EXPECT_EQ(deltas[1], deltas[4]);
  EXPECT_EQ(deltas[1][0], 4);  // four simulations: two rows share
  EXPECT_EQ(deltas[1][4], 2);
}

TEST(Runner, FailingGroupSharesItsError) {
  // Two expanded candidates on an invalid machine: one run, one error,
  // copied to the other member.
  std::vector<Candidate> cands(2);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    cands[i].variant = core::Variant::kExpanded;
    cands[i].fixed_list_length = i == 0 ? 4 : 12;
    cands[i].n_clusters = 0;
  }
  auto& reg = obs::CounterRegistry::process();
  const std::int64_t errors0 = reg.counter("tune.errors");
  const std::int64_t shared0 = reg.counter("tune.shared");
  RunnerOptions opts;
  opts.jobs = 2;
  const std::vector<EvalResult> rs = Runner(problem_with(64), opts).run(cands);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_FALSE(rs[0].ok());
  EXPECT_FALSE(rs[0].shared);
  EXPECT_TRUE(rs[1].shared);
  EXPECT_EQ(rs[1].error, rs[0].error);
  EXPECT_EQ(reg.counter("tune.errors") - errors0, 1);
  EXPECT_EQ(reg.counter("tune.shared") - shared0, 1);
}

TEST(Runner, SharedResultsLandInTheCacheUnderTheirOwnHash) {
  const std::string path = testing::TempDir() + "/tune_test_shared.json";
  std::remove(path.c_str());
  const std::vector<Candidate> cands =
      ConfigSpace::parse("variant=expanded,fixed,variable;L=4,8;unroll=1")
          .enumerate();
  const core::Problem& problem = problem_with(64);
  auto& reg = obs::CounterRegistry::process();
  RunnerOptions opts;
  opts.jobs = 2;
  opts.cache_path = path;
  const std::vector<EvalResult> cold = Runner(problem, opts).run(cands);

  ResultCache cache(path, opts.salt);
  EXPECT_EQ(cache.load(), cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    Metrics m;
    ASSERT_TRUE(cache.lookup(config_hash(cands[i], opts.salt), &m))
        << cands[i].key();
    EXPECT_EQ(m.to_json().dump(), cold[i].metrics.to_json().dump());
  }

  const std::int64_t hits0 = reg.counter("tune.cache.hits");
  const std::int64_t evaluated0 = reg.counter("tune.evaluated");
  const std::int64_t shared0 = reg.counter("tune.shared");
  const std::vector<EvalResult> warm = Runner(problem, opts).run(cands);
  EXPECT_EQ(reg.counter("tune.cache.hits") - hits0,
            static_cast<std::int64_t>(cands.size()));
  EXPECT_EQ(reg.counter("tune.evaluated") - evaluated0, 0);
  EXPECT_EQ(reg.counter("tune.shared") - shared0, 0);
  for (const EvalResult& r : warm) EXPECT_TRUE(r.cached && !r.shared);
  std::remove(path.c_str());
}

TEST(Runner, ShortFixedListIsAnErrorNotAHang) {
  Candidate c;
  c.variant = core::Variant::kFixed;
  c.fixed_list_length = 0;
  EXPECT_THROW(evaluate(problem_with(64), c), std::invalid_argument);
  const std::vector<EvalResult> rs =
      Runner(problem_with(64), RunnerOptions{}).run({c});
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_NE(rs[0].error.find("below 1"), std::string::npos) << rs[0].error;
}

TEST(Cache, SaltMismatchDiscardsAndCorruptFileIsEmpty) {
  const std::string path = testing::TempDir() + "/tune_test_salt.json";
  {
    ResultCache cache(path, "salt-a");
    cache.load();
    Metrics m;
    m.time_ms = 1.5;
    m.source = "sim";
    cache.insert(config_hash(Candidate{}, "salt-a"), Candidate{}, m);
    cache.save();
  }
  {
    ResultCache same(path, "salt-a");
    EXPECT_EQ(same.load(), 1u);
    ResultCache other(path, "salt-b");
    EXPECT_EQ(other.load(), 0u);
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not json", f);
    std::fclose(f);
    ResultCache corrupt(path, "salt-a");
    EXPECT_EQ(corrupt.load(), 0u);
  }
  std::remove(path.c_str());
}

// Crash/concurrency-safety of the persistent cache (DESIGN.md section
// 13): a truncated (torn) file or a malformed entry is tolerated with a
// counter, never thrown, and save() goes through the atomic temp+rename
// so no .tmp litter survives a successful save.
TEST(Cache, TornFileAndMalformedEntriesAreTolerated) {
  const std::string path = testing::TempDir() + "/tune_test_torn.json";
  auto& reg = obs::CounterRegistry::process();

  // Build a valid one-entry cache file, then truncate it mid-document.
  {
    ResultCache cache(path, kModelVersion);
    Metrics m;
    m.time_ms = 2.5;
    m.source = "sim";
    cache.insert(config_hash(Candidate{}, kModelVersion), Candidate{}, m);
    cache.save();
    EXPECT_EQ(std::remove((path + ".tmp").c_str()), -1)
        << "atomic save left its temp file behind";
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long full = std::ftell(f);
    std::fclose(f);
    ASSERT_GT(full, 32);
    std::string head(static_cast<std::size_t>(full) / 2, '\0');
    f = std::fopen(path.c_str(), "r");
    ASSERT_EQ(std::fread(head.data(), 1, head.size(), f), head.size());
    std::fclose(f);
    f = std::fopen(path.c_str(), "w");
    std::fwrite(head.data(), 1, head.size(), f);
    std::fclose(f);
  }
  const std::int64_t corrupt0 = reg.counter("tune.cache.load_corrupt");
  {
    ResultCache torn(path, kModelVersion);
    EXPECT_EQ(torn.load(), 0u);  // no throw: empty cache
  }
  EXPECT_EQ(reg.counter("tune.cache.load_corrupt") - corrupt0, 1);

  // One good entry plus four malformed ones (bad key, missing metrics,
  // a cycle count outside int64, a config that is not a candidate): the
  // good entry loads, the bad ones are skipped and counted.
  {
    obs::Json good = obs::Json::object();
    Metrics m;
    m.time_ms = 1.0;
    m.source = "sim";
    good.set("config", Candidate{}.to_json());
    good.set("metrics", m.to_json());
    obs::Json bad_key = good;  // valid body under an unparsable key
    obs::Json no_metrics = obs::Json::object();
    no_metrics.set("config", Candidate{}.to_json());
    obs::Json huge = good;
    obs::Json huge_metrics = m.to_json();
    huge_metrics.set("cycles", 1e30);
    huge.set("metrics", std::move(huge_metrics));
    obs::Json bad_config = good;
    obs::Json quantum = Candidate{}.to_json();
    quantum.set("variant", "quantum");
    bad_config.set("config", std::move(quantum));
    obs::Json entries = obs::Json::object();
    entries.set(hash_hex(config_hash(Candidate{}, kModelVersion)),
                std::move(good));
    entries.set("not-a-hash", std::move(bad_key));
    entries.set(hash_hex(1234), std::move(no_metrics));
    entries.set(hash_hex(5678), std::move(huge));
    entries.set(hash_hex(9012), std::move(bad_config));
    obs::Json doc = obs::Json::object();
    doc.set("schema_version", 1);
    doc.set("salt", kModelVersion);
    doc.set("entries", std::move(entries));
    obs::write_file_atomic(doc, path);
  }
  const std::int64_t skipped0 = reg.counter("tune.cache.load_skipped");
  {
    ResultCache partial(path, kModelVersion);
    EXPECT_EQ(partial.load(), 1u);
    Metrics out;
    EXPECT_TRUE(partial.lookup(config_hash(Candidate{}, kModelVersion), &out));
    EXPECT_EQ(out.time_ms, 1.0);
  }
  EXPECT_EQ(reg.counter("tune.cache.load_skipped") - skipped0, 4);
  std::remove(path.c_str());
}

// Without a path the store still keeps entries -- svc::Server serves
// repeats from it -- but load() and save() touch no file.
TEST(Cache, WithoutAPathKeepsEntriesInMemoryOnly) {
  ResultCache cache("", kModelVersion);
  EXPECT_FALSE(cache.enabled());
  const std::uint64_t hash = config_hash(Candidate{}, kModelVersion);
  Metrics m;
  m.time_ms = 3.25;
  m.cycles = 3250;
  m.source = "sim";
  Metrics out;
  EXPECT_FALSE(cache.lookup(hash, &out));
  cache.insert(hash, Candidate{}, m);
  ASSERT_TRUE(cache.lookup(hash, &out));
  EXPECT_EQ(out.to_json().dump(), m.to_json().dump());
  EXPECT_EQ(cache.size(), 1u);

  EXPECT_EQ(cache.load(), 0u);  // no file: the entries stay
  EXPECT_TRUE(cache.lookup(hash, &out));
  EXPECT_NO_THROW(cache.save());  // writing "" would throw
  EXPECT_FALSE(std::filesystem::exists(".tmp"));
  EXPECT_EQ(cache.size(), 1u);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t digest(const std::string& text) {
  golden::Fnv1a h;
  h.str(text);
  return h.value();
}

// FNV-1a digests of the cache file, recorded from the JSON-tree store the
// typed store replaced: the file ResultCache::save writes for a fixed
// entry list, and that file loaded and saved again. The entries are the
// default candidate, the smdtune --paper candidates and one candidate per
// variant with every axis off its default, each with made-up metrics. A
// mismatch means the file format moved, so a cache written by an earlier
// build would re-simulate or misread.
constexpr std::uint64_t kSavedCacheDigest = 0x23164f2bb9738c4fULL;
constexpr std::uint64_t kResavedCacheDigest = 0x23164f2bb9738c4fULL;

TEST(Cache, SavedFileMatchesTheGolden) {
  std::vector<Candidate> cands(1);  // the default candidate
  for (const core::Variant v : core::kAllVariants) {
    Candidate c;
    c.variant = v;
    cands.push_back(c);
  }
  for (const int L : {4, 6, 8, 12, 16}) {
    Candidate c;
    c.variant = core::Variant::kFixed;
    c.fixed_list_length = L;
    cands.push_back(c);
  }
  for (const core::Variant v : core::kAllVariants) {
    cands.push_back(
        ConfigSpace::parse(std::string("variant=") + core::variant_name(v) +
                           ";L=12;blocking=3;sdr=conservative;strip=64;"
                           "unroll=4;swp=0;clusters=8;srf_kb=512;"
                           "dram_gbps=19.2;cache_gbps=38.4001")
            .enumerate()
            .front());
  }
  const char* const kSources[] = {"sim", "blocked_profile", "estimate"};

  const std::string path = testing::TempDir() + "/tune_test_golden.json";
  std::remove(path.c_str());
  std::set<std::uint64_t> hashes;
  {
    ResultCache cache(path, kModelVersion);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const double k = static_cast<double>(i + 1);
      Metrics m;
      m.time_ms = k / 3.0;
      m.cycles = 1000003ULL * (i + 1);
      m.mem_words = static_cast<std::int64_t>(70001 * (i + 1));
      m.srf_peak_words = static_cast<std::int64_t>(4096 + i);
      m.kernel_busy_cycles = 900001ULL * (i + 1);
      m.mem_busy_cycles = 300007ULL * (i + 1);
      m.solution_gflops = 12.345678901234 * k;
      m.max_force_rel_err = 1e-13 * k;
      m.source = kSources[i % 3];
      const std::uint64_t hash = config_hash(cands[i], kModelVersion);
      hashes.insert(hash);
      cache.insert(hash, cands[i], m);
    }
    cache.save();
  }
  const std::string saved = read_text(path);
  EXPECT_EQ(golden::hex(digest(saved)), golden::hex(kSavedCacheDigest))
      << saved;

  {
    ResultCache cache(path, kModelVersion);
    EXPECT_EQ(cache.load(), hashes.size());
    // Re-insert one loaded entry so save() rewrites every loaded entry.
    Metrics m;
    const std::uint64_t hash = config_hash(cands[0], kModelVersion);
    ASSERT_TRUE(cache.lookup(hash, &m));
    cache.insert(hash, cands[0], m);
    cache.save();
  }
  const std::string resaved = read_text(path);
  EXPECT_EQ(golden::hex(digest(resaved)), golden::hex(kResavedCacheDigest))
      << resaved;
  std::remove(path.c_str());
}

TEST(Pareto, FrontAndBestPerVariant) {
  std::vector<EvalResult> rs(3);
  rs[0].cand.variant = core::Variant::kExpanded;
  rs[0].metrics = {
      .time_ms = 2.0, .mem_words = 100, .srf_peak_words = 10, .source = "sim"};
  rs[1].cand.variant = core::Variant::kVariable;
  rs[1].metrics = {
      .time_ms = 1.0, .mem_words = 50, .srf_peak_words = 10, .source = "sim"};
  rs[2].cand.variant = core::Variant::kFixed;
  rs[2].metrics = {
      .time_ms = 1.5, .mem_words = 40, .srf_peak_words = 10, .source = "sim"};
  const auto front = pareto_front(rs);
  EXPECT_EQ(front, (std::vector<std::size_t>{1, 2}));  // 0 dominated by 1
  EXPECT_EQ(best_index(rs), 1u);
  const auto by_variant = best_per_variant(rs);
  ASSERT_EQ(by_variant.size(), 3u);
  EXPECT_EQ(by_variant[0], 1u);  // fastest first
  const std::string table = format_results_table(rs, front);
  EXPECT_NE(table.find('*'), std::string::npos);
}

}  // namespace
}  // namespace smd::tune
