#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/util/range.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace smd::util {
namespace {

TEST(Range, ExpandsInclusiveRanges) {
  EXPECT_EQ(expand_range("4:16:4"), (std::vector<double>{4, 8, 12, 16}));
  EXPECT_EQ(expand_range("0.6:4.2:0.3").size(), 13u);
  EXPECT_EQ(expand_range("1:4096:1").size(), kMaxRangeValues);
}

// A range that would never end or exhaust memory is an error that quotes
// the token; smdtune prefixes the axis, the bench drivers the flag.
TEST(Range, RejectsRangesThatNeverEnd) {
  const std::pair<std::string, std::string> cases[] = {
      {"1:2", "bad range '1:2' (want lo:hi:step)"},
      {"1:2:3:4", "bad range '1:2:3:4' (want lo:hi:step)"},
      {"1x:2:1", "bad number '1x'"},
      {"1::1", "bad number ''"},
      {"1:inf:1", "non-finite range '1:inf:1'"},
      {"1:2:nan", "non-finite range '1:2:nan'"},
      {"2:1:1", "empty range '2:1:1'"},
      {"1:2:0", "empty range '1:2:0'"},
      {"1e20:2e20:1", "step of range '1e20:2e20:1' does not advance the value"},
      {"1:1e12:1", "range '1:1e12:1' has more than 4096 values"}};
  for (const auto& [token, message] : cases) {
    try {
      expand_range(token);
      ADD_FAILURE() << token << " expanded";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), message);
    }
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformU64Unbiased) {
  Rng r(99);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.uniform_u64(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, 5.0 * std::sqrt(n / 10.0));
  }
}

TEST(Rng, NormalMomentsCorrect) {
  Rng r(5);
  constexpr int kN = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = r.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(sum_sq / kN - mean * mean), 1.0, 0.02);
}

TEST(Rng, ReseedResetsStream) {
  Rng r(42);
  const auto v1 = r.next_u64();
  r.next_u64();
  r.reseed(42);
  EXPECT_EQ(r.next_u64(), v1);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.50"});
  t.add_row({"b", "20.00"});
  const std::string s = t.render();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("20.00"), std::string::npos);
  // header separator present
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(1234567), "1,234,567");
  EXPECT_EQ(Table::integer(-1000), "-1,000");
  EXPECT_EQ(Table::integer(999), "999");
  EXPECT_EQ(Table::percent(0.945, 1), "94.5%");
}

}  // namespace
}  // namespace smd::util
