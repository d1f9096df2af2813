// Unit tests for src/util: hex codec, contract checks, deterministic rng,
// table formatting, sim time.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/util/bytes.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/sim_time.h"
#include "src/util/table.h"

namespace tormet {
namespace {

TEST(BytesTest, HexRoundTrip) {
  const byte_buffer data{0x00, 0x01, 0xab, 0xff, 0x7e};
  EXPECT_EQ(to_hex(data), "0001abff7e");
  EXPECT_EQ(from_hex("0001abff7e"), data);
  EXPECT_EQ(from_hex("0001ABFF7E"), data);
}

TEST(BytesTest, EmptyHex) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(BytesTest, InvalidHexThrows) {
  EXPECT_THROW((void)from_hex("abc"), precondition_error);   // odd length
  EXPECT_THROW((void)from_hex("zz"), precondition_error);    // non-hex chars
}

TEST(BytesTest, StringViewBytes) {
  const auto view = as_bytes("hi");
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], 'h');
  EXPECT_EQ(to_string(view), "hi");
}

TEST(CheckTest, ExpectsAndEnsures) {
  EXPECT_NO_THROW(expects(true, "fine"));
  EXPECT_THROW(expects(false, "bad"), precondition_error);
  EXPECT_NO_THROW(ensures(true, "fine"));
  EXPECT_THROW(ensures(false, "bad"), invariant_error);
}

TEST(RngTest, DeterministicFromSeed) {
  rng a{42};
  rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  rng a{1};
  rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ForkDecorrelates) {
  rng parent{7};
  rng f1 = parent.fork("alpha");
  rng f2 = parent.fork("alpha");  // forked later -> different stream
  EXPECT_NE(f1.next(), f2.next());
}

TEST(RngTest, BelowRespectsBound) {
  rng r{3};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
  EXPECT_EQ(r.below(1), 0u);
}

TEST(RngTest, BelowIsRoughlyUniform) {
  rng r{5};
  std::vector<int> counts(10, 0);
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.below(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, 500);  // ~5 sigma of binomial
  }
}

TEST(RngTest, BetweenInclusive) {
  rng r{9};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.between(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, UniformInUnitInterval) {
  rng r{11};
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  rng r{13};
  double sum = 0.0;
  double sq = 0.0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMean) {
  rng r{17};
  for (const double mean : {0.5, 4.0, 30.0, 200.0}) {
    double sum = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, ExponentialMean) {
  rng r{19};
  double sum = 0.0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.exponential(0.25);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, BernoulliEdges) {
  rng r{21};
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(ones, 3000, 250);
}

TEST(TableTest, RenderContainsRowsAndTitle) {
  repro_table t{"Table X"};
  t.add("stat-a", "1.0", "1.1", "[0.9; 1.3]", "scaled");
  t.add("stat-b", "2", "2");
  const std::string rendered = t.render();
  EXPECT_NE(rendered.find("Table X"), std::string::npos);
  EXPECT_NE(rendered.find("stat-a"), std::string::npos);
  EXPECT_NE(rendered.find("[0.9; 1.3]"), std::string::npos);
  EXPECT_NE(rendered.find("stat-b"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(format_count(1.48e8), "148 million");
  EXPECT_EQ(format_count(2.1e9), "2.1 billion");
  EXPECT_EQ(format_count(313213), "313.2 thousand");
  EXPECT_EQ(format_percent(0.401), "40.1 %");
  EXPECT_EQ(format_bytes(1024.0 * 1024.0), "1 MiB");
}

TEST(TableTest, ValuesThatRoundToZeroPrintNoSign) {
  EXPECT_EQ(format_count(-0.3), "0");
  EXPECT_EQ(format_count(-0.0), "0");
  EXPECT_EQ(format_percent(-0.0001), "0.0 %");
  EXPECT_EQ(format_sig(-0.0, 3), "0");
  EXPECT_EQ(format_bytes(-0.0), "0 B");
  // Values that do not round to zero keep their sign.
  EXPECT_EQ(format_count(-0.6), "-1");
  EXPECT_EQ(format_percent(-0.001), "-0.1 %");
  EXPECT_EQ(format_sig(-0.00123, 3), "-0.00123");
  EXPECT_EQ(format_sig(-1e-10, 3), "-1e-10");
}

TEST(SimTimeTest, Arithmetic) {
  sim_time t{100};
  EXPECT_EQ((t + 50).seconds, 150);
  t += 10;
  EXPECT_EQ(t.seconds, 110);
  EXPECT_EQ(t - sim_time{10}, 100);
  EXPECT_LT(sim_time{1}, sim_time{2});
  EXPECT_EQ(k_seconds_per_day, 86400);
}

}  // namespace
}  // namespace tormet
