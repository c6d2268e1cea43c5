// Tests for the common kernel: RNG, statistics, tables, CLI and the
// thread pool.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>

#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace meshrt {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, StreamsAreIndependentAndReproducible) {
  Rng a = Rng::forStream(7, 0);
  Rng a2 = Rng::forStream(7, 0);
  Rng b = Rng::forStream(7, 1);
  EXPECT_EQ(a(), a2());
  EXPECT_NE(a(), b());
}

TEST(RngTest, BelowStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(RngTest, BelowCoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(5);
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) sawLo = true;
    if (v == 3) sawHi = true;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(RngTest, Uniform01InHalfOpenRange) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(AccumulatorTest, TracksMoments) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_EQ(acc.min(), 1.0);
  EXPECT_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(AccumulatorTest, MergeMatchesSequential) {
  Accumulator whole;
  Accumulator left;
  Accumulator right;
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform01() * 10;
    whole.add(v);
    (i % 2 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(AccumulatorTest, EmptyIsSafe) {
  const Accumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(RatioCounterTest, PercentAndMerge) {
  RatioCounter a;
  a.add(true);
  a.add(false);
  RatioCounter b;
  b.add(true);
  b.add(true);
  a.merge(b);
  EXPECT_EQ(a.hits(), 3u);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_DOUBLE_EQ(a.percent(), 75.0);
  EXPECT_DOUBLE_EQ(RatioCounter{}.percent(), 100.0);
}

TEST(QuantileSketchTest, NearestRankQuantiles) {
  QuantileSketch sketch;
  for (int i = 1; i <= 100; ++i) sketch.add(i);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 100.0);
  EXPECT_NEAR(sketch.quantile(0.5), 50.0, 1.0);
}

TEST(TableTest, PrintsAlignedColumns) {
  Table table({"a", "long-header"});
  table.row().cell(std::int64_t{1}).cell("x");
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_NE(out.find('1'), std::string::npos);
}

TEST(TableTest, CsvRoundTrip) {
  Table table({"x", "y"});
  table.row().cell(std::int64_t{1}).cell(2.5, 1);
  std::ostringstream os;
  table.writeCsv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2.5\n");
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(1.0, 0), "1");
}

TEST(CliTest, ParsesFlagsAndDefaults) {
  CliFlags flags;
  flags.define("alpha", "1", "first");
  flags.define("beta", "x", "second");
  const char* argv[] = {"prog", "--alpha", "42", "--beta=hello"};
  ASSERT_TRUE(flags.parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(flags.integer("alpha"), 42);
  EXPECT_EQ(flags.str("beta"), "hello");
}

TEST(CliTest, RejectsUnknownFlag) {
  CliFlags flags;
  flags.define("alpha", "1", "first");
  const char* argv[] = {"prog", "--nope", "3"};
  EXPECT_FALSE(flags.parse(3, const_cast<char**>(argv)));
}

TEST(CliTest, SplitCommaListTrimsAndDropsEmpties) {
  const auto items = splitCommaList(" rb2 , rb3,,ecube ,");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], "rb2");
  EXPECT_EQ(items[1], "rb3");
  EXPECT_EQ(items[2], "ecube");
  EXPECT_TRUE(splitCommaList("").empty());
}

TEST(CliTest, BareBooleanFlag) {
  CliFlags flags;
  flags.define("verbose", "false", "chatty");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.boolean("verbose"));
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  parallelFor(pool, hits.size(),
              [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelReductionDeterministic) {
  // Per-index derivation makes results independent of scheduling.
  ThreadPool pool(8);
  std::vector<std::uint64_t> out(64);
  parallelFor(pool, out.size(), [&](std::size_t i) {
    Rng rng = Rng::forStream(99, i);
    out[i] = rng();
  });
  std::vector<std::uint64_t> serial(64);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    Rng rng = Rng::forStream(99, i);
    serial[i] = rng();
  }
  EXPECT_EQ(out, serial);
}

TEST(ThreadPoolTest, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallelFor(pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallelFor(pool, 64,
                  [](std::size_t i) {
                    if (i == 33) throw std::invalid_argument("bad index");
                  }),
      std::invalid_argument);
}

TEST(TableTest, JsonKeepsNumbersUnquoted) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{3});
  t.row().cell("be\"ta").cell(1.5, 2);
  std::ostringstream os;
  t.writeJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"value\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"value\": 1.50"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(json.find("be\\\"ta"), std::string::npos);
}

}  // namespace
}  // namespace meshrt
