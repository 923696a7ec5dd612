// Unit tests for src/common: rng, stats, math_util, check.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace overlay {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextBelowZeroBoundThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.NextBelow(0), ContractViolation);
}

// The rejection sampler as first written: the threshold division runs
// before every draw. NextBelow skips it when the first draw is >= bound;
// the stream must not change.
std::uint64_t ReferenceNextBelow(Rng& rng, std::uint64_t bound,
                                 std::size_t& rejected) {
  const std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    const std::uint64_t r = rng.Next();
    if (r >= threshold) return r % bound;
    ++rejected;
  }
}

TEST(Rng, NextBelowMatchesReferenceStream) {
  // 2^63 + 1 rejects about half of all draws, so the rejection loop runs;
  // 2^64 - 1 and 2^32 + 1 put the threshold at 1 and just below 2^32.
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{80}, (std::uint64_t{1} << 32) + 1,
        (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0}}) {
    Rng got(bound ^ 0x5eedULL), want(bound ^ 0x5eedULL);
    std::size_t rejected = 0;
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(got.NextBelow(bound), ReferenceNextBelow(want, bound, rejected))
          << "bound " << bound << " draw " << i;
    }
    EXPECT_EQ(got.Next(), want.Next()) << "bound " << bound;
    if (bound == (std::uint64_t{1} << 63) + 1) EXPECT_GT(rejected, 4000u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextBelow(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(13);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBelow(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.NextInRange(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, NextBoolMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) hits += rng.NextBool(0.3);
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(23);
  // Exp(beta = 1/2) has mean 2.
  double sum = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextExponential(0.5);
  EXPECT_NEAR(sum / kDraws, 2.0, 0.1);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.NextExponential(0.0), ContractViolation);
  EXPECT_THROW(rng.NextExponential(-1.0), ContractViolation);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng b = a.Split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(MathUtil, FloorLog2KnownValues) {
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(2), 1u);
  EXPECT_EQ(FloorLog2(3), 1u);
  EXPECT_EQ(FloorLog2(4), 2u);
  EXPECT_EQ(FloorLog2(1023), 9u);
  EXPECT_EQ(FloorLog2(1024), 10u);
}

TEST(MathUtil, CeilLog2KnownValues) {
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(4), 2u);
  EXPECT_EQ(CeilLog2(5), 3u);
  EXPECT_EQ(CeilLog2(1024), 10u);
  EXPECT_EQ(CeilLog2(1025), 11u);
}

TEST(MathUtil, LogZeroAndOneThrow) {
  EXPECT_THROW(FloorLog2(0), ContractViolation);
  EXPECT_THROW(CeilLog2(0), ContractViolation);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(CeilDiv(0, 3), 0u);
  EXPECT_THROW(CeilDiv(1, 0), ContractViolation);
}

TEST(MathUtil, PowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(6));
}

TEST(RunningStats, BasicAggregates) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.NextDouble() * 10;
    all.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_NEAR(a.min(), all.min(), 1e-12);
  EXPECT_NEAR(a.max(), all.max(), 1e-12);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(10, 3);  // [0,10) [10,20) [20,30)
  h.Add(0);
  h.Add(9);
  h.Add(10);
  h.Add(29);
  h.Add(30);
  h.Add(1000);
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.OverflowCount(), 2u);
  EXPECT_EQ(h.Total(), 6u);
}

TEST(Histogram, Quantile) {
  Histogram h(1, 100);
  for (int i = 0; i < 100; ++i) h.Add(i);
  EXPECT_NEAR(h.Quantile(0.5), 49, 1);
  EXPECT_NEAR(h.Quantile(0.99), 98, 1);
  EXPECT_EQ(h.Quantile(1.0), 99u);
}

TEST(Check, ViolationCarriesContext) {
  try {
    OVERLAY_CHECK(1 == 2, "custom detail");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail"), std::string::npos);
  }
}

}  // namespace
}  // namespace overlay
