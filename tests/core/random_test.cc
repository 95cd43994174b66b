/**
 * @file
 * Unit tests for the deterministic PRNG stack.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/random.hh"

namespace
{

using hdham::Rng;
using hdham::SplitMix64;

TEST(SplitMix64Test, DeterministicForSameSeed)
{
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge)
{
    SplitMix64 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, SeedsProduceDistinctStreams)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 256; ++i)
        same += a.next() == b.next();
    EXPECT_LE(same, 1);
}

TEST(RngTest, NextBelowStaysInRange)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(RngTest, NextBelowOneIsAlwaysZero)
{
    Rng rng(4);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(RngTest, NextBelowCoversAllResidues)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 400; ++i)
        seen.insert(rng.nextBelow(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextBelowApproximatelyUniform)
{
    Rng rng(6);
    const int buckets = 8, n = 80000;
    int count[8] = {};
    for (int i = 0; i < n; ++i)
        ++count[rng.nextBelow(buckets)];
    for (int b = 0; b < buckets; ++b)
        EXPECT_NEAR(count[b], n / buckets, 4 * std::sqrt(n / buckets));
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(8);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.nextDouble();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, NextDoubleMeanIsHalf)
{
    Rng rng(9);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoolRespectsProbability)
{
    Rng rng(10);
    const int n = 100000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / double(n), 0.3, 0.01);
}

TEST(RngTest, NextBoolIsTopBitOfNextClear)
{
    // Bundler::majority breaks ties from next() directly and relies on
    // this identity to draw the same coins as nextBool().
    Rng coins(19), words(19);
    for (int i = 0; i < 200000; ++i)
        ASSERT_EQ(coins.nextBool(), (words.next() >> 63) == 0)
            << "draw " << i;
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(11);
    const int n = 200000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, BinomialEdgeCases)
{
    Rng rng(12);
    EXPECT_EQ(rng.nextBinomial(0, 0.5), 0u);
    EXPECT_EQ(rng.nextBinomial(100, 0.0), 0u);
    EXPECT_EQ(rng.nextBinomial(100, 1.0), 100u);
    EXPECT_EQ(rng.nextBinomial(100, -0.5), 0u);
    EXPECT_EQ(rng.nextBinomial(100, 1.5), 100u);
}

TEST(RngTest, BinomialStaysInRange)
{
    Rng rng(13);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LE(rng.nextBinomial(17, 0.4), 17u);
}

class BinomialMomentsTest
    : public ::testing::TestWithParam<std::pair<std::uint64_t, double>>
{
};

TEST_P(BinomialMomentsTest, MeanAndVarianceMatch)
{
    const auto [n, p] = GetParam();
    Rng rng(100 + n);
    const int trials = 40000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < trials; ++i) {
        const double k = static_cast<double>(rng.nextBinomial(n, p));
        sum += k;
        sq += k * k;
    }
    const double mean = sum / trials;
    const double var = sq / trials - mean * mean;
    const double expectMean = n * p;
    const double expectVar = n * p * (1 - p);
    EXPECT_NEAR(mean, expectMean,
                0.05 * expectMean + 4 * std::sqrt(expectVar / trials) +
                    0.02);
    EXPECT_NEAR(var, expectVar, 0.10 * expectVar + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BinomialMomentsTest,
    ::testing::Values(std::pair<std::uint64_t, double>{1, 0.5},
                      std::pair<std::uint64_t, double>{10, 0.1},
                      std::pair<std::uint64_t, double>{10, 0.9},
                      std::pair<std::uint64_t, double>{100, 0.02},
                      std::pair<std::uint64_t, double>{100, 0.5},
                      std::pair<std::uint64_t, double>{2500, 0.004},
                      std::pair<std::uint64_t, double>{2500, 0.3},
                      std::pair<std::uint64_t, double>{2500, 0.97}));

TEST(RngTest, ForkedStreamsAreDecorrelated)
{
    Rng parent(14);
    Rng childA = parent.fork();
    Rng childB = parent.fork();
    int same = 0;
    for (int i = 0; i < 256; ++i)
        same += childA.next() == childB.next();
    EXPECT_LE(same, 1);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator)
{
    static_assert(Rng::min() == 0);
    static_assert(Rng::max() == ~0ULL);
    Rng rng(15);
    EXPECT_NE(rng(), rng());
}

} // namespace
