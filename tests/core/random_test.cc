/**
 * @file
 * Unit tests for the deterministic PRNG stack.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "circuit/ml_discharge.hh"
#include "core/random.hh"
#include "ham/r_ham.hh"

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

/**
 * Rng::nextBinomial as it was before it returned 0 without std::pow:
 * inversion computes pow(q, n) for every draw with a mean of at most
 * 30. The reference the bound must agree with, draw for draw.
 */
std::uint64_t
inversionReference(Rng &rng, std::uint64_t n, double p)
{
    if (n == 0 || p <= 0.0)
        return 0;
    if (p >= 1.0)
        return n;
    if (p > 0.5)
        return n - inversionReference(rng, n, 1.0 - p);

    const double mean = static_cast<double>(n) * p;
    if (mean <= 30.0) {
        const double q = 1.0 - p;
        const double s = p / q;
        double f = std::pow(q, static_cast<double>(n));
        double u = rng.nextDouble();
        std::uint64_t k = 0;
        while (u > f && k < n) {
            u -= f;
            ++k;
            f *= s * static_cast<double>(n - k + 1) /
                 static_cast<double>(k);
        }
        return k;
    }
    const double sd = std::sqrt(mean * (1.0 - p));
    const double draw = mean + sd * rng.nextGaussian();
    if (draw <= 0.0)
        return 0;
    const auto k = static_cast<std::uint64_t>(draw + 0.5);
    return k > n ? n : k;
}

/**
 * Every conditional probability p / massLeft that RHam::senseTotal
 * hands nextBinomial for a block at true distance d, over the sensed
 * levels of @p block.
 */
void
appendSensingDraws(const hdham::circuit::MatchLineModel &block,
                   std::size_t blockBits, std::vector<double> &out)
{
    for (std::size_t d = 0; d <= blockBits; ++d) {
        const std::vector<double> dist = block.senseDistribution(d);
        double massLeft = 1.0;
        for (std::size_t k = 0; k <= blockBits; ++k) {
            const double p = dist[k];
            if (p <= 0.0)
                continue;
            if (massLeft - p > 1e-12)
                out.push_back(p / massLeft);
            massLeft -= p;
        }
    }
}

TEST(RngTest, BinomialMatchesInversionReference)
{
    // Twin streams: each case draws once from the reference and once
    // from nextBinomial, then both next raw words must agree, so a
    // draw that took a different number of doubles shows at once.
    Rng ref(21), rng(21);
    const auto expectSame = [&](std::uint64_t n, double p,
                                std::uint64_t times) {
        for (std::uint64_t t = 0; t < times; ++t) {
            const std::uint64_t want = inversionReference(ref, n, p);
            ASSERT_EQ(rng.nextBinomial(n, p), want)
                << "n=" << n << " p=" << p << " draw " << t;
            ASSERT_EQ(rng.next(), ref.next())
                << "n=" << n << " p=" << p << " draw " << t;
        }
    };

    // R-HAM's own draws: every conditional probability at the three
    // supplies, block widths 1, 2, 4 and 8, and every count of
    // blocks up to 2,600 (D = 10,000 has 2,500 4-bit blocks).
    std::vector<double> sensing;
    for (const std::size_t width : {1, 2, 4, 8}) {
        hdham::ham::RHamConfig cfg;
        cfg.blockBits = width;
        const hdham::ham::RHam ham(cfg);
        appendSensingDraws(ham.nominalBlock(), width, sensing);
        appendSensingDraws(ham.overscaledBlock(), width, sensing);
        appendSensingDraws(ham.deepOverscaledBlock(), width, sensing);
    }
    ASSERT_FALSE(sensing.empty());
    for (const double p : sensing) {
        for (std::uint64_t n = 1; n <= 2600; ++n) {
            expectSame(n, p, 1);
            if (HasFatalFailure())
                return;
        }
    }

    const std::vector<std::pair<std::uint64_t, double>> edges = {
        // q = 1 - p rounds to 1: the bound is 1 - 2^-40.
        {1, 1e-20}, {2500, 1e-20}, {1ULL << 40, 1e-20},
        // n (1 - q) crosses 1, so the bound goes non-positive.
        {9, 0.1}, {10, 0.1}, {11, 0.1}, {99, 0.01}, {100, 0.01},
        {101, 0.01}, {3, 0.3}, {4, 0.3}, {1, 0.5}, {2, 0.5},
        // Means just under, at and just over 30.
        {100, 0.2999999}, {100, 0.3000001}, {60, 0.5}, {61, 0.5},
        {3000, 0.01}, {3001, 0.01},
        // p > 0.5 draws through the symmetric branch.
        {1, 0.9}, {20, 0.9}, {100, 0.7}, {2500, 0.999},
        {2500, 0.5000001}};
    for (const auto &[n, p] : edges) {
        expectSame(n, p, 2000);
        if (HasFatalFailure())
            return;
    }

    // Small n p: there pow(q, n) sits so close to 1 - n (1 - q) that
    // a looser bound (n - 1 for n) would return 0 for some u above
    // pow(q, n): about one draw in 10^4 at n = 20, p = 1e-4.
    expectSame(20, 1e-4, 100000);
    expectSame(5, 1e-3, 20000);
}

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
