/**
 * @file
 * Unit tests for the streaming statistics accumulator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/random.hh"
#include "core/stats.hh"

namespace
{

using hdham::Rng;
using hdham::RunningStats;

TEST(RunningStatsTest, StartsEmpty)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
}

TEST(RunningStatsTest, SingleValue)
{
    RunningStats stats;
    stats.add(3.5);
    EXPECT_EQ(stats.count(), 1u);
    EXPECT_DOUBLE_EQ(stats.mean(), 3.5);
    EXPECT_DOUBLE_EQ(stats.min(), 3.5);
    EXPECT_DOUBLE_EQ(stats.max(), 3.5);
}

TEST(RunningStatsTest, KnownSmallSample)
{
    RunningStats stats;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(x);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    // Unbiased variance of this classic sample is 32/7.
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, MatchesTwoPassComputation)
{
    Rng rng(1);
    RunningStats stats;
    std::vector<double> values;
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.nextGaussian() * 3.0 + 10.0;
        values.push_back(x);
        stats.add(x);
    }
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    const double mean = sum / values.size();
    double sq = 0.0;
    for (const double v : values)
        sq += (v - mean) * (v - mean);
    EXPECT_NEAR(stats.mean(), mean, 1e-9);
    EXPECT_NEAR(stats.variance(), sq / (values.size() - 1), 1e-6);
}

TEST(RunningStatsTest, HandlesNegativeValues)
{
    RunningStats stats;
    stats.add(-5.0);
    stats.add(5.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.min(), -5.0);
    EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(RunningStatsTest, PercentilesOverRetainedSamples)
{
    RunningStats stats(true);
    for (int i = 100; i >= 0; --i)
        stats.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(stats.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(stats.percentile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(stats.percentile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(stats.percentile(0.25), 25.0);
}

TEST(RunningStatsTest, StddevIsSqrtVariance)
{
    RunningStats stats;
    for (const double x : {1.0, 2.0, 3.0, 4.0})
        stats.add(x);
    EXPECT_NEAR(stats.stddev(), std::sqrt(stats.variance()), 1e-12);
}

TEST(RunningStatsTest, PercentileWithoutRetentionThrows)
{
    RunningStats stats; // keepSamples defaults to false
    stats.add(1.0);
    EXPECT_THROW(stats.percentile(0.5), std::logic_error);
}

TEST(RunningStatsTest, PercentileOfEmptySamplerThrows)
{
    RunningStats stats(true);
    EXPECT_THROW(stats.percentile(0.5), std::logic_error);
}

TEST(RunningStatsTest, PercentileRejectsOutOfRangeQuantile)
{
    RunningStats stats(true);
    stats.add(1.0);
    EXPECT_THROW(stats.percentile(-0.01), std::invalid_argument);
    EXPECT_THROW(stats.percentile(1.01), std::invalid_argument);
    const double nan = std::nan("");
    EXPECT_THROW(stats.percentile(nan), std::invalid_argument);
}

TEST(RunningStatsTest, PercentileOfSingleSample)
{
    RunningStats stats(true);
    stats.add(42.0);
    EXPECT_DOUBLE_EQ(stats.percentile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(stats.percentile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(stats.percentile(1.0), 42.0);
}

TEST(RunningStatsTest, PercentileOfAllEqualSamples)
{
    RunningStats stats(true);
    for (int i = 0; i < 100; ++i)
        stats.add(7.0);
    EXPECT_DOUBLE_EQ(stats.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(stats.percentile(0.95), 7.0);
    EXPECT_DOUBLE_EQ(stats.percentile(1.0), 7.0);
}

} // namespace
