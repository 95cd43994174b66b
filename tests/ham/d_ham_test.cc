/**
 * @file
 * Unit tests for the digital HAM.
 */

#include <gtest/gtest.h>

#include "core/assoc_memory.hh"
#include "core/random.hh"
#include "ham/d_ham.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::Rng;
using hdham::ham::DHam;
using hdham::ham::DHamConfig;

TEST(DHamTest, ValidatesConfig)
{
    DHamConfig bad;
    bad.dim = 0;
    EXPECT_THROW(DHam{bad}, std::invalid_argument);

    bad.dim = 100;
    bad.sampledDim = 200;
    EXPECT_THROW(DHam{bad}, std::invalid_argument);
}

TEST(DHamTest, StoreRejectsWrongDimension)
{
    DHamConfig cfg;
    cfg.dim = 128;
    DHam ham(cfg);
    Rng rng(1);
    EXPECT_THROW(ham.store(Hypervector::random(64, rng)),
                 std::invalid_argument);
}

TEST(DHamTest, SearchRejectsWrongDimension)
{
    DHamConfig cfg;
    cfg.dim = 10000;
    DHam ham(cfg);
    Rng rng(2);
    ham.store(Hypervector::random(10000, rng));
    const Hypervector query = Hypervector::random(64, rng);
    try {
        ham.search(query);
        FAIL() << "search took a 64-bit query";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "DHam::search: query dimension 64 does "
                               "not match the stored dimension 10000");
    }
    EXPECT_THROW(ham.searchBatch({Hypervector::random(10000, rng), query}),
                 std::invalid_argument);
}

TEST(DHamTest, SearchWithoutContentsThrows)
{
    DHamConfig cfg;
    cfg.dim = 128;
    DHam ham(cfg);
    Rng rng(2);
    EXPECT_THROW(ham.search(Hypervector::random(128, rng)),
                 std::logic_error);
}

TEST(DHamTest, NameAndSizes)
{
    DHamConfig cfg;
    cfg.dim = 256;
    DHam ham(cfg);
    Rng rng(3);
    ham.store(Hypervector::random(256, rng));
    EXPECT_EQ(ham.name(), "D-HAM");
    EXPECT_EQ(ham.dim(), 256u);
    EXPECT_EQ(ham.size(), 1u);
}

class DHamExactnessTest
    : public ::testing::TestWithParam<std::pair<std::size_t,
                                                std::size_t>>
{
};

TEST_P(DHamExactnessTest, MatchesSoftwareOracleExactly)
{
    const auto [dim, classes] = GetParam();
    Rng rng(dim + classes);
    AssociativeMemory oracle(dim);
    DHamConfig cfg;
    cfg.dim = dim;
    DHam ham(cfg);
    for (std::size_t c = 0; c < classes; ++c)
        oracle.store(Hypervector::random(dim, rng));
    ham.loadFrom(oracle);
    ASSERT_EQ(ham.size(), classes);

    for (int q = 0; q < 50; ++q) {
        const Hypervector query = Hypervector::random(dim, rng);
        const auto expect = oracle.search(query);
        const auto got = ham.search(query);
        EXPECT_EQ(got.classId, expect.classId);
        EXPECT_EQ(got.reportedDistance, expect.bestDistance);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DHamExactnessTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{64, 2},
                      std::pair<std::size_t, std::size_t>{100, 6},
                      std::pair<std::size_t, std::size_t>{512, 21},
                      std::pair<std::size_t, std::size_t>{1000, 33},
                      std::pair<std::size_t, std::size_t>{10000,
                                                          100}));

TEST(DHamTest, SampledSearchMatchesOraclePrefix)
{
    const std::size_t dim = 1000;
    Rng rng(4);
    AssociativeMemory oracle(dim);
    DHamConfig cfg;
    cfg.dim = dim;
    cfg.sampledDim = 700;
    DHam ham(cfg);
    for (int c = 0; c < 10; ++c)
        oracle.store(Hypervector::random(dim, rng));
    ham.loadFrom(oracle);
    for (int q = 0; q < 50; ++q) {
        const Hypervector query = Hypervector::random(dim, rng);
        EXPECT_EQ(ham.search(query).classId,
                  oracle.searchSampled(query, 700).classId);
    }
}

TEST(DHamTest, SamplingKeepsNearestNeighborWhenMarginsAreWide)
{
    // Stored rows ~D/2 apart; queries 50 bits from one row. Even at
    // d = 7,000 of 10,000 the margin dwarfs the sampling noise.
    const std::size_t dim = 10000;
    Rng rng(5);
    std::vector<Hypervector> rows;
    DHamConfig cfg;
    cfg.dim = dim;
    cfg.sampledDim = 7000;
    DHam ham(cfg);
    for (int c = 0; c < 21; ++c) {
        rows.push_back(Hypervector::random(dim, rng));
        ham.store(rows.back());
    }
    for (int q = 0; q < 100; ++q) {
        const std::size_t target = rng.nextBelow(21);
        Hypervector query = rows[target];
        query.injectErrors(50, rng);
        EXPECT_EQ(ham.search(query).classId, target);
    }
}

TEST(DHamTest, ReportedDistanceScalesWithSampling)
{
    const std::size_t dim = 10000;
    Rng rng(6);
    const Hypervector row = Hypervector::random(dim, rng);
    DHamConfig full, half;
    full.dim = dim;
    half.dim = dim;
    half.sampledDim = 5000;
    DHam fullHam(full), halfHam(half);
    fullHam.store(row);
    halfHam.store(row);
    const Hypervector query = Hypervector::random(dim, rng);
    const double fullDist = static_cast<double>(
        fullHam.search(query).reportedDistance);
    const double halfDist = static_cast<double>(
        halfHam.search(query).reportedDistance);
    EXPECT_NEAR(2.0 * halfDist, fullDist, 0.1 * fullDist);
}

TEST(DHamTest, DefaultSampledDimIsFullDim)
{
    DHamConfig cfg;
    cfg.dim = 4096;
    EXPECT_EQ(cfg.effectiveDim(), 4096u);
    cfg.sampledDim = 1024;
    EXPECT_EQ(cfg.effectiveDim(), 1024u);
}

} // namespace
