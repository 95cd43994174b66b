/**
 * @file
 * Unit tests for the resistive HAM.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/metrics.hh"
#include "core/random.hh"
#include "ham/r_ham.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::Rng;
using hdham::ham::RHam;
using hdham::ham::RHamConfig;

TEST(RHamTest, ValidatesConfig)
{
    RHamConfig bad;
    bad.dim = 0;
    EXPECT_THROW(RHam{bad}, std::invalid_argument);

    bad = RHamConfig{};
    bad.blockBits = 3; // does not divide 64
    EXPECT_THROW(RHam{bad}, std::invalid_argument);

    bad = RHamConfig{};
    bad.dim = 100;
    bad.blocksOff = 26; // only 25 blocks exist
    EXPECT_THROW(RHam{bad}, std::invalid_argument);

    bad = RHamConfig{};
    bad.dim = 100;
    bad.blocksOff = 10;
    bad.overscaledBlocks = 16; // only 15 active remain
    EXPECT_THROW(RHam{bad}, std::invalid_argument);
}

TEST(RHamTest, SearchRejectsWrongDimension)
{
    RHamConfig cfg;
    cfg.dim = 10000;
    cfg.overscaledBlocks = cfg.totalBlocks();
    RHam ham(cfg);
    Rng rng(3);
    const Hypervector row = Hypervector::random(10000, rng);
    ham.store(row);
    const Hypervector query = Hypervector::random(64, rng);
    try {
        ham.search(query);
        FAIL() << "search took a 64-bit query";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "RHam::search: query dimension 64 does "
                               "not match the stored dimension 10000");
    }
    // A rejected batch searches none of its queries, so it takes no
    // query's noise substream: the next search is a fresh design's
    // first.
    const Hypervector good = Hypervector::random(10000, rng);
    EXPECT_THROW(ham.searchBatch({good, query}), std::invalid_argument);
    RHam fresh(cfg);
    fresh.store(row);
    EXPECT_EQ(ham.search(good).reportedDistance,
              fresh.search(good).reportedDistance);
}

TEST(RHamTest, BlockBookkeeping)
{
    RHamConfig cfg;
    cfg.dim = 10000;
    cfg.blockBits = 4;
    EXPECT_EQ(cfg.totalBlocks(), 2500u);
    cfg.blocksOff = 250;
    EXPECT_EQ(cfg.activeBlocks(), 2250u);
}

TEST(RHamTest, WorstCaseErrorAccounting)
{
    RHamConfig cfg;
    cfg.dim = 10000;
    cfg.blocksOff = 250;
    cfg.overscaledBlocks = 1000;
    RHam ham(cfg);
    // 250 * 4 bits sampled away + 1,000 overscaled blocks at <= 1
    // bit each: the paper's error budget arithmetic.
    EXPECT_EQ(ham.worstCaseDistanceError(), 2000u);
}

TEST(RHamTest, NominalSearchMatchesOracleOnSeparatedRows)
{
    // Queries near a stored row (margin ~D/2 - noise): nominal
    // R-HAM sensing must agree with the oracle. Random queries are
    // deliberately avoided: they can land in exact distance ties,
    // which hardware may legitimately break differently.
    const std::size_t dim = 4096;
    Rng rng(1);
    AssociativeMemory oracle(dim);
    RHamConfig cfg;
    cfg.dim = dim;
    RHam ham(cfg);
    for (int c = 0; c < 21; ++c)
        oracle.store(Hypervector::random(dim, rng));
    ham.loadFrom(oracle);
    for (int q = 0; q < 100; ++q) {
        Hypervector query =
            oracle.vectorOf(rng.nextBelow(21));
        query.injectErrors(600, rng);
        EXPECT_EQ(ham.search(query).classId,
                  oracle.search(query).classId);
    }
}

TEST(RHamTest, NominalSensedDistanceIsNearlyExact)
{
    const std::size_t dim = 10000;
    Rng rng(2);
    RHamConfig cfg;
    cfg.dim = dim;
    RHam ham(cfg);
    const Hypervector row = Hypervector::random(dim, rng);
    ham.store(row);
    for (int q = 0; q < 20; ++q) {
        Hypervector query = row;
        query.injectErrors(500, rng);
        const auto result = ham.search(query);
        // Nominal sensing error is ~5e-4 per block: a few bits over
        // 2,500 blocks.
        EXPECT_NEAR(static_cast<double>(result.reportedDistance),
                    500.0, 25.0);
    }
}

TEST(RHamTest, OverscaledSensedDistanceStaysNearTruth)
{
    const std::size_t dim = 10000;
    Rng rng(3);
    RHamConfig cfg;
    cfg.dim = dim;
    cfg.overscaledBlocks = 2500;
    RHam ham(cfg);
    const Hypervector row = Hypervector::random(dim, rng);
    ham.store(row);
    double worstErr = 0.0;
    for (int q = 0; q < 20; ++q) {
        Hypervector query = row;
        query.injectErrors(2000, rng);
        const auto result = ham.search(query);
        const double err = std::abs(
            static_cast<double>(result.reportedDistance) - 2000.0);
        worstErr = std::max(worstErr, err);
        // Distributed +-1-per-block errors largely cancel; the
        // residual must stay far below the worst-case budget.
        EXPECT_LT(err, cfg.totalBlocks() * 0.2);
    }
    // But overscaling is not error-free either.
    EXPECT_GT(worstErr, 0.0);
}

TEST(RHamTest, OverscalingAddsNoise)
{
    const std::size_t dim = 10000;
    Rng rng(4);
    const Hypervector row = Hypervector::random(dim, rng);
    Hypervector query = row;
    query.injectErrors(1000, rng);

    const auto spread = [&](std::size_t overscaled) {
        RHamConfig cfg;
        cfg.dim = dim;
        cfg.overscaledBlocks = overscaled;
        RHam ham(cfg);
        ham.store(row);
        double sq = 0.0;
        const int n = 40;
        for (int i = 0; i < n; ++i) {
            const double d = static_cast<double>(
                ham.search(query).reportedDistance);
            sq += (d - 1000.0) * (d - 1000.0);
        }
        return std::sqrt(sq / n);
    };
    EXPECT_GT(spread(2500), 2.0 * spread(0));
}

TEST(RHamTest, SamplingScalesReportedDistance)
{
    const std::size_t dim = 10000;
    Rng rng(5);
    const Hypervector row = Hypervector::random(dim, rng);
    const Hypervector query = Hypervector::random(dim, rng);
    RHamConfig full, sampled;
    full.dim = dim;
    sampled.dim = dim;
    sampled.blocksOff = 1250; // half the blocks
    RHam fullHam(full), sampledHam(sampled);
    fullHam.store(row);
    sampledHam.store(row);
    const double fullDist = static_cast<double>(
        fullHam.search(query).reportedDistance);
    const double halfDist = static_cast<double>(
        sampledHam.search(query).reportedDistance);
    EXPECT_NEAR(2.0 * halfDist, fullDist, 0.1 * fullDist);
}

TEST(RHamTest, SampledSearchIgnoresTailBlocks)
{
    // Rows that differ from the query only in the powered-off tail
    // must be sensed at distance zero.
    RHamConfig cfg;
    cfg.dim = 64;
    cfg.blockBits = 4;
    cfg.blocksOff = 8; // keep blocks 0..7 = bits 0..31
    RHam ham(cfg);
    Hypervector row(64);
    for (std::size_t i = 32; i < 64; ++i)
        row.set(i, true);
    ham.store(row);
    const Hypervector query(64);
    const auto result = ham.search(query);
    EXPECT_EQ(result.reportedDistance, 0u);
}

class RHamBlockWidthTest
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RHamBlockWidthTest, ExactForKnownBlockPattern)
{
    // Construct a row/query pair with one mismatch in every block
    // and check the sensed distance equals the block count at
    // nominal voltage.
    const std::size_t width = GetParam();
    RHamConfig cfg;
    cfg.dim = 64;
    cfg.blockBits = width;
    RHam ham(cfg);
    Hypervector row(64);
    ham.store(row);
    Hypervector query(64);
    const std::size_t blocks = 64 / width;
    for (std::size_t b = 0; b < blocks; ++b)
        query.set(b * width, true);
    const auto result = ham.search(query);
    EXPECT_EQ(result.reportedDistance, blocks);
}

INSTANTIATE_TEST_SUITE_P(Widths, RHamBlockWidthTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(RHamTest, ClassificationSurvivesFullOverscaling)
{
    // The headline robustness claim: with every block overscaled the
    // nearest neighbor of well-separated rows still wins.
    const std::size_t dim = 10000;
    Rng rng(6);
    RHamConfig cfg;
    cfg.dim = dim;
    cfg.overscaledBlocks = 2500;
    RHam ham(cfg);
    std::vector<Hypervector> rows;
    for (int c = 0; c < 21; ++c) {
        rows.push_back(Hypervector::random(dim, rng));
        ham.store(rows.back());
    }
    int correct = 0;
    const int trials = 100;
    for (int q = 0; q < trials; ++q) {
        const std::size_t target = rng.nextBelow(21);
        Hypervector query = rows[target];
        query.injectErrors(1500, rng);
        correct += ham.search(query).classId == target;
    }
    EXPECT_EQ(correct, trials);
}

/** Block-distance histogram counted bit by bit, block by block. */
RHam::Histogram
perBlockHistogram(const Hypervector &row, const Hypervector &query,
                  std::size_t width, std::size_t first,
                  std::size_t last)
{
    RHam::Histogram hist{};
    for (std::size_t b = first; b < last; ++b) {
        std::size_t d = 0;
        const std::size_t end = std::min((b + 1) * width, row.dim());
        for (std::size_t i = b * width; i < end; ++i)
            d += row.get(i) != query.get(i);
        ++hist[d];
    }
    return hist;
}

TEST(RHamTest, BlockHistogramMatchesPerBlockCount)
{
    // Ragged dims, every width (half the cases at the paper's 4-bit
    // blocks, the word-rate path), identical / complemented /
    // sparse / random rows, and ranges that are empty, one block,
    // the partial last block, the whole row or random. Each range is
    // counted as two adjacent sub-ranges into one histogram, as
    // searchIndexed counts its supply regions.
    const std::size_t widths[] = {1, 2, 4, 8, 16, 32, 64};
    Rng rng(7);
    for (int trial = 0; trial < 10000; ++trial) {
        const std::size_t width =
            trial % 2 == 0 ? 4 : widths[rng.nextBelow(7)];
        const std::size_t dim = 1 + rng.nextBelow(3000);
        const std::size_t blocks = (dim + width - 1) / width;
        const Hypervector query = Hypervector::random(dim, rng);
        Hypervector row = query;
        switch (rng.nextBelow(4)) {
          case 0:
            break;
          case 1:
            for (std::size_t i = 0; i < dim; ++i)
                row.flip(i);
            break;
          case 2:
            row.injectErrors(
                rng.nextBelow(std::min<std::size_t>(dim, 8) + 1), rng);
            break;
          default:
            row = Hypervector::random(dim, rng);
        }
        const std::size_t a = rng.nextBelow(blocks + 1);
        const std::size_t b = rng.nextBelow(blocks + 1);
        const std::size_t one = std::min(a, blocks - 1);
        const std::pair<std::size_t, std::size_t> ranges[] = {
            {a, a},
            {one, one + 1},
            {blocks - 1, blocks},
            {0, blocks},
            {std::min(a, b), std::max(a, b)},
        };
        for (const auto &[first, last] : ranges) {
            const std::size_t mid =
                first + rng.nextBelow(last - first + 1);
            RHam::Histogram hist{};
            RHam::blockHistogram(row, query, width, first, mid, hist);
            RHam::blockHistogram(row, query, width, mid, last, hist);
            ASSERT_EQ(hist,
                      perBlockHistogram(row, query, width, first, last))
                << "width " << width << " dim " << dim << " blocks ["
                << first << ", " << mid << ", " << last << ")";
        }
    }
}

/** One FNV-1a step over a 64-bit value. */
std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * 0x100000001b3ULL;
}

TEST(RHamTest, GoldenAnswersArePinned)
{
    // Exact answers and counters over widths x dims x knobs, recorded
    // from the per-block histogram loop. The block histogram feeds
    // the noise stream, so any change to it moves a digest or a
    // counter here even when the statistical suites above still
    // pass. Most region edges fall off 16-block word boundaries.
    struct Pin
    {
        std::size_t width;
        std::size_t configs;
        std::uint64_t digest;
        std::uint64_t blocksSensed;
        std::uint64_t saFires;
        std::uint64_t overscaleErrors;
    };
    const Pin pins[] = {
        {1, 25, 0xa67f95ced0f081f1ULL, 20048040, 9359754, 0},
        {2, 25, 0xaf8b2dfb4e47bd71ULL, 10024290, 9355815, 466},
        {4, 25, 0x3d9b16f912194fd6ULL, 5012010, 9375365, 51892},
        {8, 25, 0x9f744a388b058927ULL, 2506140, 9404397, 122655},
        {16, 25, 0xe8d6f2ed3d2494cdULL, 1254690, 9400716, 180708},
        {32, 25, 0xf51e618262b4688eULL, 629370, 9385801, 177198},
        {64, 24, 0x24a0f969ebd5c90eULL, 316440, 9381492, 120714},
    };
    constexpr std::size_t kRows = 9;
    constexpr std::size_t kQueries = 30;
    for (const Pin &pin : pins) {
        SCOPED_TRACE(::testing::Message() << "width " << pin.width);
        hdham::metrics::QueryMetrics sink;
        std::uint64_t digest = 0xcbf29ce484222325ULL;
        std::size_t configs = 0;
        for (const std::size_t dim : {64, 200, 1000, 4099, 10000}) {
            for (int knob = 0; knob < 5; ++knob) {
                RHamConfig cfg;
                cfg.dim = dim;
                cfg.blockBits = pin.width;
                // Knobs: nominal; overscaled; overscaled + deep;
                // blocks off + overscaled; every block overscaled.
                const std::size_t t = cfg.totalBlocks();
                if (knob >= 1 && knob <= 3)
                    cfg.overscaledBlocks = 3 * t / 7 + 1;
                if (knob == 2)
                    cfg.deepOverscaledBlocks = t / 5;
                if (knob == 3)
                    cfg.blocksOff = t / 6 + 1;
                if (knob == 4)
                    cfg.overscaledBlocks = t;
                if (cfg.overscaledBlocks + cfg.deepOverscaledBlocks >
                    cfg.activeBlocks())
                    continue;
                ++configs;

                Rng rng(dim * 64 + pin.width * 8 + knob);
                RHam ham(cfg);
                ham.attachMetrics(&sink);
                std::vector<Hypervector> rows;
                for (std::size_t r = 0; r < kRows; ++r) {
                    rows.push_back(Hypervector::random(dim, rng));
                    ham.store(rows.back());
                }
                std::vector<Hypervector> queries;
                for (std::size_t q = 0; q < kQueries; ++q) {
                    queries.push_back(rows[q % kRows]);
                    queries.back().injectErrors(dim * (q % 5) / 10,
                                                rng);
                }
                for (const auto &result : ham.searchBatch(queries)) {
                    digest = fnvMix(digest, result.classId);
                    digest = fnvMix(digest, result.reportedDistance);
                }
            }
        }
        EXPECT_EQ(configs, pin.configs);
        EXPECT_EQ(digest, pin.digest) << std::hex << digest;
        EXPECT_EQ(sink.blocksSensed.value(), pin.blocksSensed);
        EXPECT_EQ(sink.saFires.value(), pin.saFires);
        EXPECT_EQ(sink.overscaleErrors.value(), pin.overscaleErrors);
    }
}

} // namespace
