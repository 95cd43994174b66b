/**
 * @file
 * Regression suite for ragged prefixes: dimensions with D % 64 != 0
 * and scan/stage boundaries that end inside a 64-bit word. The
 * staged A-HAM sweep once assumed word-aligned stage boundaries;
 * these tests pin the masked-boundary handling everywhere a prefix
 * is not a multiple of the word size.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/packed_rows.hh"
#include "core/random.hh"
#include "ham/a_ham.hh"
#include "ham/d_ham.hh"

namespace
{

using hdham::Hypervector;
using hdham::PackedRows;
using hdham::Rng;

TEST(RaggedPrefixTest, StagePrefixDistancesMatchPrefixOracle)
{
    Rng rng(21);
    // Ragged dimensions and stage boundaries chosen to land inside
    // words (none of these ends is a multiple of 64).
    for (std::size_t dim : {130u, 1000u, 10007u}) {
        PackedRows rows(dim);
        std::vector<Hypervector> stored;
        for (std::size_t r = 0; r < 6; ++r) {
            stored.push_back(Hypervector::random(dim, rng));
            rows.append(stored.back());
        }
        const Hypervector query = Hypervector::random(dim, rng);

        for (std::size_t stages : {1u, 3u, 7u, 13u}) {
            const std::size_t width = (dim + stages - 1) / stages;
            std::vector<std::size_t> stageEnds;
            for (std::size_t s = 0; s < stages; ++s)
                stageEnds.push_back(
                    std::min((s + 1) * width, dim));

            std::vector<std::size_t> got;
            for (std::size_t r = 0; r < rows.rows(); ++r) {
                rows.stagePrefixDistances(r, query, stageEnds, got);
                ASSERT_EQ(got.size(), stages);
                // Oracle: difference of cumulative prefix counts.
                std::size_t prev = 0;
                for (std::size_t s = 0; s < stages; ++s) {
                    const std::size_t cum =
                        stored[r].hammingPrefix(query, stageEnds[s]);
                    EXPECT_EQ(got[s], cum - prev)
                        << "dim " << dim << " stages " << stages
                        << " stage " << s;
                    prev = cum;
                }
            }
        }
    }
}

TEST(RaggedPrefixTest, PackedScanRaggedPrefixMatchesOracle)
{
    Rng rng(22);
    const std::size_t dim = 10007;
    PackedRows rows(dim);
    std::vector<Hypervector> stored;
    for (std::size_t r = 0; r < 10; ++r) {
        stored.push_back(Hypervector::random(dim, rng));
        rows.append(stored.back());
    }
    for (std::size_t prefix : {1u, 63u, 65u, 7000u, 10007u}) {
        const Hypervector query = Hypervector::random(dim, rng);
        std::size_t bestIdx = 0, bestDist = dim + 1;
        for (std::size_t r = 0; r < rows.rows(); ++r) {
            const std::size_t d =
                stored[r].hammingPrefix(query, prefix);
            if (d < bestDist) {
                bestDist = d;
                bestIdx = r;
            }
        }
        std::size_t got = 0;
        EXPECT_EQ(rows.nearest(query, prefix, &got), bestIdx)
            << "prefix " << prefix;
        EXPECT_EQ(got, bestDist) << "prefix " << prefix;
    }
}

TEST(RaggedPrefixTest, DHamRaggedSampledDimMatchesOracle)
{
    // d = 7000 is not word-aligned (7000 % 64 == 24): the sampled
    // scan must mask the boundary word, not round it.
    Rng rng(23);
    hdham::ham::DHamConfig cfg;
    cfg.dim = 10000;
    cfg.sampledDim = 7000;
    hdham::ham::DHam ham(cfg);
    std::vector<Hypervector> stored;
    for (std::size_t r = 0; r < 8; ++r) {
        stored.push_back(Hypervector::random(cfg.dim, rng));
        ham.store(stored[r]);
    }
    for (int q = 0; q < 8; ++q) {
        Hypervector query = stored[static_cast<std::size_t>(q)];
        query.injectErrors(cfg.dim / 20, rng);
        std::size_t bestIdx = 0, bestDist = cfg.dim + 1;
        for (std::size_t r = 0; r < stored.size(); ++r) {
            const std::size_t d =
                stored[r].hammingPrefix(query, cfg.sampledDim);
            if (d < bestDist) {
                bestDist = d;
                bestIdx = r;
            }
        }
        const auto result = ham.search(query);
        EXPECT_EQ(result.classId, bestIdx);
        EXPECT_EQ(result.reportedDistance, bestDist);
    }
}

TEST(RaggedPrefixTest, AHamRaggedDimensionClassifies)
{
    // A ragged dimension with stage boundaries inside words: the
    // staged sweep must still attribute every bit to exactly one
    // stage, so a near-duplicate query lands on its prototype and
    // the reported distance is the true full-width distance.
    Rng rng(24);
    hdham::ham::AHamConfig cfg;
    cfg.dim = 1000; // 1000 % 64 == 40: ragged tail word
    cfg.stages = 7; // width 143: every boundary inside a word
    // Near-ideal analog path so the comparison is deterministic.
    cfg.ltaBits = 30;
    cfg.mirrorBeta = 0.0;
    cfg.current.stabilizerSlope = 0.0;
    cfg.variation = hdham::circuit::VariationParams{1e-3, 0.0};
    hdham::ham::AHam ham(cfg);
    std::vector<Hypervector> stored;
    for (std::size_t r = 0; r < 5; ++r) {
        stored.push_back(Hypervector::random(cfg.dim, rng));
        ham.store(stored[r]);
    }
    for (std::size_t r = 0; r < stored.size(); ++r) {
        const auto result = ham.search(stored[r]);
        EXPECT_EQ(result.classId, r);
        EXPECT_EQ(result.reportedDistance, 0u);
    }
}

} // namespace
