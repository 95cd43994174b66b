/**
 * @file
 * Tests for the ranked (top-k) search and its metrics counts,
 * decision margins, the evaluation metrics (precision/recall/F1)
 * and the D-HAM cycle model.
 */

#include <gtest/gtest.h>

#include "core/assoc_memory.hh"
#include "core/metrics.hh"
#include "core/random.hh"
#include "ham/digital_blocks.hh"
#include "lang/pipeline.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::PruneMode;
using hdham::Rng;
using hdham::ScanPolicy;
using hdham::metrics::QueryMetrics;
using hdham::ham::DhamCycleModel;
using hdham::lang::Evaluation;

TEST(TopKTest, RanksByDistance)
{
    AssociativeMemory am(8);
    am.store(Hypervector::fromString("11111111")); // d=8 from zero
    am.store(Hypervector::fromString("00000011")); // d=2
    am.store(Hypervector::fromString("00000000")); // d=0
    am.store(Hypervector::fromString("00001111")); // d=4
    const auto ranked = am.searchTopK(Hypervector(8), 3);
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].classId, 2u);
    EXPECT_EQ(ranked[0].distance, 0u);
    EXPECT_EQ(ranked[1].classId, 1u);
    EXPECT_EQ(ranked[2].classId, 3u);
}

TEST(TopKTest, TiesBreakTowardLowerId)
{
    AssociativeMemory am(8);
    am.store(Hypervector::fromString("00000001"));
    am.store(Hypervector::fromString("00000010"));
    const auto ranked = am.searchTopK(Hypervector(8), 2);
    EXPECT_EQ(ranked[0].classId, 0u);
    EXPECT_EQ(ranked[1].classId, 1u);
}

TEST(TopKTest, KLargerThanSizeReturnsAll)
{
    AssociativeMemory am(16);
    Rng rng(1);
    am.store(Hypervector::random(16, rng));
    am.store(Hypervector::random(16, rng));
    EXPECT_EQ(am.searchTopK(Hypervector(16), 10).size(), 2u);
}

TEST(TopKTest, TopOneMatchesSearch)
{
    AssociativeMemory am(512);
    Rng rng(2);
    for (int c = 0; c < 12; ++c)
        am.store(Hypervector::random(512, rng));
    for (int q = 0; q < 30; ++q) {
        const Hypervector query = Hypervector::random(512, rng);
        const auto ranked = am.searchTopK(query, 1);
        const auto hit = am.search(query);
        EXPECT_EQ(ranked[0].classId, hit.classId);
        EXPECT_EQ(ranked[0].distance, hit.bestDistance);
    }
}

TEST(TopKTest, CountsInTheMetricsSinkLikeSearch)
{
    // A top-k search is a scan like search(): the attached sink must
    // count it, and at k = 1 exactly as search() counts the query.
    AssociativeMemory am(1024);
    Rng rng(3);
    for (int c = 0; c < 12; ++c)
        am.store(Hypervector::random(1024, rng));
    am.setScanPolicy(ScanPolicy{PruneMode::On, 128});
    Hypervector query = am.vectorOf(5);
    query.injectErrors(50, rng);

    QueryMetrics viaSearch;
    am.attachMetrics(&viaSearch);
    am.search(query);
    QueryMetrics viaTopK;
    am.attachMetrics(&viaTopK);
    am.searchTopK(query, 1);
    am.attachMetrics(nullptr);

    EXPECT_EQ(viaTopK.queries.value(), 1u);
    EXPECT_EQ(viaTopK.rowsScanned.value(), 12u);
    EXPECT_GT(viaTopK.rowsPruned.value(), 0u);
    EXPECT_GT(viaTopK.cascadeSurvivors.value(), 0u);
    EXPECT_EQ(viaTopK.rowsPruned.value(), viaSearch.rowsPruned.value());
    EXPECT_EQ(viaTopK.wordsSkipped.value(),
              viaSearch.wordsSkipped.value());
    EXPECT_EQ(viaTopK.cascadeSurvivors.value(),
              viaSearch.cascadeSurvivors.value());
}

TEST(MarginTest, ComputesRunnerUpGap)
{
    AssociativeMemory am(8);
    am.store(Hypervector::fromString("00000000"));
    am.store(Hypervector::fromString("00011111"));
    am.store(Hypervector::fromString("11111111"));
    const auto result =
        am.searchDetailed(Hypervector::fromString("00000001"));
    EXPECT_EQ(result.classId, 0u);
    EXPECT_EQ(result.bestDistance, 1u);
    EXPECT_EQ(result.margin(), 3u); // runner-up at distance 4
}

TEST(MarginTest, SingleClassHasZeroMargin)
{
    AssociativeMemory am(8);
    am.store(Hypervector::fromString("00000000"));
    EXPECT_EQ(am.searchDetailed(Hypervector(8)).margin(), 0u);
}

TEST(MetricsTest, PerfectClassifier)
{
    Evaluation eval;
    eval.confusion = {{10, 0}, {0, 20}};
    eval.correct = 30;
    eval.total = 30;
    EXPECT_DOUBLE_EQ(eval.recall(0), 1.0);
    EXPECT_DOUBLE_EQ(eval.precision(1), 1.0);
    EXPECT_DOUBLE_EQ(eval.f1(0), 1.0);
    EXPECT_DOUBLE_EQ(eval.macroF1(), 1.0);
}

TEST(MetricsTest, KnownConfusionMatrix)
{
    // truth 0: 8 right, 2 as class 1; truth 1: 5 right, 5 as 0.
    Evaluation eval;
    eval.confusion = {{8, 2}, {5, 5}};
    EXPECT_DOUBLE_EQ(eval.recall(0), 0.8);
    EXPECT_DOUBLE_EQ(eval.recall(1), 0.5);
    EXPECT_NEAR(eval.precision(0), 8.0 / 13.0, 1e-12);
    EXPECT_NEAR(eval.precision(1), 5.0 / 7.0, 1e-12);
    const double f0 = 2 * 0.8 * (8.0 / 13.0) / (0.8 + 8.0 / 13.0);
    EXPECT_NEAR(eval.f1(0), f0, 1e-12);
    EXPECT_NEAR(eval.macroF1(), (eval.f1(0) + eval.f1(1)) / 2.0,
                1e-12);
}

TEST(MetricsTest, DegenerateCases)
{
    Evaluation empty;
    EXPECT_DOUBLE_EQ(empty.macroF1(), 0.0);
    EXPECT_DOUBLE_EQ(empty.recall(3), 0.0);

    // Class never predicted: precision 0, f1 0.
    Evaluation eval;
    eval.confusion = {{0, 5}, {0, 5}};
    EXPECT_DOUBLE_EQ(eval.precision(0), 0.0);
    EXPECT_DOUBLE_EQ(eval.f1(0), 0.0);
    EXPECT_DOUBLE_EQ(eval.recall(1), 1.0);
}

TEST(CycleModelTest, CountsCountersAndTree)
{
    const auto cycles = DhamCycleModel::searchCycles(10000, 100, 64);
    EXPECT_EQ(cycles.counter, 157u); // ceil(10000/64)
    EXPECT_EQ(cycles.tree, 7u);      // ceil(log2 100)
    EXPECT_EQ(cycles.total(), 164u);
}

TEST(CycleModelTest, SamplingShortensTheCount)
{
    EXPECT_LT(DhamCycleModel::searchCycles(7000, 21).total(),
              DhamCycleModel::searchCycles(10000, 21).total());
}

TEST(CycleModelTest, SerialCounterIsTheSlowMode)
{
    // The paper's "iterates through D output bits": one bit per
    // cycle makes the counter dominate by orders of magnitude.
    const auto serial = DhamCycleModel::searchCycles(10000, 21, 1);
    EXPECT_EQ(serial.counter, 10000u);
    EXPECT_GT(serial.counter, 1000u * serial.tree);
}

TEST(CycleModelTest, ValidatesArguments)
{
    EXPECT_THROW(DhamCycleModel::searchCycles(0, 10),
                 std::invalid_argument);
    EXPECT_THROW(DhamCycleModel::searchCycles(10, 0),
                 std::invalid_argument);
    EXPECT_THROW(DhamCycleModel::searchCycles(10, 10, 0),
                 std::invalid_argument);
}

} // namespace
