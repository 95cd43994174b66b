/**
 * @file
 * Tests of the benchmark's own harness: order statistics, layer
 * self-time arithmetic, failure counting against a corrupted oracle
 * answer, the result line, and seed plumbing.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.hh"
#include "lang/corpus.hh"

namespace perfbench
{
namespace
{

TEST(QuantileTest, InterpolatesBetweenClosestRanks)
{
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(median(v), 2.5);
    // Position 0.25 * 3 = 0.75 between 1 and 2.
    EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
    // 100 samples 1..100: p99 sits at position 98.01.
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    EXPECT_NEAR(quantile(hundred, 0.99), 99.01, 1e-9);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(QuantileTest, QuietestWindowMedian)
{
    // The second window was slowed by a neighbour; the third is empty.
    EXPECT_DOUBLE_EQ(quietestMedian({{2.0, 3.0, 2.5}, {9.0, 8.0}, {}}),
                     2.5);
    EXPECT_DOUBLE_EQ(quietestMedian({{4.0}, {5.0, 1.0}}), 3.0);
    EXPECT_DOUBLE_EQ(quietestMedian({}), 0.0);
    EXPECT_DOUBLE_EQ(quietestMedian({{}, {}}), 0.0);
}

TEST(CalibrationTest, NormalizesToTheReferencePass)
{
    // At the reference speed a time is reported as measured.
    EXPECT_DOUBLE_EQ(
        hostNormalized(2.0, kCalibrationRefS, kCalibrationRefS), 2.0);
    // A host running at half speed doubles the work and the loop.
    EXPECT_DOUBLE_EQ(hostNormalized(4.0, 2 * kCalibrationRefS,
                                    2 * kCalibrationRefS),
                     2.0);
    // The speed over the piece is the mean of both ends.
    EXPECT_DOUBLE_EQ(
        hostNormalized(3.0, kCalibrationRefS, 2 * kCalibrationRefS), 2.0);
    // Both loops do real, bounded work.
    for (const CalibrationLoop loop :
         {CalibrationLoop::Bundle, CalibrationLoop::Scan}) {
        const double pass = calibrate(loop, 3);
        EXPECT_GT(pass, 0.0);
        EXPECT_LT(pass, 1.0);
    }
}

TEST(QuantileTest, GeomeanOfRatios)
{
    EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-12);
    EXPECT_NEAR(geomean({3.0, 3.0, 3.0}), 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(LayerClockTest, SelfTimeSumsDisjointBlocks)
{
    LayerClock clock;
    clock.charge("bind", 0.25);
    clock.charge("bundle", 1.0);
    clock.charge("bind", 0.5);
    EXPECT_DOUBLE_EQ(clock.self("bind"), 0.75);
    EXPECT_DOUBLE_EQ(clock.self("bundle"), 1.0);
    EXPECT_DOUBLE_EQ(clock.self("never"), 0.0);
    // The layers partition the traced time they cover.
    EXPECT_DOUBLE_EQ(clock.total(), 1.75);
}

TEST(ChecksTest, CorruptedOracleAnswerCountsOneFailure)
{
    const std::vector<std::size_t> oracle = {3, 1, 4, 1, 5};
    std::vector<std::size_t> served = oracle;

    Checks clean;
    checkAnswers(clean, oracle, served, "clean");
    EXPECT_EQ(clean.attempted(), 6u);
    EXPECT_EQ(clean.failed(), 0u);

    served[2] = 9;
    Checks corrupted;
    checkAnswers(corrupted, oracle, served, "corrupted");
    EXPECT_EQ(corrupted.attempted(), 6u);
    EXPECT_EQ(corrupted.failed(), 1u);
    EXPECT_EQ(corrupted.firstFailure(), "corrupted");

    served.pop_back();
    Checks short_;
    checkAnswers(short_, oracle, served, "short");
    // The count check and the missing answer both fail, plus the
    // corrupted one.
    EXPECT_EQ(short_.failed(), 3u);

}

TEST(ResultLineTest, HasExactlyTheResultKeys)
{
    Report report;
    report.checks.expect(true, "ok");
    report.add("latency_ms", 1.25, "ms");
    report.add("setup_s", 0.5, "s");
    EXPECT_EQ(resultLine(report),
              "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
              "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
              "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": "
              "\"s\"}}}");
    report.checks.expect(false, "bad");
    EXPECT_NE(resultLine(report).find("\"correct\": false"),
              std::string::npos);
    // Nothing checked is not a correct run either.
    EXPECT_NE(resultLine(Report{}).find("\"correct\": false"),
              std::string::npos);
}

TEST(SeedTest, SeedZeroIsTheLibraryDefaultCorpus)
{
    EXPECT_EQ(corpusFor(kDefaultSeed).seed,
              hdham::lang::CorpusConfig{}.seed);
    EXPECT_NE(corpusFor(kHeldOutSeed).seed, corpusFor(kDefaultSeed).seed);
    EXPECT_NE(corpusFor(1).seed, corpusFor(2).seed);
}

TEST(SeedTest, SameSeedSameInputsOtherSeedOtherInputs)
{
    auto small = [](std::uint64_t seed) {
        hdham::lang::CorpusConfig cfg = corpusFor(seed);
        cfg.trainChars = 2000;
        cfg.testSentences = 3;
        return hdham::lang::SyntheticCorpus(cfg);
    };
    const hdham::lang::SyntheticCorpus a = small(7);
    const hdham::lang::SyntheticCorpus b = small(7);
    const hdham::lang::SyntheticCorpus c = small(8);
    EXPECT_EQ(a.trainingText(0), b.trainingText(0));
    EXPECT_EQ(a.testSentences(5), b.testSentences(5));
    EXPECT_NE(a.trainingText(0), c.trainingText(0));
    // Every seed keeps the paper's task: 21 languages.
    EXPECT_EQ(c.numLanguages(), 21u);
}

} // namespace
} // namespace perfbench
