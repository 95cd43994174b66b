/**
 * @file
 * Unit tests for the recognition pipeline (scaled down for speed).
 */

#include <gtest/gtest.h>

#include "lang/corpus.hh"
#include "lang/pipeline.hh"

namespace
{

using hdham::Hypervector;
using hdham::lang::CorpusConfig;
using hdham::lang::PipelineConfig;
using hdham::lang::RecognitionPipeline;
using hdham::lang::SyntheticCorpus;

class PipelineTest : public ::testing::Test
{
  protected:
    static const SyntheticCorpus &
    corpus()
    {
        static const SyntheticCorpus instance = [] {
            CorpusConfig cfg;
            cfg.trainChars = 20000;
            cfg.testSentences = 20;
            return SyntheticCorpus(cfg);
        }();
        return instance;
    }

    static const RecognitionPipeline &
    pipeline()
    {
        static const RecognitionPipeline instance = [] {
            PipelineConfig cfg;
            cfg.dim = 2048;
            return RecognitionPipeline(corpus(), cfg);
        }();
        return instance;
    }
};

TEST_F(PipelineTest, TrainsOneHypervectorPerLanguage)
{
    EXPECT_EQ(pipeline().memory().size(), 21u);
    EXPECT_EQ(pipeline().memory().dim(), 2048u);
    EXPECT_EQ(pipeline().memory().labelOf(4), "english");
}

TEST_F(PipelineTest, LearnedVectorsAreRoughlyBalanced)
{
    for (std::size_t lang = 0; lang < 21; ++lang) {
        const auto pop = pipeline().memory().vectorOf(lang).popcount();
        EXPECT_NEAR(pop, 1024.0, 200.0) << "language " << lang;
    }
}

TEST_F(PipelineTest, CachesAllQueries)
{
    EXPECT_EQ(pipeline().queryVectors().size(), 21u * 20u);
    for (const Hypervector &q : pipeline().queryVectors())
        EXPECT_EQ(q.dim(), 2048u);
    // The held-out set comes language by language, 20 sentences
    // each, and queryClasses() says which.
    ASSERT_EQ(pipeline().queryClasses().size(), 21u * 20u);
    for (std::size_t q = 0; q < 21u * 20u; ++q)
        EXPECT_EQ(pipeline().queryClasses()[q], q / 20) << q;
}

TEST_F(PipelineTest, ExactAccuracyIsWellAboveChance)
{
    const auto eval = pipeline().evaluateExact();
    EXPECT_EQ(eval.total, 21u * 20u);
    // Chance is ~4.8%; the classifier should be way above even at
    // this reduced dimensionality.
    EXPECT_GT(eval.accuracy(), 0.85);
}

TEST_F(PipelineTest, ConfusionMatrixIsConsistent)
{
    const auto eval = pipeline().evaluateExact();
    ASSERT_EQ(eval.confusion.size(), 21u);
    std::size_t total = 0, diagonal = 0;
    for (std::size_t t = 0; t < 21; ++t) {
        std::size_t rowSum = 0;
        for (std::size_t p = 0; p < 21; ++p)
            rowSum += eval.confusion[t][p];
        EXPECT_EQ(rowSum, 20u) << "row " << t;
        total += rowSum;
        diagonal += eval.confusion[t][t];
    }
    EXPECT_EQ(total, eval.total);
    EXPECT_EQ(diagonal, eval.correct);
}

TEST_F(PipelineTest, EvaluateHonorsCustomClassifier)
{
    // A classifier that always answers 3 scores exactly the number
    // of language-3 sentences.
    const auto eval = pipeline().evaluate(
        [](const Hypervector &) { return std::size_t{3}; });
    EXPECT_EQ(eval.correct, 20u);
    EXPECT_EQ(eval.total, 21u * 20u);
}

TEST_F(PipelineTest, DeterministicAcrossConstructions)
{
    PipelineConfig cfg;
    cfg.dim = 1024;
    RecognitionPipeline a(corpus(), cfg), b(corpus(), cfg);
    EXPECT_EQ(a.memory().vectorOf(0), b.memory().vectorOf(0));
    EXPECT_EQ(a.queryVectors().front(), b.queryVectors().front());
    EXPECT_EQ(a.evaluateExact().correct, b.evaluateExact().correct);
}

TEST_F(PipelineTest, HigherDimensionDoesNotHurtAccuracy)
{
    PipelineConfig low, high;
    low.dim = 256;
    high.dim = 4096;
    RecognitionPipeline lowPipe(corpus(), low);
    RecognitionPipeline highPipe(corpus(), high);
    EXPECT_GE(highPipe.evaluateExact().accuracy() + 0.02,
              lowPipe.evaluateExact().accuracy());
}

TEST_F(PipelineTest, MetricsAreConsistentWithTheConfusionMatrix)
{
    const auto eval = pipeline().evaluateExact();
    // Balanced test set: macro-F1 tracks micro accuracy closely.
    EXPECT_NEAR(eval.macroF1(), eval.accuracy(), 0.05);
    double recallSum = 0.0;
    for (std::size_t c = 0; c < 21; ++c) {
        const double r = eval.recall(c);
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, 1.0);
        recallSum += r;
    }
    // Mean per-class recall == micro accuracy when classes are
    // equally sized.
    EXPECT_NEAR(recallSum / 21.0, eval.accuracy(), 1e-9);
}

TEST_F(PipelineTest, MinPairwiseMarginScalesWithDim)
{
    PipelineConfig low, high;
    low.dim = 1024;
    high.dim = 4096;
    RecognitionPipeline lowPipe(corpus(), low);
    RecognitionPipeline highPipe(corpus(), high);
    EXPECT_GT(highPipe.memory().minPairwiseDistance(),
              2 * lowPipe.memory().minPairwiseDistance());
}

} // namespace
