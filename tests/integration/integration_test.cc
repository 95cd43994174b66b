/**
 * @file
 * End-to-end integration tests: synthetic corpus -> HD encoder ->
 * each HAM design, checking the paper's qualitative claims on a
 * reduced workload (D = 4,096, 20 sentences per language), and the
 * online-learning store trained session by session on the same task.
 */

#include <gtest/gtest.h>

#include "core/bundler.hh"
#include "core/snapshot.hh"
#include "ham/a_ham.hh"
#include "ham/d_ham.hh"
#include "ham/r_ham.hh"
#include "lang/corpus.hh"
#include "lang/pipeline.hh"

namespace
{

using hdham::Hypervector;
using hdham::Rng;
using hdham::circuit::VariationParams;
using hdham::ham::AHam;
using hdham::ham::AHamConfig;
using hdham::ham::DHam;
using hdham::ham::DHamConfig;
using hdham::ham::Ham;
using hdham::ham::RHam;
using hdham::ham::RHamConfig;
using hdham::lang::CorpusConfig;
using hdham::lang::PipelineConfig;
using hdham::lang::RecognitionPipeline;
using hdham::lang::SyntheticCorpus;

class IntegrationTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t kDim = 4096;

    static const RecognitionPipeline &
    pipeline()
    {
        static const RecognitionPipeline instance = [] {
            CorpusConfig corpusCfg;
            corpusCfg.trainChars = 30000;
            corpusCfg.testSentences = 20;
            static const SyntheticCorpus corpus(corpusCfg);
            PipelineConfig cfg;
            cfg.dim = kDim;
            return RecognitionPipeline(corpus, cfg);
        }();
        return instance;
    }

    static double
    accuracyOf(Ham &ham)
    {
        ham.loadFrom(pipeline().memory());
        return pipeline()
            .evaluate([&](const Hypervector &q) {
                return ham.search(q).classId;
            })
            .accuracy();
    }
};

TEST_F(IntegrationTest, ExactClassifierIsAccurate)
{
    EXPECT_GT(pipeline().evaluateExact().accuracy(), 0.93);
}

TEST_F(IntegrationTest, DhamEqualsExactClassifier)
{
    DHamConfig cfg;
    cfg.dim = kDim;
    DHam ham(cfg);
    EXPECT_DOUBLE_EQ(accuracyOf(ham),
                     pipeline().evaluateExact().accuracy());
}

TEST_F(IntegrationTest, DhamSamplingCostsLittleAccuracy)
{
    DHamConfig cfg;
    cfg.dim = kDim;
    cfg.sampledDim = kDim * 7 / 10;
    DHam ham(cfg);
    EXPECT_GT(accuracyOf(ham),
              pipeline().evaluateExact().accuracy() - 0.03);
}

TEST_F(IntegrationTest, RhamNominalTracksExact)
{
    RHamConfig cfg;
    cfg.dim = kDim;
    RHam ham(cfg);
    EXPECT_GT(accuracyOf(ham),
              pipeline().evaluateExact().accuracy() - 0.01);
}

TEST_F(IntegrationTest, RhamSurvivesFullVoltageOverscaling)
{
    RHamConfig cfg;
    cfg.dim = kDim;
    cfg.overscaledBlocks = cfg.totalBlocks();
    RHam ham(cfg);
    EXPECT_GT(accuracyOf(ham),
              pipeline().evaluateExact().accuracy() - 0.02);
}

TEST_F(IntegrationTest, RhamSamplingDegradesGracefully)
{
    RHamConfig cfg;
    cfg.dim = kDim;
    cfg.blocksOff = cfg.totalBlocks() * 3 / 10;
    RHam ham(cfg);
    EXPECT_GT(accuracyOf(ham),
              pipeline().evaluateExact().accuracy() - 0.03);
}

TEST_F(IntegrationTest, AhamDesignPointTracksExact)
{
    AHamConfig cfg;
    cfg.dim = kDim;
    AHam ham(cfg);
    EXPECT_GT(accuracyOf(ham),
              pipeline().evaluateExact().accuracy() - 0.015);
}

TEST_F(IntegrationTest, AhamDegradesUnderVariationMonotonically)
{
    const auto accuracyAt = [&](VariationParams variation) {
        AHamConfig cfg;
        cfg.dim = kDim;
        cfg.variation = variation;
        AHam ham(cfg);
        return accuracyOf(ham);
    };
    const double nominal =
        accuracyAt(VariationParams::designPoint());
    const double stressed = accuracyAt(VariationParams{0.35, 0.0});
    const double worst = accuracyAt(VariationParams{0.35, 0.10});
    EXPECT_GE(nominal + 0.02, stressed);
    EXPECT_GT(stressed, worst);
    EXPECT_GT(worst, 0.5); // degraded but far above chance
}

TEST_F(IntegrationTest, ErrorInjectionReproducesFig1Shape)
{
    // Flat accuracy up to ~10% of D errors, collapse past ~45%.
    Rng rng(1);
    const auto accuracyWithErrors = [&](std::size_t errors) {
        return pipeline()
            .evaluate([&](const Hypervector &q) {
                Hypervector noisy = q;
                noisy.injectErrors(errors, rng);
                return pipeline().memory().search(noisy).classId;
            })
            .accuracy();
    };
    const double clean = accuracyWithErrors(0);
    EXPECT_GT(accuracyWithErrors(kDim / 10), clean - 0.02);
    EXPECT_LT(accuracyWithErrors(kDim * 45 / 100), clean - 0.20);
}

TEST_F(IntegrationTest, AllDesignsAgreeOnEasyQueries)
{
    // Queries regenerated from the learned vectors themselves must
    // be classified identically (and correctly) by all designs.
    DHamConfig dCfg;
    dCfg.dim = kDim;
    DHam dham(dCfg);
    RHamConfig rCfg;
    rCfg.dim = kDim;
    RHam rham(rCfg);
    AHamConfig aCfg;
    aCfg.dim = kDim;
    AHam aham(aCfg);
    dham.loadFrom(pipeline().memory());
    rham.loadFrom(pipeline().memory());
    aham.loadFrom(pipeline().memory());
    Rng rng(2);
    for (std::size_t lang = 0; lang < 21; ++lang) {
        Hypervector query = pipeline().memory().vectorOf(lang);
        query.injectErrors(kDim / 20, rng);
        EXPECT_EQ(dham.search(query).classId, lang);
        EXPECT_EQ(rham.search(query).classId, lang);
        EXPECT_EQ(aham.search(query).classId, lang);
    }
}

TEST(SnapshotBuilderTest, ContinualLearningImprovesAccuracy)
{
    // Train incrementally on growing slices of the language corpus:
    // accuracy after more data must not be worse. This is the
    // "retrain by reprogramming the crossbar once per session"
    // workflow.
    CorpusConfig corpusCfg;
    corpusCfg.trainChars = 24000;
    corpusCfg.testSentences = 20;
    const SyntheticCorpus corpus(corpusCfg);
    PipelineConfig pipeCfg;
    pipeCfg.dim = 2048;
    const RecognitionPipeline pipeline(corpus, pipeCfg);

    hdham::snapshot::SnapshotBuilder builder(pipeCfg.dim);
    for (std::size_t lang = 0; lang < 21; ++lang)
        builder.addClass(corpus.labelOf(lang));

    const auto accuracyOf = [&](const hdham::AssociativeMemory &am) {
        return pipeline
            .evaluate([&](const Hypervector &query) {
                return am.search(query).classId;
            })
            .accuracy();
    };

    // Session 1: the first 5% of each training text.
    Rng rng(5);
    const auto feed = [&](double from, double to) {
        for (std::size_t lang = 0; lang < 21; ++lang) {
            const std::string &text = corpus.trainingText(lang);
            const auto a = static_cast<std::size_t>(
                from * static_cast<double>(text.size()));
            const auto b = static_cast<std::size_t>(
                to * static_cast<double>(text.size()));
            hdham::Bundler chunk(pipeCfg.dim);
            pipeline.textEncoder().encodeInto(
                text.substr(a, b - a), chunk);
            // Stream the chunk's trigram majority as one sample
            // batch; finer-grained streaming also works.
            builder.addSample(lang, chunk.majority(rng));
        }
    };
    feed(0.0, 0.05);
    const double early = accuracyOf(builder.build()->memory());
    feed(0.05, 0.5);
    feed(0.5, 1.0);
    const double late = accuracyOf(builder.build()->memory());
    EXPECT_GT(early, 0.5);       // already useful after 5% of data
    EXPECT_GE(late + 0.02, early); // more data never hurts much
    EXPECT_GT(late, 0.85);
}

} // namespace
