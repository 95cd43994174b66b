/**
 * @file
 * Unit tests for the synthetic 21-language corpus generator.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "core/trace.hh"
#include "lang/corpus.hh"

namespace
{

using hdham::lang::CorpusConfig;
using hdham::lang::SyntheticCorpus;

CorpusConfig
smallConfig()
{
    CorpusConfig cfg;
    cfg.trainChars = 2000;
    cfg.testSentences = 5;
    return cfg;
}

TEST(CorpusTest, GeneratesRequestedShape)
{
    const CorpusConfig cfg = smallConfig();
    SyntheticCorpus corpus(cfg);
    EXPECT_EQ(corpus.numLanguages(), 21u);
    EXPECT_EQ(corpus.totalTestSentences(), 21u * 5u);
    for (std::size_t lang = 0; lang < 21; ++lang) {
        EXPECT_EQ(corpus.trainingText(lang).size(), cfg.trainChars);
        EXPECT_EQ(corpus.testSentences(lang).size(),
                  cfg.testSentences);
    }
}

TEST(CorpusTest, SentenceLengthsRespectBounds)
{
    CorpusConfig cfg = smallConfig();
    cfg.sentenceMinChars = 40;
    cfg.sentenceMaxChars = 60;
    SyntheticCorpus corpus(cfg);
    for (std::size_t lang = 0; lang < corpus.numLanguages(); ++lang) {
        for (const auto &s : corpus.testSentences(lang)) {
            EXPECT_GE(s.size(), 40u);
            EXPECT_LE(s.size(), 60u);
        }
    }
}

TEST(CorpusTest, UsesEuroparlLabels)
{
    SyntheticCorpus corpus(smallConfig());
    EXPECT_EQ(corpus.labelOf(0), "bulgarian");
    EXPECT_EQ(corpus.labelOf(4), "english");
    EXPECT_EQ(corpus.labelOf(20), "swedish");
    std::set<std::string> labels;
    for (std::size_t lang = 0; lang < 21; ++lang)
        labels.insert(corpus.labelOf(lang));
    EXPECT_EQ(labels.size(), 21u);
}

TEST(CorpusTest, ExtraLanguagesGetSyntheticLabels)
{
    CorpusConfig cfg = smallConfig();
    cfg.numLanguages = 25;
    SyntheticCorpus corpus(cfg);
    EXPECT_EQ(corpus.labelOf(0), "bulgarian");
    EXPECT_EQ(corpus.labelOf(21), "class21");
    EXPECT_EQ(corpus.labelOf(24), "class24");
}

TEST(CorpusTest, DeterministicPerSeed)
{
    SyntheticCorpus a(smallConfig()), b(smallConfig());
    for (std::size_t lang = 0; lang < 21; ++lang) {
        EXPECT_EQ(a.trainingText(lang), b.trainingText(lang));
        EXPECT_EQ(a.testSentences(lang), b.testSentences(lang));
    }
}

TEST(CorpusTest, SeedChangesCorpus)
{
    CorpusConfig other = smallConfig();
    other.seed ^= 1;
    SyntheticCorpus a(smallConfig()), b(other);
    EXPECT_NE(a.trainingText(0), b.trainingText(0));
}

TEST(CorpusTest, FamilyMembersAreCloserThanStrangers)
{
    // Languages 0..2 share a family; 0 and 3 do not.
    SyntheticCorpus corpus(smallConfig());
    const double withinFamily =
        corpus.modelOf(0).divergence(corpus.modelOf(1));
    const double acrossFamilies =
        corpus.modelOf(0).divergence(corpus.modelOf(3));
    EXPECT_LT(withinFamily, acrossFamilies);
}

TEST(CorpusTest, LanguagesAreDistinct)
{
    SyntheticCorpus corpus(smallConfig());
    for (std::size_t i = 0; i < 21; ++i)
        for (std::size_t j = i + 1; j < 21; ++j)
            EXPECT_GT(corpus.modelOf(i).divergence(corpus.modelOf(j)),
                      0.05)
                << i << " vs " << j;
}

TEST(CorpusTest, ValidatesConfig)
{
    CorpusConfig bad = smallConfig();
    bad.numLanguages = 0;
    EXPECT_THROW(SyntheticCorpus{bad}, std::invalid_argument);

    bad = smallConfig();
    bad.familySize = 0;
    EXPECT_THROW(SyntheticCorpus{bad}, std::invalid_argument);

    bad = smallConfig();
    bad.sentenceMinChars = 100;
    bad.sentenceMaxChars = 50;
    EXPECT_THROW(SyntheticCorpus{bad}, std::invalid_argument);

    // Weights and shape parameters that would make a row no
    // distribution: a NaN family weight gives NaN rows, which sample
    // as "aaaa...".
    const double nan = std::numeric_limits<double>::quiet_NaN();
    bad = smallConfig();
    bad.familyNovelty = nan;
    EXPECT_THROW(SyntheticCorpus{bad}, std::invalid_argument);

    bad = smallConfig();
    bad.languageNovelty = 1.5;
    EXPECT_THROW(SyntheticCorpus{bad}, std::invalid_argument);

    bad = smallConfig();
    bad.spaceBias = -0.1;
    EXPECT_THROW(SyntheticCorpus{bad}, std::invalid_argument);

    bad = smallConfig();
    bad.concentration = nan;
    EXPECT_THROW(SyntheticCorpus{bad}, std::invalid_argument);
}

TEST(CorpusTest, TracesModelsAndSamplingUnderGenerate)
{
    hdham::trace::Tracer tracer;
    hdham::trace::setActive(&tracer);
    const SyntheticCorpus corpus(smallConfig());
    hdham::trace::setActive(nullptr);
    // Completion order: the two children close before their parent.
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_STREQ(events[0].second.name, "corpus.models");
    EXPECT_STREQ(events[1].second.name, "corpus.sample");
    EXPECT_STREQ(events[2].second.name, "corpus.generate");
    EXPECT_EQ(events[0].second.depth, 1u);
    EXPECT_EQ(events[1].second.depth, 1u);
    EXPECT_EQ(events[2].second.depth, 0u);
}

TEST(CorpusTest, TrainingTextUsesAlphabetOnly)
{
    SyntheticCorpus corpus(smallConfig());
    for (const char c : corpus.trainingText(2))
        EXPECT_TRUE(c == ' ' || (c >= 'a' && c <= 'z'));
}

} // namespace

namespace
{

TEST(CorpusTest, CustomLabelsOverrideDefaults)
{
    hdham::lang::CorpusConfig cfg;
    cfg.trainChars = 1000;
    cfg.testSentences = 2;
    cfg.numLanguages = 3;
    cfg.labels = {"sports", "politics"};
    hdham::lang::SyntheticCorpus corpus(cfg);
    EXPECT_EQ(corpus.labelOf(0), "sports");
    EXPECT_EQ(corpus.labelOf(1), "politics");
    EXPECT_EQ(corpus.labelOf(2), "class2");
}

} // namespace
