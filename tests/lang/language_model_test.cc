/**
 * @file
 * Unit tests for the synthetic language (Markov) source.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/item_memory.hh"
#include "lang/corpus.hh"
#include "lang/language_model.hh"

namespace
{

using hdham::Rng;
using hdham::TextAlphabet;
using hdham::lang::LanguageModel;

/**
 * A sampler that shares no code with generate(): each context's
 * cumulative row is rebuilt from probability(), summed in order with
 * the last entry set to 1, and each draw picks its symbol with
 * std::lower_bound.
 */
std::string
referenceGenerate(const LanguageModel &model, std::size_t length, Rng &rng)
{
    constexpr std::size_t n = LanguageModel::alphabet;
    std::vector<double> cumulative(LanguageModel::contexts * n);
    for (std::size_t c1 = 0; c1 < n; ++c1) {
        for (std::size_t c2 = 0; c2 < n; ++c2) {
            double *row = &cumulative[(c1 * n + c2) * n];
            double running = 0.0;
            for (std::size_t s = 0; s < n; ++s) {
                running += model.probability(c1, c2, s);
                row[s] = running;
            }
            row[n - 1] = 1.0;
        }
    }
    std::string out;
    std::size_t c1 = TextAlphabet::spaceId, c2 = TextAlphabet::spaceId;
    for (std::size_t i = 0; i < length; ++i) {
        const double *row = &cumulative[(c1 * n + c2) * n];
        const double u = rng.nextDouble();
        const auto sym =
            static_cast<std::size_t>(std::lower_bound(row, row + n, u) - row);
        out.push_back(TextAlphabet::charOf(sym));
        c1 = c2;
        c2 = sym;
    }
    return out;
}

TEST(LanguageModelTest, ProbabilitiesSumToOnePerContext)
{
    Rng rng(1);
    const LanguageModel model = LanguageModel::random(rng);
    for (std::size_t c1 = 0; c1 < LanguageModel::alphabet; c1 += 5) {
        for (std::size_t c2 = 0; c2 < LanguageModel::alphabet;
             c2 += 5) {
            double sum = 0.0;
            for (std::size_t s = 0; s < LanguageModel::alphabet; ++s)
                sum += model.probability(c1, c2, s);
            EXPECT_NEAR(sum, 1.0, 1e-9);
        }
    }
}

TEST(LanguageModelTest, GeneratesOnlyAlphabetCharacters)
{
    Rng rng(2);
    const LanguageModel model = LanguageModel::random(rng);
    const std::string text = model.generate(2000, rng);
    ASSERT_EQ(text.size(), 2000u);
    for (const char c : text)
        EXPECT_TRUE(c == ' ' || (c >= 'a' && c <= 'z'));
}

/** Contexts whose probabilities, summed in order, pass 1. */
std::size_t
rowsPastOne(const LanguageModel &model)
{
    constexpr std::size_t n = LanguageModel::alphabet;
    std::size_t rows = 0;
    for (std::size_t c1 = 0; c1 < n; ++c1) {
        for (std::size_t c2 = 0; c2 < n; ++c2) {
            double running = 0.0;
            for (std::size_t s = 0; s < n; ++s)
                running += model.probability(c1, c2, s);
            rows += running > 1.0;
        }
    }
    return rows;
}

TEST(LanguageModelTest, GenerateLandsOnLowerBound)
{
    // generate() takes a draw's symbol from its guide slot when the
    // slot lies inside one symbol's interval, and scans forward from
    // the slot's symbol otherwise; it must land where
    // std::lower_bound on the cumulative row lands, draw for draw:
    // 10^6 characters each, with the Rng left in the same state. The
    // models: a random(), a mix() and every model of a small corpus,
    // then the slot rule's edges. spaceBias 0, and spaceBias 1, where
    // all mass is on space and 26 empty symbols reach slot 0. Flat
    // rows (concentration 0): a boundary every 128/27 slots, and
    // every row's running sum passes 1 before the forced last entry.
    // A concentration so high that the tiny masses of most symbols
    // crowd one slot, whose scans run long.
    Rng modelRng(21);
    const LanguageModel a = LanguageModel::random(modelRng);
    const LanguageModel b = LanguageModel::random(modelRng, 0.05, 24.0);
    std::vector<LanguageModel> models = {
        a,
        LanguageModel::mix(a, b, 0.35),
        LanguageModel::random(modelRng, 0.0, 8.0),
        LanguageModel::random(modelRng, 1.0, 8.0),
        LanguageModel::random(modelRng, 0.15, 0.0),
        LanguageModel::random(modelRng, 0.0, 0.0),
        LanguageModel::random(modelRng, 0.0, 1000.0),
    };
    EXPECT_EQ(rowsPastOne(models[5]), LanguageModel::contexts);
    hdham::lang::CorpusConfig cfg;
    cfg.numLanguages = 3;
    cfg.trainChars = 100;
    cfg.testSentences = 1;
    const hdham::lang::SyntheticCorpus corpus(cfg);
    for (std::size_t lang = 0; lang < corpus.numLanguages(); ++lang)
        models.push_back(corpus.modelOf(lang));

    constexpr std::size_t draws = 1000000;
    for (std::size_t i = 0; i < models.size(); ++i) {
        Rng viaGenerate(100 + i), viaReference(100 + i);
        const std::string got = models[i].generate(draws, viaGenerate);
        const std::string want = referenceGenerate(models[i], draws,
                                                   viaReference);
        ASSERT_EQ(got.size(), draws);
        const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
        EXPECT_EQ(diff.first, got.end())
            << "model " << i << " differs at draw "
            << (diff.first - got.begin());
        EXPECT_EQ(viaGenerate.next(), viaReference.next()) << "model " << i;
    }
}

TEST(LanguageModelTest, ReusedSamplerMatchesSeparateGenerateCalls)
{
    // The corpus draws a language's training text and then its
    // sentences from one Sampler. That must give what a fresh
    // generate() per text gives, text for text, with the Rng left in
    // the same state. The sampler is built from a temporary model, so
    // it must keep nothing of it.
    Rng modelRng(12), sameModelRng(12);
    const LanguageModel::Sampler sampler(
        LanguageModel::random(modelRng, 0.15, 24.0));
    const LanguageModel model =
        LanguageModel::random(sameModelRng, 0.15, 24.0);
    Rng viaSampler(13), viaGenerate(13), lengths(14);
    for (std::size_t text = 0; text < 500; ++text) {
        const std::size_t len = text == 0   ? 0
                                : text == 1 ? 120000
                                            : lengths.nextBelow(300);
        ASSERT_EQ(sampler.generate(len, viaSampler),
                  model.generate(len, viaGenerate))
            << "text " << text;
    }
    EXPECT_EQ(viaSampler.next(), viaGenerate.next());
}

TEST(LanguageModelTest, GenerationIsDeterministic)
{
    Rng modelRng(3);
    const LanguageModel model = LanguageModel::random(modelRng);
    Rng a(4), b(4);
    EXPECT_EQ(model.generate(500, a), model.generate(500, b));
}

TEST(LanguageModelTest, SpaceBiasControlsWordLength)
{
    Rng rng(5);
    const LanguageModel wordy = LanguageModel::random(rng, 0.30);
    const LanguageModel dense = LanguageModel::random(rng, 0.02);
    Rng gen(6);
    const std::string a = wordy.generate(5000, gen);
    const std::string b = dense.generate(5000, gen);
    const auto spaces = [](const std::string &s) {
        std::size_t n = 0;
        for (const char c : s)
            n += c == ' ';
        return n;
    };
    EXPECT_GT(spaces(a), 2 * spaces(b));
}

TEST(LanguageModelTest, MixEndpointsReproduceInputs)
{
    Rng rng(7);
    const LanguageModel a = LanguageModel::random(rng);
    const LanguageModel b = LanguageModel::random(rng);
    const LanguageModel onlyA = LanguageModel::mix(a, b, 0.0);
    const LanguageModel onlyB = LanguageModel::mix(a, b, 1.0);
    EXPECT_NEAR(a.divergence(onlyA), 0.0, 1e-12);
    EXPECT_NEAR(b.divergence(onlyB), 0.0, 1e-12);
}

TEST(LanguageModelTest, MixRejectsBadWeight)
{
    Rng rng(8);
    const LanguageModel a = LanguageModel::random(rng);
    const LanguageModel b = LanguageModel::random(rng);
    EXPECT_THROW(LanguageModel::mix(a, b, -0.1),
                 std::invalid_argument);
    EXPECT_THROW(LanguageModel::mix(a, b, 1.1),
                 std::invalid_argument);
    // A NaN weight fails every comparison and would mix NaN rows.
    EXPECT_THROW(LanguageModel::mix(
                     a, b, std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_THROW(LanguageModel::mix(
                     a, b, std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
}

TEST(LanguageModelTest, RandomRejectsParametersThatBreakARow)
{
    // A spaceBias outside [0, 1] gives negative probabilities; a NaN
    // one, or a NaN, negative or infinite concentration, gives rows
    // that are not distributions. Each throws before the first draw.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::pair<double, double> bad[] = {
        {-0.1, 8.0}, {1.5, 8.0},   {nan, 8.0},   {inf, 8.0},
        {0.15, -1.0}, {0.15, nan}, {0.15, inf}, {0.15, -inf},
    };
    for (const auto &[spaceBias, concentration] : bad) {
        Rng rng(14), untouched(14);
        EXPECT_THROW(LanguageModel::random(rng, spaceBias, concentration),
                     std::invalid_argument)
            << spaceBias << ", " << concentration;
        EXPECT_EQ(rng.next(), untouched.next())
            << spaceBias << ", " << concentration;
    }
    // The edges still make distributions.
    const std::pair<double, double> edges[] = {
        {0.0, 0.0}, {1.0, 8.0}, {0.0, 1000.0}};
    for (const auto &[spaceBias, concentration] : edges) {
        Rng rng(15);
        const LanguageModel model =
            LanguageModel::random(rng, spaceBias, concentration);
        for (std::size_t c1 = 0; c1 < LanguageModel::alphabet; ++c1) {
            for (std::size_t c2 = 0; c2 < LanguageModel::alphabet; ++c2) {
                double sum = 0.0;
                for (std::size_t s = 0; s < LanguageModel::alphabet; ++s) {
                    const double p = model.probability(c1, c2, s);
                    EXPECT_GE(p, 0.0);
                    sum += p;
                }
                EXPECT_NEAR(sum, 1.0, 1e-9)
                    << spaceBias << ", " << concentration;
            }
        }
    }
}

TEST(LanguageModelTest, DivergenceAxioms)
{
    Rng rng(9);
    const LanguageModel a = LanguageModel::random(rng);
    const LanguageModel b = LanguageModel::random(rng);
    EXPECT_NEAR(a.divergence(a), 0.0, 1e-12);
    EXPECT_NEAR(a.divergence(b), b.divergence(a), 1e-12);
    EXPECT_GT(a.divergence(b), 0.0);
    EXPECT_LE(a.divergence(b), 1.0);
}

TEST(LanguageModelTest, MixingShrinksDivergence)
{
    Rng rng(10);
    const LanguageModel a = LanguageModel::random(rng);
    const LanguageModel b = LanguageModel::random(rng);
    const LanguageModel mixed = LanguageModel::mix(a, b, 0.3);
    EXPECT_LT(a.divergence(mixed), a.divergence(b));
    // Linear mixing: divergence scales with the weight.
    EXPECT_NEAR(a.divergence(mixed), 0.3 * a.divergence(b), 1e-9);
}

TEST(LanguageModelTest, ConcentrationSkewsDistributions)
{
    Rng rng(11);
    const LanguageModel flat = LanguageModel::random(rng, 0.15, 1.0);
    const LanguageModel peaky =
        LanguageModel::random(rng, 0.15, 24.0);
    const auto maxProb = [](const LanguageModel &m) {
        double total = 0.0;
        for (std::size_t c1 = 0; c1 < 27; ++c1) {
            for (std::size_t c2 = 0; c2 < 27; ++c2) {
                double best = 0.0;
                for (std::size_t s = 0; s < 27; ++s)
                    best = std::max(best, m.probability(c1, c2, s));
                total += best;
            }
        }
        return total / (27.0 * 27.0);
    };
    EXPECT_GT(maxProb(peaky), maxProb(flat) + 0.2);
}

} // namespace
