/**
 * @file
 * Synthetic 21-language corpus (train + test), the stand-in for the
 * Wortschatz / Europarl datasets of Section IV-A.
 *
 * Languages are arranged in families: a shared pan-European base model
 * is mixed with a family-specific model and then a language-specific
 * model. The two mixing weights control how hard the recognition task
 * is; the defaults are tuned so the HD classifier's accuracy-vs-D curve
 * tracks Table III of the paper (~97-98% at D = 10,000, degrading to
 * ~70% at D = 256).
 *
 * The constructor generates everything, traced as corpus.generate
 * with two children: corpus.models builds the models (one Rng), and
 * corpus.sample draws every language's training text and then its
 * test sentences (another Rng, language by language) from one
 * LanguageModel::Sampler per language, dropped once its texts are
 * done. Only the models and the texts stay.
 */

#ifndef HDHAM_LANG_CORPUS_HH
#define HDHAM_LANG_CORPUS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/random.hh"
#include "lang/language_model.hh"

namespace hdham::lang
{

/** Configuration of the synthetic corpus generator. */
struct CorpusConfig
{
    /** Number of languages (the paper uses 21). */
    std::size_t numLanguages = 21;
    /** Languages per family (21 = 7 families of 3). */
    std::size_t familySize = 3;
    /** Mixing weight of the family-specific component. */
    double familyNovelty = 0.85;
    /** Mixing weight of the language-specific component. */
    double languageNovelty = 0.65;
    /** Extra probability mass on space (word structure). */
    double spaceBias = 0.15;
    /** Skew exponent of per-context letter distributions. */
    double concentration = 24.0;
    /** Training characters per language (paper: ~1 MB). */
    std::size_t trainChars = 120000;
    /** Test sentences per language (paper: 1,000). */
    std::size_t testSentences = 200;
    /** Sentence length bounds, in characters. */
    std::size_t sentenceMinChars = 30;
    std::size_t sentenceMaxChars = 200;
    /** Master seed; everything derives deterministically from it. */
    std::uint64_t seed = 0x48414d2d32303137ULL; // "HAM-2017"
    /**
     * Optional class labels. When empty the 21 Europarl language
     * names are used (the paper's task); supplying labels turns the
     * generator into any other synthetic text-classification task
     * (e.g. news topics, Section II-A.2).
     */
    std::vector<std::string> labels;
};

/**
 * Generates and holds the per-language training texts and test
 * sentences.
 */
class SyntheticCorpus
{
  public:
    /** Generate the full corpus eagerly from @p config. */
    explicit SyntheticCorpus(const CorpusConfig &config = {});

    /** Generator configuration. */
    const CorpusConfig &config() const { return cfg; }

    /** Number of languages. */
    std::size_t numLanguages() const { return models.size(); }

    /** Human-readable language label (the 21 Europarl names). */
    const std::string &labelOf(std::size_t lang) const;

    /** Markov source of language @p lang (for tests/analysis). */
    const LanguageModel &modelOf(std::size_t lang) const;

    /** Training text of language @p lang. */
    const std::string &trainingText(std::size_t lang) const;

    /** Test sentences of language @p lang. */
    const std::vector<std::string> &testSentences(std::size_t lang) const;

    /** Total number of test sentences across all languages. */
    std::size_t totalTestSentences() const;

  private:
    CorpusConfig cfg;
    std::vector<std::string> names;
    std::vector<LanguageModel> models;
    std::vector<std::string> trainTexts;
    std::vector<std::vector<std::string>> tests;
};

} // namespace hdham::lang

#endif // HDHAM_LANG_CORPUS_HH
