#include "lang/corpus.hh"

#include <array>
#include <cassert>
#include <stdexcept>

#include "core/trace.hh"

namespace hdham::lang
{

namespace
{

/** The 21 Europarl languages the paper classifies. */
constexpr std::array<const char *, 21> europarlNames = {
    "bulgarian", "czech",      "danish",   "dutch",     "english",
    "estonian",  "finnish",    "french",   "german",    "greek",
    "hungarian", "italian",    "latvian",  "lithuanian", "polish",
    "portuguese", "romanian",  "slovak",   "slovene",   "spanish",
    "swedish",
};

} // namespace

SyntheticCorpus::SyntheticCorpus(const CorpusConfig &config)
    : cfg(config)
{
    TRACE_SPAN("corpus.generate");
    if (cfg.numLanguages == 0)
        throw std::invalid_argument("SyntheticCorpus: no languages");
    if (cfg.familySize == 0)
        throw std::invalid_argument("SyntheticCorpus: family size 0");
    if (cfg.sentenceMinChars > cfg.sentenceMaxChars)
        throw std::invalid_argument("SyntheticCorpus: bad sentence "
                                    "length bounds");

    Rng master(cfg.seed);
    Rng modelRng = master.fork();
    Rng textRng = master.fork();

    {
        TRACE_SPAN("corpus.models");
        const LanguageModel base = LanguageModel::random(
            modelRng, cfg.spaceBias, cfg.concentration);

        names.reserve(cfg.numLanguages);
        models.reserve(cfg.numLanguages);
        LanguageModel family = base;
        for (std::size_t lang = 0; lang < cfg.numLanguages; ++lang) {
            if (lang % cfg.familySize == 0) {
                // Start a new family: base blended with a fresh model.
                family = LanguageModel::mix(
                    base,
                    LanguageModel::random(modelRng, cfg.spaceBias,
                                          cfg.concentration),
                    cfg.familyNovelty);
            }
            models.push_back(LanguageModel::mix(
                family,
                LanguageModel::random(modelRng, cfg.spaceBias,
                                      cfg.concentration),
                cfg.languageNovelty));
            if (lang < cfg.labels.size()) {
                names.push_back(cfg.labels[lang]);
            } else if (cfg.labels.empty() &&
                       lang < europarlNames.size()) {
                names.emplace_back(europarlNames[lang]);
            } else {
                names.push_back("class" + std::to_string(lang));
            }
        }
    }

    TRACE_SPAN("corpus.sample");
    trainTexts.reserve(cfg.numLanguages);
    tests.resize(cfg.numLanguages);
    const std::size_t lenRange =
        cfg.sentenceMaxChars - cfg.sentenceMinChars + 1;
    for (std::size_t lang = 0; lang < cfg.numLanguages; ++lang) {
        // One sampler per language, dropped once its texts are drawn.
        const LanguageModel::Sampler sampler(models[lang]);
        trainTexts.push_back(sampler.generate(cfg.trainChars, textRng));
        tests[lang].reserve(cfg.testSentences);
        for (std::size_t i = 0; i < cfg.testSentences; ++i) {
            const std::size_t len =
                cfg.sentenceMinChars + textRng.nextBelow(lenRange);
            tests[lang].push_back(sampler.generate(len, textRng));
        }
    }
}

const std::string &
SyntheticCorpus::labelOf(std::size_t lang) const
{
    assert(lang < names.size());
    return names[lang];
}

const LanguageModel &
SyntheticCorpus::modelOf(std::size_t lang) const
{
    assert(lang < models.size());
    return models[lang];
}

const std::string &
SyntheticCorpus::trainingText(std::size_t lang) const
{
    assert(lang < trainTexts.size());
    return trainTexts[lang];
}

const std::vector<std::string> &
SyntheticCorpus::testSentences(std::size_t lang) const
{
    assert(lang < tests.size());
    return tests[lang];
}

std::size_t
SyntheticCorpus::totalTestSentences() const
{
    std::size_t total = 0;
    for (const auto &t : tests)
        total += t.size();
    return total;
}

} // namespace hdham::lang
