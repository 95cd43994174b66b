#include "lang/pipeline.hh"

#include <cassert>
#include <stdexcept>

#include "core/bundler.hh"
#include "core/random.hh"
#include "core/trace.hh"

namespace hdham::lang
{

double
Evaluation::recall(std::size_t c) const
{
    if (c >= confusion.size())
        return 0.0;
    std::size_t samples = 0;
    for (const std::size_t n : confusion[c])
        samples += n;
    return samples == 0 ? 0.0
                        : static_cast<double>(confusion[c][c]) /
                              static_cast<double>(samples);
}

double
Evaluation::precision(std::size_t c) const
{
    if (c >= confusion.size())
        return 0.0;
    std::size_t predicted = 0;
    for (const auto &row : confusion)
        predicted += row[c];
    return predicted == 0 ? 0.0
                          : static_cast<double>(confusion[c][c]) /
                                static_cast<double>(predicted);
}

double
Evaluation::f1(std::size_t c) const
{
    const double p = precision(c);
    const double r = recall(c);
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double
Evaluation::macroF1() const
{
    if (confusion.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t c = 0; c < confusion.size(); ++c)
        sum += f1(c);
    return sum / static_cast<double>(confusion.size());
}

Evaluation
scorePredictions(const std::vector<std::size_t> &truth,
                 std::size_t numClasses,
                 const std::vector<std::size_t> &predictions)
{
    if (predictions.size() != truth.size())
        throw std::invalid_argument("scorePredictions: one prediction "
                                    "per query required");
    Evaluation eval;
    eval.confusion.assign(numClasses,
                          std::vector<std::size_t>(numClasses, 0));
    for (std::size_t q = 0; q < truth.size(); ++q) {
        const std::size_t predicted = predictions[q];
        assert(predicted < numClasses);
        ++eval.confusion[truth[q]][predicted];
        if (predicted == truth[q])
            ++eval.correct;
        ++eval.total;
    }
    return eval;
}

Evaluation
scorePredictions(const std::vector<LabeledQuery> &queries,
                 std::size_t numClasses,
                 const std::vector<std::size_t> &predictions)
{
    std::vector<std::size_t> truth;
    truth.reserve(queries.size());
    for (const LabeledQuery &query : queries)
        truth.push_back(query.trueLang);
    return scorePredictions(truth, numClasses, predictions);
}

RecognitionPipeline::RecognitionPipeline(const SyntheticCorpus &corpus,
                                         const PipelineConfig &config)
    : cfg(config),
      numLanguages(corpus.numLanguages()),
      items(TextAlphabet::size, cfg.dim, cfg.seed),
      encoder(items, cfg.ngram),
      am(cfg.dim)
{
    Rng rng(cfg.seed ^ 0x747261696e696e67ULL); // "training"

    // Training: one bundled hypervector per language.
    {
        TRACE_SPAN("lang.train");
        Bundler bundler(cfg.dim);
        am.reserve(numLanguages);
        for (std::size_t lang = 0; lang < numLanguages; ++lang) {
            bundler.clear();
            encoder.encodeInto(corpus.trainingText(lang), bundler);
            am.store(bundler.majority(rng), corpus.labelOf(lang));
        }
    }

    // Testing: encode every sentence once.
    TRACE_SPAN("lang.encode");
    encodedQueries.reserve(corpus.totalTestSentences());
    trueClasses.reserve(corpus.totalTestSentences());
    for (std::size_t lang = 0; lang < numLanguages; ++lang) {
        for (const auto &sentence : corpus.testSentences(lang)) {
            encodedQueries.push_back(encoder.encode(sentence, rng));
            trueClasses.push_back(lang);
        }
    }
}

void
RecognitionPipeline::attachMetrics(
    metrics::ClassificationMetrics *classification,
    metrics::QueryMetrics *memory)
{
    clsSink = classification;
    am.attachMetrics(memory);
}

void
RecognitionPipeline::recordEvaluation(const Evaluation &eval) const
{
    if (!clsSink)
        return;
    std::vector<std::string> labels;
    labels.reserve(numLanguages);
    for (std::size_t lang = 0; lang < numLanguages; ++lang)
        labels.push_back(am.labelOf(lang));
    clsSink->recordConfusion(eval.confusion, labels);
}

Evaluation
RecognitionPipeline::evaluate(
    const std::function<std::size_t(const Hypervector &)> &classify)
    const
{
    std::vector<std::size_t> predictions;
    predictions.reserve(encodedQueries.size());
    {
        TRACE_SPAN("lang.query");
        for (const Hypervector &query : encodedQueries)
            predictions.push_back(classify(query));
    }
    TRACE_SPAN("lang.decide");
    const Evaluation eval =
        scorePredictions(trueClasses, numLanguages, predictions);
    recordEvaluation(eval);
    return eval;
}

Evaluation
RecognitionPipeline::evaluateBatch(const BatchClassifier &classify)
    const
{
    std::vector<std::size_t> predictions;
    {
        TRACE_SPAN("lang.query");
        predictions = classify(encodedQueries);
    }
    TRACE_SPAN("lang.decide");
    const Evaluation eval =
        scorePredictions(trueClasses, numLanguages, predictions);
    recordEvaluation(eval);
    return eval;
}

Evaluation
RecognitionPipeline::evaluateExact(std::size_t threads) const
{
    std::vector<SearchResult> results;
    {
        TRACE_SPAN("lang.query");
        results = am.searchBatch(encodedQueries, threads);
    }
    TRACE_SPAN("lang.decide");
    std::vector<std::size_t> predictions;
    predictions.reserve(results.size());
    for (const SearchResult &result : results)
        predictions.push_back(result.classId);
    const Evaluation eval =
        scorePredictions(trueClasses, numLanguages, predictions);
    recordEvaluation(eval);
    return eval;
}

} // namespace hdham::lang
