#include "signal/pipeline.hh"

#include <cassert>

#include "core/bundler.hh"
#include "core/trace.hh"

namespace hdham::signal
{

GesturePipeline::GesturePipeline(const EmgCorpus &corpus,
                                 const SpatioTemporalConfig &config)
    : numGestures(corpus.numGestures()),
      enc(corpus.config().channels, config),
      am(config.dim)
{
    Rng rng(config.seed ^ 0x67657374757265ULL); // "gesture"

    {
        TRACE_SPAN("signal.train");
        Bundler bundler(config.dim);
        for (std::size_t g = 0; g < numGestures; ++g) {
            bundler.clear();
            for (const Recording &rec : corpus.trainingSet(g))
                enc.encodeInto(rec, bundler, rng);
            am.store(bundler.majority(rng), corpus.labelOf(g));
        }
    }

    TRACE_SPAN("signal.encode");
    encodedQueries.reserve(corpus.testSet().size());
    trueClasses.reserve(corpus.testSet().size());
    for (const Recording &rec : corpus.testSet()) {
        encodedQueries.push_back(enc.encode(rec, rng));
        trueClasses.push_back(rec.gesture);
    }
}

void
GesturePipeline::attachMetrics(
    metrics::ClassificationMetrics *classification,
    metrics::QueryMetrics *memory)
{
    clsSink = classification;
    am.attachMetrics(memory);
}

void
GesturePipeline::recordEvaluation(const lang::Evaluation &eval) const
{
    if (!clsSink)
        return;
    std::vector<std::string> labels;
    labels.reserve(numGestures);
    for (std::size_t g = 0; g < numGestures; ++g)
        labels.push_back(am.labelOf(g));
    clsSink->recordConfusion(eval.confusion, labels);
}

lang::Evaluation
GesturePipeline::evaluate(
    const std::function<std::size_t(const Hypervector &)> &classify)
    const
{
    std::vector<std::size_t> predictions;
    predictions.reserve(encodedQueries.size());
    {
        TRACE_SPAN("signal.query");
        for (const Hypervector &query : encodedQueries)
            predictions.push_back(classify(query));
    }
    TRACE_SPAN("signal.decide");
    const lang::Evaluation eval =
        lang::scorePredictions(trueClasses, numGestures, predictions);
    recordEvaluation(eval);
    return eval;
}

lang::Evaluation
GesturePipeline::evaluateBatch(const lang::BatchClassifier &classify)
    const
{
    std::vector<std::size_t> predictions;
    {
        TRACE_SPAN("signal.query");
        predictions = classify(encodedQueries);
    }
    TRACE_SPAN("signal.decide");
    const lang::Evaluation eval =
        lang::scorePredictions(trueClasses, numGestures, predictions);
    recordEvaluation(eval);
    return eval;
}

lang::Evaluation
GesturePipeline::evaluateExact(std::size_t threads) const
{
    std::vector<SearchResult> results;
    {
        TRACE_SPAN("signal.query");
        results = am.searchBatch(encodedQueries, threads);
    }
    TRACE_SPAN("signal.decide");
    std::vector<std::size_t> predictions;
    predictions.reserve(results.size());
    for (const SearchResult &result : results)
        predictions.push_back(result.classId);
    const lang::Evaluation eval =
        lang::scorePredictions(trueClasses, numGestures, predictions);
    recordEvaluation(eval);
    return eval;
}

} // namespace hdham::signal
