/**
 * @file
 * End-to-end language-recognition pipeline (Section II-A).
 *
 * Wires the synthetic corpus through the HD encoder: training bundles
 * every trigram of a language's training text into one learned
 * hypervector per language; testing encodes each sentence into a query
 * hypervector. Queries are encoded once and cached so that many HAM
 * configurations (exact, sampled, voltage-overscaled, variation-laden)
 * can be evaluated against the same workload cheaply.
 *
 * Accuracy is micro-averaged: every test sentence counts equally,
 * matching the paper's metric over its 21,000 test samples.
 */

#ifndef HDHAM_LANG_PIPELINE_HH
#define HDHAM_LANG_PIPELINE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/encoder.hh"
#include "core/hypervector.hh"
#include "core/item_memory.hh"
#include "core/metrics.hh"
#include "lang/corpus.hh"

namespace hdham::lang
{

/** Pipeline configuration. */
struct PipelineConfig
{
    /** Hypervector dimensionality D. */
    std::size_t dim = 10000;
    /** N-gram size (the paper uses trigrams). */
    std::size_t ngram = 3;
    /** Seed for the item memory and majority tie-breaking. */
    std::uint64_t seed = 0x6864632d73656564ULL; // "hdc-seed"
};

/**
 * Seeds of the tie-break draws that encode a text after training.
 * `hdham classify` and a served Classify both draw from
 * classifySeed, so they pick the same class bit for bit; a served
 * Update draws from updateSeed.
 */
inline constexpr std::uint64_t classifySeed =
    PipelineConfig{}.seed ^ 0x636c6966ULL; // "clif"
inline constexpr std::uint64_t updateSeed =
    PipelineConfig{}.seed ^ 0x75706474ULL; // "updt"

/** An encoded query with its ground-truth class id. */
struct LabeledQuery
{
    Hypervector vector;
    std::size_t trueLang;
};

/** Classification outcome over the full test set. */
struct Evaluation
{
    std::size_t correct = 0;
    std::size_t total = 0;
    /** confusion[truth][prediction]. */
    std::vector<std::vector<std::size_t>> confusion;

    /** Micro-averaged accuracy in [0, 1]. */
    double
    accuracy() const
    {
        return total == 0 ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(total);
    }

    /**
     * Per-class recall: fraction of class-@p c samples predicted
     * as @p c. Zero when the class has no samples.
     */
    double recall(std::size_t c) const;

    /**
     * Per-class precision: fraction of @p c predictions that were
     * truly @p c. Zero when the class was never predicted.
     */
    double precision(std::size_t c) const;

    /** Per-class F1 (harmonic mean of precision and recall). */
    double f1(std::size_t c) const;

    /**
     * Macro-averaged F1 over all classes -- the per-class
     * counterpart of the paper's micro-averaged accuracy.
     */
    double macroF1() const;
};

/**
 * Score predicted class ids against the true ones, query by query.
 * The shared back half of every evaluate path, so the sequential and
 * batched front ends cannot disagree on metrics.
 * @throws std::invalid_argument when the sizes differ.
 */
Evaluation scorePredictions(const std::vector<std::size_t> &truth,
                            std::size_t numClasses,
                            const std::vector<std::size_t> &predictions);

/** The same, with the true class of each query in trueLang. */
Evaluation scorePredictions(const std::vector<LabeledQuery> &queries,
                            std::size_t numClasses,
                            const std::vector<std::size_t> &predictions);

/**
 * A batched classifier: maps the whole encoded test set to predicted
 * class ids, one per query, in order. Lets hardware models serve the
 * workload through their searchBatch() path.
 */
using BatchClassifier = std::function<std::vector<std::size_t>(
    const std::vector<Hypervector> &)>;

/**
 * Trains the HD classifier on a corpus and evaluates arbitrary
 * classifiers (the software oracle or any hardware HAM model) on the
 * cached encoded test set.
 */
class RecognitionPipeline
{
  public:
    /**
     * Build item memory and encoder, train the learned language
     * hypervectors, and encode the whole test set.
     */
    RecognitionPipeline(const SyntheticCorpus &corpus,
                        const PipelineConfig &config = {});

    /** Pipeline configuration. */
    const PipelineConfig &config() const { return cfg; }

    /** The trained associative memory (one row per language). */
    const AssociativeMemory &memory() const { return am; }

    /** The seed-vector item memory. */
    const ItemMemory &itemMemory() const { return items; }

    /** The trigram encoder. */
    const Encoder &textEncoder() const { return encoder; }

    /**
     * The cached encoded test set. This is the batch a
     * BatchClassifier receives.
     */
    const std::vector<Hypervector> &queryVectors() const
    {
        return encodedQueries;
    }

    /** The true language id of each query, in queryVectors() order. */
    const std::vector<std::size_t> &queryClasses() const
    {
        return trueClasses;
    }

    /**
     * Evaluate a classifier: @p classify maps a query hypervector to a
     * predicted language id.
     */
    Evaluation
    evaluate(const std::function<std::size_t(const Hypervector &)>
                 &classify) const;

    /**
     * Evaluate a batched classifier: @p classify sees the whole
     * cached test set at once and returns one prediction per query.
     */
    Evaluation evaluateBatch(const BatchClassifier &classify) const;

    /**
     * Evaluate the exact software associative memory through its
     * batch path, scanning with @p threads workers (0 = all hardware
     * threads). The result is identical for every thread count.
     */
    Evaluation evaluateExact(std::size_t threads = 1) const;

    /**
     * Attach observability sinks (either may be nullptr; both must
     * outlive the pipeline). @p classification receives the
     * per-class confusion counts of every evaluate call, keyed by
     * language label; @p memory is forwarded to the software
     * associative memory so evaluateExact's scans are counted.
     */
    void attachMetrics(metrics::ClassificationMetrics *classification,
                       metrics::QueryMetrics *memory = nullptr);

  private:
    /** Merge @p eval's confusion into the attached sink, if any. */
    void recordEvaluation(const Evaluation &eval) const;

    PipelineConfig cfg;
    std::size_t numLanguages;
    ItemMemory items;
    Encoder encoder;
    AssociativeMemory am;
    std::vector<Hypervector> encodedQueries;
    std::vector<std::size_t> trueClasses;
    /** Optional observability sink; never owned. */
    metrics::ClassificationMetrics *clsSink = nullptr;
};

} // namespace hdham::lang

#endif // HDHAM_LANG_PIPELINE_HH
