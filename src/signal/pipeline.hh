/**
 * @file
 * Gesture-recognition pipeline: EMG corpus -> spatiotemporal
 * encoder -> associative memory, mirroring lang::RecognitionPipeline
 * so any HAM design can be evaluated on a second, structurally
 * different workload.
 */

#ifndef HDHAM_SIGNAL_PIPELINE_HH
#define HDHAM_SIGNAL_PIPELINE_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/metrics.hh"
#include "lang/pipeline.hh"
#include "signal/emg.hh"
#include "signal/encoder.hh"

namespace hdham::signal
{

/**
 * Trains one gesture hypervector per class and caches the encoded
 * test set. Reuses lang::Evaluation / lang::scorePredictions so the
 * evaluation plumbing is shared between the two applications.
 */
class GesturePipeline
{
  public:
    GesturePipeline(const EmgCorpus &corpus,
                    const SpatioTemporalConfig &config = {});

    /** The trained associative memory (one row per gesture). */
    const AssociativeMemory &memory() const { return am; }

    /** The spatiotemporal encoder. */
    const SpatioTemporalEncoder &encoder() const { return enc; }

    /**
     * The cached encoded test set. This is the batch a
     * lang::BatchClassifier receives.
     */
    const std::vector<Hypervector> &queryVectors() const
    {
        return encodedQueries;
    }

    /** The true gesture id of each query, in queryVectors() order. */
    const std::vector<std::size_t> &queryClasses() const
    {
        return trueClasses;
    }

    /** Evaluate an arbitrary classifier over the cached queries. */
    lang::Evaluation
    evaluate(const std::function<std::size_t(const Hypervector &)>
                 &classify) const;

    /**
     * Evaluate a batched classifier: @p classify sees the whole
     * cached test set at once and returns one prediction per query.
     */
    lang::Evaluation
    evaluateBatch(const lang::BatchClassifier &classify) const;

    /**
     * Evaluate the exact software associative memory through its
     * batch path, scanning with @p threads workers (0 = all hardware
     * threads). The result is identical for every thread count.
     */
    lang::Evaluation evaluateExact(std::size_t threads = 1) const;

    /**
     * Attach observability sinks (either may be nullptr; both must
     * outlive the pipeline). @p classification receives the
     * per-class confusion counts of every evaluate call, keyed by
     * gesture label; @p memory is forwarded to the software
     * associative memory so evaluateExact's scans are counted.
     */
    void attachMetrics(metrics::ClassificationMetrics *classification,
                       metrics::QueryMetrics *memory = nullptr);

  private:
    /** Merge @p eval's confusion into the attached sink, if any. */
    void recordEvaluation(const lang::Evaluation &eval) const;

    std::size_t numGestures;
    SpatioTemporalEncoder enc;
    AssociativeMemory am;
    std::vector<Hypervector> encodedQueries;
    std::vector<std::size_t> trueClasses;
    /** Optional observability sink; never owned. */
    metrics::ClassificationMetrics *clsSink = nullptr;
};

} // namespace hdham::signal

#endif // HDHAM_SIGNAL_PIPELINE_HH
