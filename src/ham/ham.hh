/**
 * @file
 * Common interface of the three hyperdimensional associative memory
 * designs (Section III).
 *
 * A HAM is trained by storing one learned hypervector per class and
 * serves classification queries: find the stored hypervector with the
 * minimum Hamming distance to the query. The three implementations
 * model the paper's digital (D-HAM), resistive (R-HAM) and analog
 * (A-HAM) architectures at behavior level, including each design's
 * approximation knobs and error mechanisms.
 */

#ifndef HDHAM_HAM_HAM_HH
#define HDHAM_HAM_HAM_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/hypervector.hh"
#include "core/metrics.hh"

namespace hdham::ham
{

/** Outcome of one hardware search. */
struct HamResult
{
    /** Winning class id. */
    std::size_t classId = 0;
    /**
     * The distance metric the hardware attributed to the winner, in
     * the design's own units (bit distance for D-HAM/R-HAM; distance
     * equivalent for A-HAM). Approximate designs may misreport it.
     */
    std::size_t reportedDistance = 0;
};

/**
 * Abstract base of the HAM designs.
 *
 * Searches may be stochastic (R-HAM sensing jitter, A-HAM comparator
 * noise), so search() is non-const only in its use of the internal
 * random stream; stored contents never change during search.
 *
 * Stochastic designs draw their noise from per-query counter-derived
 * substreams (substreamSeed(seed, queryIndex), where the query index
 * counts every query served over the design's lifetime). That makes
 * the result of a query depend only on the seed and its position in
 * the query stream -- so searchBatch() is bit-identical to the
 * equivalent sequence of search() calls, for any thread count and
 * any batch split.
 */
class Ham
{
  public:
    virtual ~Ham() = default;

    /** Design name ("D-HAM", "R-HAM", "A-HAM"). */
    virtual std::string name() const = 0;

    /** Dimensionality of stored hypervectors. */
    virtual std::size_t dim() const = 0;

    /** Number of stored classes. */
    virtual std::size_t size() const = 0;

    /** Store a learned hypervector; returns its class id. */
    virtual std::size_t store(const Hypervector &hv) = 0;

    /**
     * Nearest-Hamming-distance search.
     * @pre size() > 0.
     * @throws std::invalid_argument naming the design and both
     * dimensions when query.dim() != dim(), before any row is read.
     */
    virtual HamResult search(const Hypervector &query) = 0;

    /**
     * Batched search: one result per query, in order. The base
     * implementation is the sequential loop; the behavioral designs
     * override it with a scan parallelized over queries (@p threads
     * workers, 0 = all hardware threads) that is guaranteed
     * bit-identical to that loop.
     * @pre size() > 0.
     * @throws std::invalid_argument as search() when any query's
     * dimension differs, before any query is searched.
     */
    virtual std::vector<HamResult>
    searchBatch(const std::vector<Hypervector> &queries,
                std::size_t threads = 1);

    /** Convenience: store every vector of a trained software AM. */
    void loadFrom(const AssociativeMemory &memory);

    /**
     * Attach a metrics sink (nullptr detaches; must outlive the
     * design). The behavioral designs then count queries, rows
     * scanned and their design-specific events (bits sampled, blocks
     * sensed, SA fires, overscale errors, LTA comparisons, stages,
     * saturations), and batch paths record wall time. Collection is
     * thread-safe and costs one branch when detached.
     */
    void attachMetrics(metrics::QueryMetrics *m) { sink = m; }

    /** The attached metrics sink, or nullptr. */
    metrics::QueryMetrics *metricsSink() const { return sink; }

    /** No-op: the scan has one path. Kept because the end-to-end
     *  benchmark (perfbench/src/design_sweep.cc) still calls it. */
    void setScanPolicy(const ScanPolicy &) {}

    /**
     * Reserve capacity for @p n more store() calls so bulk loading
     * (loadFrom, model deserialization) appends without per-class
     * reallocation. Default is a no-op; designs backed by a dense
     * row store override it.
     */
    virtual void reserve(std::size_t) {}

  protected:
    /** Optional observability sink; never owned. */
    metrics::QueryMetrics *sink = nullptr;
};

} // namespace hdham::ham

#endif // HDHAM_HAM_HAM_HH
