/**
 * @file
 * Software associative memory: the exact nearest-Hamming-distance
 * oracle every hardware HAM design is measured against.
 *
 * Stores one learned hypervector per class in a dense PackedRows
 * array -- the software analogue of the hardware CAM array -- so a
 * query (or a whole batch of queries) is a straight scan over
 * contiguous words. A query returns the class with the minimum
 * Hamming distance (ties resolved to the lowest class id, matching a
 * deterministic comparator tree).
 *
 * The fast paths (search, searchSampled, searchBatch) never allocate
 * per query: they report only the winner and its distance. The full
 * per-class distance vector is opt-in via searchDetailed, which is
 * what margin analysis needs and the only path that pays for the
 * vector.
 */

#ifndef HDHAM_CORE_ASSOC_MEMORY_HH
#define HDHAM_CORE_ASSOC_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/hypervector.hh"
#include "core/metrics.hh"
#include "core/packed_rows.hh"

namespace hdham
{

/** Outcome of an associative search. */
struct SearchResult
{
    /** Winning class id. */
    std::size_t classId = 0;
    /** Hamming distance of the winner. */
    std::size_t bestDistance = 0;
    /**
     * Distance of every stored class to the query. Filled only by
     * searchDetailed; the fast paths leave it empty so serving a
     * query costs no heap allocation.
     */
    std::vector<std::size_t> distances;

    /**
     * Decision margin: distance gap between the runner-up and the
     * winner. Requires the full distance vector (searchDetailed);
     * zero when distances are absent or fewer than two classes are
     * stored. This is the quantity approximate hardware must resolve
     * (e.g. A-HAM's minimum detectable distance).
     */
    std::size_t margin() const;
};

/** One ranked candidate of a top-k search. */
struct RankedMatch
{
    std::size_t classId = 0;
    std::size_t distance = 0;
};

/**
 * Exact software associative memory over learned hypervectors.
 */
class AssociativeMemory
{
  public:
    /** Create an empty memory for dimension @p dim. */
    explicit AssociativeMemory(std::size_t dim);

    /** Dimensionality. */
    std::size_t dim() const { return rows.dim(); }

    /** Number of stored classes. */
    std::size_t size() const { return rows.rows(); }

    /**
     * Reserve capacity for @p n more store() calls so bulk training
     * and model loading append without reallocating per class.
     */
    void reserve(std::size_t n);

    /**
     * Store a learned hypervector; returns its class id (insertion
     * order). @pre hv.dim() == dim().
     */
    std::size_t store(const Hypervector &hv, std::string label = "");

    /**
     * Learned hypervector of class @p id, rematerialized from the
     * dense row store. @pre id < size().
     */
    Hypervector vectorOf(std::size_t id) const;

    /** Label of class @p id (may be empty). @pre id < size(). */
    const std::string &labelOf(std::size_t id) const;

    /** The dense row store backing the scans. */
    const PackedRows &storage() const { return rows; }

    /**
     * True when the class store borrows read-only mapped memory
     * (bindExternal): every search works unchanged, but store()
     * throws std::logic_error -- copy the classes into a fresh
     * memory to mutate them.
     */
    bool mapped() const { return rows.external(); }

    /**
     * Bind the class store to caller-managed memory (an mmap'ed
     * hdham.model.v1 file; see core/model_file.hh) holding
     * @p rowCount row-major rows at @p words, with one label per
     * class. O(labels): no row word is copied, which is what makes
     * loading a model zero-copy. The mapping must outlive this
     * object. @pre newLabels.size() == rowCount.
     */
    void bindExternal(const std::uint64_t *words, std::size_t rowCount,
                      std::vector<std::string> newLabels);

    /**
     * Attach a metrics sink (nullptr detaches). The sink must
     * outlive the memory; all search paths then count queries and
     * rows scanned, and searchBatch records its wall time. Collection
     * is thread-safe (per-worker tallies merged once per chunk) and
     * costs one branch when detached.
     */
    void attachMetrics(metrics::QueryMetrics *m) { sink = m; }

    /** The attached metrics sink, or nullptr. */
    metrics::QueryMetrics *metricsSink() const { return sink; }

    /**
     * Exact nearest-distance search (winner + distance only; no
     * allocation). @pre size() > 0.
     * @throws std::invalid_argument naming the search and both
     * dimensions when query.dim() != dim(), before any row is read;
     * so do searchSampled, searchDetailed and searchTopK.
     */
    SearchResult search(const Hypervector &query) const;

    /**
     * Search using only the first @p prefix components (structured
     * sampling; the hypervector components are i.i.d. so any fixed
     * subset is an unbiased scaled estimate of the full distance).
     * @throws std::invalid_argument naming the search, @p prefix and
     * dim() when prefix > dim(), before any row is read.
     */
    SearchResult searchSampled(const Hypervector &query,
                               std::size_t prefix) const;

    /**
     * Exact search that additionally fills SearchResult::distances
     * with every class's distance (enables margin()).
     * @pre size() > 0.
     */
    SearchResult searchDetailed(const Hypervector &query) const;

    /**
     * Batched exact search: one result per query, parallelized over
     * the batch with @p threads workers (0 = all hardware threads).
     * Bit-identical to calling search() per query in order, for
     * every thread count and batch split.
     * @pre size() > 0.
     * @throws std::invalid_argument as search() when any query's
     * dimension differs, before any query is searched.
     */
    std::vector<SearchResult>
    searchBatch(const std::vector<Hypervector> &queries,
                std::size_t threads = 1) const;

    /**
     * The @p k nearest classes, sorted by ascending distance (ties
     * by ascending class id). Returns fewer when fewer are stored.
     * Counted in the attached sink like one search() query.
     * @pre size() > 0.
     */
    std::vector<RankedMatch> searchTopK(const Hypervector &query,
                                        std::size_t k) const;

    /**
     * Minimum pairwise Hamming distance among the stored hypervectors.
     * The paper reports 22 for its 21 learned language hypervectors;
     * this is the safety margin approximate searches must respect.
     * @pre size() >= 2.
     */
    std::size_t minPairwiseDistance() const;

  private:
    /** Add @p queries full scans to the attached sink (no-op when
     *  detached). */
    void recordScans(std::size_t queries) const;

    /** Dense row-major class store (the CAM array analogue). */
    PackedRows rows;
    std::vector<std::string> labels;
    /** Optional observability sink; never owned. */
    metrics::QueryMetrics *sink = nullptr;
};

} // namespace hdham

#endif // HDHAM_CORE_ASSOC_MEMORY_HH
