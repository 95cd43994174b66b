/**
 * @file
 * The exact nearest-row search over a sharded, layout-aware row
 * store: the software form of the D-HAM array (an XOR per cell, a
 * popcount per row, a comparator tree that takes the lowest index on
 * ties).
 *
 * PackedRows owns one scan algorithm on top of a RowStore
 * (core/row_store.hh), which owns the physical words in one of two
 * layouts:
 *
 *  - row-major (the default): each row is one contiguous record, the
 *    software analogue of the hardware CAM array's dense layout.
 *  - sliced: the first slicePrefix components of every row are
 *    packed contiguously, so the cascade's first pass streams
 *    sequential memory instead of striding row-sized records -- the
 *    layout that keeps the cascade fast at C >= 100k rows.
 *
 * The scan is one per-shard loop that keeps the k best rows seen so
 * far (a single slot for nearest(), a worse-first heap for topK()).
 * A row enters only with a distance strictly below both the
 * keeper's cut and a ceiling, so the ScanPolicy can reject rows
 * without reading all of their words:
 *
 *  - Early abandonment: the row's distance runs through the bounded
 *    kernel (distance::hammingBounded), which stops as soon as the
 *    running popcount reaches the bound. PruneMode picks when; Off
 *    never does.
 *  - Sampled-prefix cascade (ScanPolicy::cascadePrefix > 0): the
 *    shard is first scored on its leading cascadePrefix components,
 *    and the ceiling drops to one past the largest exact distance
 *    among the keeper-size best prefix rows. A row whose prefix
 *    distance already reaches the bound is skipped.
 *
 * Every shard seeds its own bound, so what a shard computes (and
 * every ScanStats counter it adds) is independent of which thread
 * runs it; shard keepers are folded in ascending shard order. The
 * exactness argument is on nearest() and topK().
 */

#ifndef HDHAM_CORE_PACKED_ROWS_HH
#define HDHAM_CORE_PACKED_ROWS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/hypervector.hh"
#include "core/row_store.hh"

namespace hdham
{

/** When a scan may use the early-abandon distance kernels. */
enum class PruneMode
{
    /**
     * Prune only while the running bound is tight enough that the
     * expected word savings beat the bounded kernel's strip-check
     * overhead (bound <= ~0.44 x prefix). Uniform random workloads
     * -- whose best distance hovers near prefix/2 -- scan at full
     * exact-kernel speed; skewed workloads prune aggressively.
     */
    Auto,
    /** Always use the bounded kernel once a bound exists. */
    On,
    /**
     * The same scan with the bounded kernel switched off: every row
     * runs through the exact kernel, as the hardware's full pass.
     */
    Off,
};

/** Canonical lower-case name of @p mode ("auto", "on", "off"). */
const char *pruneModeName(PruneMode mode);

/**
 * Parse a prune-mode name ("auto", "on", "off") into @p out;
 * returns false (and leaves @p out alone) on anything else.
 */
bool parsePruneMode(const std::string &name, PruneMode *out);

/** How nearest()/topK() may skip row words. */
struct ScanPolicy
{
    PruneMode prune = PruneMode::Auto;
    /**
     * Cascade stage width in components; 0 disables the cascade.
     * Values >= the scan prefix also disable it (the "prefix" stage
     * would be the full scan). Need not be word-aligned.
     */
    std::size_t cascadePrefix = 0;
};

/**
 * Work avoided by one pruned scan. rowsPruned and cascadeSurvivors
 * depend only on the distance values and the shard partition, so
 * they are identical across kernels, layouts and (summed per query)
 * across thread counts; wordsSkipped depends on where the active
 * kernel places its strip checks and is exactly reproducible only
 * for a pinned kernel. Sharded scans accumulate per-shard stats and
 * merge them in ascending shard order, so merged totals are exact
 * at every thread count.
 */
struct ScanStats
{
    /** Rows rejected without computing a full distance (abandoned
     *  by the bounded kernel or filtered by the cascade prefix). */
    std::size_t rowsPruned = 0;
    /** Words of full-width distance work those rejections avoided
     *  (relative to an exhaustive pass at the scan prefix). */
    std::size_t wordsSkipped = 0;
    /** Rows that survived the cascade prefix filter and entered the
     *  refine stage (0 when the cascade is disabled). */
    std::size_t cascadeSurvivors = 0;

    ScanStats &operator+=(const ScanStats &other)
    {
        rowsPruned += other.rowsPruned;
        wordsSkipped += other.wordsSkipped;
        cascadeSurvivors += other.cascadeSurvivors;
        return *this;
    }
};

/** One ranked row of a topK() scan. */
struct RowMatch
{
    std::size_t index = 0;
    std::size_t distance = 0;
};

/**
 * Scan engine over a dense store of equal-dimensionality
 * hypervectors.
 */
class PackedRows
{
  public:
    /** Create an empty store for dimension @p dim. */
    explicit PackedRows(std::size_t dim);

    /** Dimensionality of stored rows. */
    std::size_t dim() const { return store.dim(); }

    /** Number of stored rows. */
    std::size_t rows() const { return store.rows(); }

    /** Words per row (including tail padding). */
    std::size_t wordsPerRow() const { return store.wordsPerRow(); }

    /** The resolved physical layout of the backing store. */
    const StoreLayout &layoutSpec() const
    {
        return store.layoutSpec();
    }

    /** Number of row shards (>= 1; 1 until setLayout shards). */
    std::size_t shardCount() const { return store.shardCount(); }

    /**
     * Scan view of shard @p shard -- the raw word pointers and
     * strides the scan loops use. Exposed so the model writer
     * (core/model_file.hh) can stream the physical words straight to
     * disk without materializing rows. @pre shard < shardCount().
     */
    ShardView shardView(std::size_t shard) const
    {
        return store.view(shard);
    }

    /**
     * True when the backing store borrows read-only external memory
     * (an mmap'ed model file; see bindExternal). append/reserve/
     * setLayout throw on such a store.
     */
    bool external() const { return store.external(); }

    /**
     * Point the backing store at caller-managed memory laid out per
     * @p spec (see RowStore::bindExternal). O(shards): no row word
     * is copied or read. The memory must outlive this object.
     */
    void bindExternal(const StoreLayout &spec, std::size_t rowCount,
                      const std::vector<ExternalShard> &ext)
    {
        store.bindExternal(spec, rowCount, ext);
    }

    /**
     * Reserve capacity for @p extraRows more append() calls so bulk
     * training / model loading never reallocates (and never breaks
     * the sharded first-touch placement with growth copies).
     */
    void reserve(std::size_t extraRows);

    /**
     * Re-lay the backing store (layout, shard count, slice prefix;
     * see RowStore::reshape). Word-exact: every scan result is
     * bit-identical before and after. @throws std::invalid_argument
     * for a sliced layout without a slice prefix.
     */
    void setLayout(const StoreLayout &spec);

    /**
     * Append a row; returns its index.
     * @pre hv.dim() == dim().
     */
    std::size_t append(const Hypervector &hv);

    /** Reconstruct row @p row as a Hypervector. */
    Hypervector rowVector(std::size_t row) const;

    /**
     * Hamming distance of row @p row to @p query over the first
     * @p prefix components (dim() by default; pass a smaller value
     * for structured sampling).
     */
    std::size_t distance(std::size_t row, const Hypervector &query,
                         std::size_t prefix) const;

    /**
     * Distances of every row to @p query over the first @p prefix
     * components, written into @p out (resized to rows()).
     */
    void distances(const Hypervector &query, std::size_t prefix,
                   std::vector<std::size_t> &out) const;

    /**
     * Per-stage partial distances of row @p row to @p query in one
     * pass over the row: out[s] is the distance restricted to
     * components [stageEnds[s-1], stageEnds[s]) (from 0 for s = 0).
     * Stage boundaries need not be word-aligned; boundary words are
     * split exactly with bit masks, so ragged stage widths (and
     * ragged dimensions) produce the same counts as summing
     * per-stage hammingPrefix differences. (On a sliced store the
     * row is first materialized into a scratch record; the staged
     * engines keep their stores row-major.)
     * @pre stageEnds is non-decreasing and stageEnds.back() <= dim().
     */
    void stagePrefixDistances(std::size_t row,
                              const Hypervector &query,
                              const std::vector<std::size_t> &stageEnds,
                              std::vector<std::size_t> &out) const;

    /**
     * Index of the row with the minimum distance to @p query over
     * the first @p prefix components; ties resolve to the lowest
     * index. Scans under @p policy, adds the work it avoided to
     * @p stats and writes the winner's distance to @p bestDistance
     * (both may be null). @p threads > 1 (0 = all hardware threads)
     * fans the shards out over workers under
     * "packed_rows.shard_scan" spans; otherwise they run in order on
     * the caller, which allocates nothing.
     *
     * Exactness: winner, distance and counters are bit-identical
     * for every policy, kernel, layout, shard count and thread
     * count, and the winner and distance match an exhaustive scan.
     * A row is rejected only when its distance reaches the bound:
     * either the keeper's cut, a distance a row earlier in index
     * order attains (the rejected row could at best tie it and would
     * lose the lowest-index tie), or the ceiling, one past a
     * distance some row attains (the rejected row is strictly
     * worse). The bounded kernel is bound-exact -- it returns the
     * true distance whenever that is below the bound -- and a
     * prefix distance lower-bounds the full distance, so neither
     * abandonment nor the cascade rejects a row the bound admits.
     * Shards cover ascending row ranges and fold in that order,
     * entering only with a strictly smaller distance, which keeps
     * the tie rule across shard seams.
     * @pre rows() > 0.
     */
    std::size_t nearest(const Hypervector &query, std::size_t prefix,
                        const ScanPolicy &policy = {},
                        ScanStats *stats = nullptr,
                        std::size_t *bestDistance = nullptr,
                        std::size_t threads = 1) const;

    /**
     * The @p k rows nearest to @p query over the first @p prefix
     * components, written to @p out sorted by ascending (distance,
     * index) -- the same tie rule as nearest(). Returns all rows
     * when k >= rows(). The same scan as nearest() with a k-slot
     * keeper, so the same argument holds with k rows in place of
     * one: a row rejected at the cut trails k earlier rows that are
     * no farther, and one rejected at the cascade's ceiling (one
     * past the largest exact distance among k seed rows) trails
     * those k rows. @p stats and @p threads as for nearest().
     * @pre rows() > 0.
     */
    void topK(const Hypervector &query, std::size_t prefix,
              std::size_t k, const ScanPolicy &policy,
              ScanStats *stats, std::vector<RowMatch> &out,
              std::size_t threads = 1) const;

  private:
    /** Sharded, layout-aware owner of the packed words. */
    RowStore store;
};

} // namespace hdham

#endif // HDHAM_CORE_PACKED_ROWS_HH
