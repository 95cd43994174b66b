/**
 * @file
 * The exact nearest-row search over a dense row-major store: the
 * software form of the D-HAM array (an XOR per cell, a popcount per
 * row, a comparator tree that takes the lowest index on ties).
 *
 * PackedRows keeps every row as one contiguous record of
 * wordsPerRow() words, all rows back to back in one array -- the
 * software analogue of the hardware CAM array. It either owns that
 * array or borrows it read-only from caller-managed memory (a mapped
 * hdham.model.v1 file; see core/model_file.hh), and every scan reads
 * the two the same way.
 *
 * The scan is one loop that keeps the k best rows seen so far (a
 * single slot for nearest(), a worse-first heap for topK()). A row
 * enters only with a distance strictly below both the keeper's cut
 * and a ceiling, so the ScanPolicy can reject rows without reading
 * all of their words:
 *
 *  - Early abandonment: the row's distance runs through the bounded
 *    kernel (distance::hammingBounded), which stops as soon as the
 *    running popcount reaches the bound. PruneMode picks when; Off
 *    never does.
 *  - Sampled-prefix cascade (ScanPolicy::cascadePrefix > 0): every
 *    row is first scored on its leading cascadePrefix components,
 *    and the ceiling drops to one past the largest exact distance
 *    among the keeper-size best prefix rows. A row whose prefix
 *    distance already reaches the bound is skipped.
 *
 * The exactness argument is on nearest() and topK().
 */

#ifndef HDHAM_CORE_PACKED_ROWS_HH
#define HDHAM_CORE_PACKED_ROWS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/hypervector.hh"

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
 * depend only on the distance values, so they are identical across
 * kernels and (summed per query) across thread counts; wordsSkipped
 * depends on where the active kernel places its strip checks and is
 * exactly reproducible only for a pinned kernel.
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
 * Scan engine over a dense row-major store of equal-dimensionality
 * hypervectors.
 */
class PackedRows
{
  public:
    /** Create an empty store for dimension @p dim. */
    explicit PackedRows(std::size_t dim);

    /** Dimensionality of stored rows. */
    std::size_t dim() const { return numBits; }

    /** Number of stored rows. */
    std::size_t rows() const { return numRows; }

    /** Words per row (including tail padding). */
    std::size_t wordsPerRow() const { return rowWords; }

    /**
     * The row-major words: row r is the wordsPerRow() words at
     * data() + r * wordsPerRow(). Exposed so the model writer
     * (core/model_file.hh) can stream them straight to disk.
     */
    const std::uint64_t *data() const
    {
        return borrowed != nullptr ? borrowed : owned.data();
    }

    /**
     * True when the store borrows read-only external memory (an
     * mmap'ed model file; see bindExternal). append/reserve throw on
     * such a store.
     */
    bool external() const { return borrowed != nullptr; }

    /**
     * Replace the store's contents with @p rowCount row-major rows
     * borrowed from caller-managed memory at @p words (typically an
     * mmap'ed model file). O(1): no row word is copied, read or
     * validated, which is what gives the model loader its
     * zero-deserialization cold start. The memory must stay mapped
     * and unchanged for this object's lifetime.
     * @throws std::invalid_argument when @p words is null.
     */
    void bindExternal(const std::uint64_t *words, std::size_t rowCount);

    /**
     * Reserve capacity for @p extraRows more append() calls so bulk
     * training / model loading never reallocates.
     */
    void reserve(std::size_t extraRows);

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
     * per-stage hammingPrefix differences.
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
     * (both may be null). Runs on the caller and allocates nothing.
     *
     * Exactness: winner, distance and counters are bit-identical
     * for every policy and kernel, and the winner and distance match
     * an exhaustive scan. A row is rejected only when its distance
     * reaches the bound: either the keeper's cut, a distance a row
     * earlier in index order attains (the rejected row could at best
     * tie it and would lose the lowest-index tie), or the ceiling,
     * one past a distance some row attains (the rejected row is
     * strictly worse). The bounded kernel is bound-exact -- it
     * returns the true distance whenever that is below the bound --
     * and a prefix distance lower-bounds the full distance, so
     * neither abandonment nor the cascade rejects a row the bound
     * admits.
     * @pre rows() > 0.
     */
    std::size_t nearest(const Hypervector &query, std::size_t prefix,
                        const ScanPolicy &policy = {},
                        ScanStats *stats = nullptr,
                        std::size_t *bestDistance = nullptr) const;

    /**
     * The @p k rows nearest to @p query over the first @p prefix
     * components, written to @p out sorted by ascending (distance,
     * index) -- the same tie rule as nearest(). Returns all rows
     * when k >= rows(). The same scan as nearest() with a k-slot
     * keeper, so the same argument holds with k rows in place of
     * one: a row rejected at the cut trails k earlier rows that are
     * no farther, and one rejected at the cascade's ceiling (one
     * past the largest exact distance among k seed rows) trails
     * those k rows. @p stats as for nearest().
     * @pre rows() > 0.
     */
    void topK(const Hypervector &query, std::size_t prefix,
              std::size_t k, const ScanPolicy &policy,
              ScanStats *stats, std::vector<RowMatch> &out) const;

  private:
    /** First word of row @p r. */
    const std::uint64_t *row(std::size_t r) const
    {
        return data() + r * rowWords;
    }

    /** Throw std::logic_error when external() (read-only store). */
    void requireOwned(const char *what) const;

    std::size_t numBits;
    std::size_t rowWords;
    std::size_t numRows = 0;
    /** The rows, back to back, while the store owns its words. */
    std::vector<std::uint64_t> owned;
    /** Borrowed read-only rows (bindExternal); null when owned. */
    const std::uint64_t *borrowed = nullptr;
};

} // namespace hdham

#endif // HDHAM_CORE_PACKED_ROWS_HH
