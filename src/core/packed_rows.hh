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
 * The scan is one loop, as in the hardware's full pass: the active
 * tier's exact kernel counts every row's distance in full, and a
 * keeper holds the k best rows seen so far (a single slot for
 * nearest(), a worse-first heap for topK()). A row enters only with
 * a distance strictly below the keeper's cut, so ties go to the
 * lowest index.
 *
 * No row is abandoned early: on the paper's workload a held-out
 * sentence sits a median 4,106 of 10,000 bits from its language and
 * 4,613 from the runner-up, so a losing row rarely falls behind soon
 * enough to skip much of it, and the checks cost more than they save
 * (README.md, "One exact scan"). A scan prefix below dim() is
 * D-HAM's structured sampling.
 */

#ifndef HDHAM_CORE_PACKED_ROWS_HH
#define HDHAM_CORE_PACKED_ROWS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/hypervector.hh"

namespace hdham
{

/**
 * Empty: the scan has one path. Kept because the end-to-end
 * benchmark (perfbench/src/design_sweep.cc) still passes one to
 * ham::Ham::setScanPolicy.
 */
struct ScanPolicy
{
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
     * index. Writes the winner's distance to @p bestDistance (may be
     * null). Every row's distance is counted in full through the
     * active kernel, so winner and distance are the same for every
     * kernel. Runs on the caller and allocates nothing.
     * @pre rows() > 0.
     */
    std::size_t nearest(const Hypervector &query, std::size_t prefix,
                        std::size_t *bestDistance = nullptr) const;

    /**
     * The @p k rows nearest to @p query over the first @p prefix
     * components, written to @p out sorted by ascending (distance,
     * index) -- the same tie rule as nearest(), and the same scan
     * with a k-slot keeper. Returns all rows when k >= rows().
     * @pre rows() > 0.
     */
    void topK(const Hypervector &query, std::size_t prefix,
              std::size_t k, std::vector<RowMatch> &out) const;

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
