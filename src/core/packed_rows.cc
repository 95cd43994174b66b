#include "core/packed_rows.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/distance.hh"

namespace hdham
{

namespace
{

/** Words a full-width pass over @p prefix bits reads per row. */
inline std::size_t
wordsFor(std::size_t prefix)
{
    return (prefix + Hypervector::bitsPerWord - 1) /
           Hypervector::bitsPerWord;
}

/** Worse-first (distance, index) ordering: heap top = k-th best. */
inline bool
worseMatch(const RowMatch &a, const RowMatch &b)
{
    return a.distance != b.distance ? a.distance < b.distance
                                    : a.index < b.index;
}

/** nearest()'s keeper: the single best row so far, no heap. */
struct BestRow
{
    RowMatch best{0, std::numeric_limits<std::size_t>::max()};

    /** A row enters only with a distance strictly below this. */
    std::size_t cut() const { return best.distance; }
    /** @pre d < cut(). */
    void add(std::size_t index, std::size_t d) { best = {index, d}; }
};

/**
 * topK()'s keeper: a worse-first heap of the k best rows so far.
 * Rows arrive in ascending index order and replace the heap top only
 * with a strictly smaller distance -- nearest()'s tie rule.
 */
struct BestRows
{
    explicit BestRows(std::size_t k) : k(k) { heap.reserve(k); }

    std::size_t cut() const
    {
        return heap.size() < k ? std::numeric_limits<std::size_t>::max()
                               : heap.front().distance;
    }
    void add(std::size_t index, std::size_t d)
    {
        if (heap.size() == k) {
            std::pop_heap(heap.begin(), heap.end(), worseMatch);
            heap.back() = {index, d};
        } else {
            heap.push_back({index, d});
        }
        std::push_heap(heap.begin(), heap.end(), worseMatch);
    }

    std::size_t k;
    std::vector<RowMatch> heap;
};

/**
 * The scan: every row of the store, in index order, through the
 * active tier's exact kernel (read once, so one scan never mixes two
 * tiers); a row enters @p keep only with a distance strictly below
 * keep.cut(), so an equal distance keeps the earlier row.
 */
template <typename Keeper>
void
scanRows(const std::uint64_t *rows, std::size_t rowWords,
         std::size_t count, const Hypervector &query,
         std::size_t prefix, Keeper &keep)
{
    const std::uint64_t *q = query.data();
    const distance::HammingFn fn = distance::active();
    std::size_t cut = keep.cut();
    const std::uint64_t *p = rows;
    for (std::size_t row = 0; row < count; ++row, p += rowWords) {
        const std::size_t d = fn(p, q, prefix);
        if (d < cut) {
            keep.add(row, d);
            cut = keep.cut();
        }
    }
}

} // namespace

PackedRows::PackedRows(std::size_t dim)
    : numBits(dim), rowWords(wordsFor(dim))
{
    if (dim == 0)
        throw std::invalid_argument("PackedRows: zero dimension");
}

void
PackedRows::requireOwned(const char *what) const
{
    if (external()) {
        throw std::logic_error(
            std::string("PackedRows::") + what +
            ": store is bound to read-only external memory");
    }
}

void
PackedRows::bindExternal(const std::uint64_t *words,
                         std::size_t rowCount)
{
    if (words == nullptr) {
        throw std::invalid_argument(
            "PackedRows::bindExternal: null words");
    }
    owned = {};
    borrowed = words;
    numRows = rowCount;
}

void
PackedRows::reserve(std::size_t extraRows)
{
    requireOwned("reserve");
    owned.reserve(owned.size() + extraRows * rowWords);
}

std::size_t
PackedRows::append(const Hypervector &hv)
{
    requireOwned("append");
    if (hv.dim() != dim())
        throw std::invalid_argument("PackedRows::append: dimension "
                                    "mismatch");
    owned.insert(owned.end(), hv.data(), hv.data() + rowWords);
    return numRows++;
}

Hypervector
PackedRows::rowVector(std::size_t r) const
{
    assert(r < rows());
    return Hypervector::fromWords(dim(), row(r));
}

std::size_t
PackedRows::distance(std::size_t r, const Hypervector &query,
                     std::size_t prefix) const
{
    assert(r < rows());
    assert(query.dim() == dim());
    assert(prefix <= dim());
    return distance::hamming(row(r), query.data(), prefix);
}

void
PackedRows::distances(const Hypervector &query, std::size_t prefix,
                      std::vector<std::size_t> &out) const
{
    out.resize(rows());
    const distance::HammingFn fn = distance::active();
    for (std::size_t r = 0; r < rows(); ++r)
        out[r] = fn(row(r), query.data(), prefix);
}

void
PackedRows::stagePrefixDistances(
    std::size_t r, const Hypervector &query,
    const std::vector<std::size_t> &stageEnds,
    std::vector<std::size_t> &out) const
{
    assert(r < rows());
    assert(query.dim() == dim());
    assert(stageEnds.empty() || stageEnds.back() <= dim());
    out.resize(stageEnds.size());
    const std::uint64_t *a = row(r);
    const std::uint64_t *q = query.data();
    const distance::HammingFn fn = distance::active();
    // One pass: full words accumulate into cum (through the
    // dispatched kernel, one word-aligned span per stage); a stage
    // boundary inside a word adds only the masked low bits of that
    // word, and the next stage's cumulative count re-reads the whole
    // boundary word, so the difference attributes the high bits
    // correctly.
    std::size_t w = 0;
    std::size_t cum = 0;
    std::size_t prev = 0;
    for (std::size_t s = 0; s < stageEnds.size(); ++s) {
        const std::size_t end = stageEnds[s];
        assert(end >= (s == 0 ? 0 : stageEnds[s - 1]));
        const std::size_t fullWords =
            end / Hypervector::bitsPerWord;
        if (w < fullWords) {
            cum += fn(a + w, q + w,
                      (fullWords - w) * Hypervector::bitsPerWord);
            w = fullWords;
        }
        std::size_t cumAtEnd = cum;
        const std::size_t rem = end % Hypervector::bitsPerWord;
        if (rem != 0) {
            const std::uint64_t mask = (1ULL << rem) - 1;
            cumAtEnd += std::popcount(
                (a[fullWords] ^ q[fullWords]) & mask);
        }
        out[s] = cumAtEnd - prev;
        prev = cumAtEnd;
    }
}

std::size_t
PackedRows::nearest(const Hypervector &query, std::size_t prefix,
                    std::size_t *bestDistance) const
{
    if (rows() == 0)
        throw std::logic_error("PackedRows::nearest: empty store");
    assert(query.dim() == dim());
    assert(prefix <= dim());
    BestRow keep;
    scanRows(data(), rowWords, rows(), query, prefix, keep);
    if (bestDistance != nullptr)
        *bestDistance = keep.best.distance;
    return keep.best.index;
}

void
PackedRows::topK(const Hypervector &query, std::size_t prefix,
                 std::size_t k, std::vector<RowMatch> &out) const
{
    out.clear();
    if (rows() == 0)
        throw std::logic_error("PackedRows::topK: empty store");
    assert(query.dim() == dim());
    assert(prefix <= dim());
    if (k == 0)
        return;
    BestRows keep(std::min(k, rows()));
    scanRows(data(), rowWords, rows(), query, prefix, keep);
    std::sort_heap(keep.heap.begin(), keep.heap.end(), worseMatch);
    out = std::move(keep.heap);
}

} // namespace hdham
