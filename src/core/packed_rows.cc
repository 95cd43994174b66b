#include "core/packed_rows.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "core/distance.hh"
#include "core/trace.hh"

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

/**
 * Auto-mode pruning threshold. A row that loses to bound B abandons,
 * in expectation, once its running count reaches B -- about
 * B / (prefix / 2) of the way through a random far row -- so the
 * fraction of the row skipped shrinks as B approaches prefix / 2.
 * Below 7/16 x prefix the expected savings comfortably exceed the
 * bounded kernel's strip-check overhead; above it (uniform random
 * workloads, whose best hovers near prefix / 2) the exact kernel is
 * the faster choice and pruning would only add overhead.
 */
inline std::size_t
autoCutoff(std::size_t prefix)
{
    return prefix * 7 / 16;
}

/**
 * Bounds strictly below this run the bounded kernel; larger bounds
 * run the exact kernel. PruneMode::On admits every attainable bound
 * (all are <= prefix + 1), PruneMode::Off none.
 */
inline std::size_t
pruneLimit(const ScanPolicy &policy, std::size_t prefix)
{
    switch (policy.prune) {
    case PruneMode::On:
        return prefix + 2;
    case PruneMode::Off:
        return 0;
    case PruneMode::Auto:
        break;
    }
    return autoCutoff(prefix) + 1;
}

/**
 * Distances of rows [0, @p count) over the first @p prefix
 * components, written to out[0 .. count): one sequential walk of the
 * row-major array.
 */
inline void
rowDistances(const std::uint64_t *rows, std::size_t rowWords,
             std::size_t count, const std::uint64_t *q,
             std::size_t prefix, distance::HammingFn fn,
             std::size_t *out)
{
    for (std::size_t r = 0; r < count; ++r)
        out[r] = fn(rows + r * rowWords, q, prefix);
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

    std::size_t capacity() const { return 1; }
    /** A row enters only with a distance strictly below this. */
    std::size_t cut() const { return best.distance; }
    /** @pre d < cut(). */
    void add(std::size_t index, std::size_t d) { best = {index, d}; }
    BestRow fresh() const { return {}; }
    template <typename Visit>
    void visit(Visit visitRow) const
    {
        visitRow(best);
    }
};

/**
 * topK()'s keeper: a worse-first heap of the k best rows so far.
 * Rows arrive in ascending index order and replace the heap top only
 * with a strictly smaller distance -- nearest()'s tie rule.
 */
struct BestRows
{
    explicit BestRows(std::size_t k) : k(k) { heap.reserve(k); }

    std::size_t capacity() const { return k; }
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
    BestRows fresh() const { return BestRows(k); }
    template <typename Visit>
    void visit(Visit visitRow) const
    {
        for (const RowMatch &m : heap)
            visitRow(m);
    }

    std::size_t k;
    std::vector<RowMatch> heap;
};

/**
 * The scan: every row of the store, in index order, offered to
 * @p keep. A row must come in strictly below min(ceiling,
 * keep.cut()); the ceiling is prefix + 1 or, with the cascade, one
 * past the largest exact distance among the keeper-size best prefix
 * rows. The kernel entry is read once, so one scan never mixes two
 * tiers. See PackedRows::nearest for the exactness argument.
 */
template <typename Keeper>
void
scanRows(const std::uint64_t *rows, std::size_t rowWords,
         std::size_t count, const Hypervector &query,
         std::size_t prefix, const ScanPolicy &policy,
         ScanStats *stats, Keeper &keep)
{
    const std::uint64_t *q = query.data();
    const distance::KernelEntry &kernel = distance::activeEntry();
    const distance::HammingFn fn = kernel.fn;
    const distance::BoundedHammingFn bfn = kernel.bounded;
    const std::size_t rowSpan = wordsFor(prefix);
    const std::size_t pruneBelow = pruneLimit(policy, prefix);
    std::size_t ceiling = prefix + 1;
    // prefixDist is null without the cascade. Inlined at both calls
    // so the cascade-free scan compiles without the prefix checks.
    const auto scanAll = [&](const std::size_t *prefixDist)
                             __attribute__((always_inline)) {
        std::size_t bound = std::min(ceiling, keep.cut());
        const std::uint64_t *p = rows;
        for (std::size_t row = 0; row < count;
             ++row, p += rowWords) {
            if (prefixDist != nullptr) {
                if (prefixDist[row] >= bound) {
                    if (stats != nullptr) {
                        ++stats->rowsPruned;
                        stats->wordsSkipped +=
                            rowSpan - wordsFor(policy.cascadePrefix);
                    }
                    continue;
                }
                if (stats != nullptr)
                    ++stats->cascadeSurvivors;
            }
            std::size_t d;
            if (bound < pruneBelow) {
                std::size_t wordsRead = 0;
                d = bfn(p, q, prefix, bound, &wordsRead);
                if (d == distance::kAbandoned) {
                    if (stats != nullptr) {
                        ++stats->rowsPruned;
                        stats->wordsSkipped += rowSpan - wordsRead;
                    }
                    continue;
                }
            } else {
                d = fn(p, q, prefix);
                if (d >= bound)
                    continue;
            }
            keep.add(row, d);
            bound = std::min(ceiling, keep.cut());
        }
    };
    if (policy.prune == PruneMode::Off || policy.cascadePrefix == 0 ||
        policy.cascadePrefix >= prefix || keep.capacity() >= count) {
        scanAll(nullptr);
        return;
    }

    // Reused across calls on this thread; declared inside the cascade
    // path so the other scans never pay its init guard.
    thread_local std::vector<std::size_t> cascadeDist;
    {
        TRACE_SPAN("packed_rows.cascade");
        cascadeDist.resize(count);
        rowDistances(rows, rowWords, count, q, policy.cascadePrefix,
                     fn, cascadeDist.data());
        Keeper seeds = keep.fresh();
        for (std::size_t row = 0; row < count; ++row)
            if (cascadeDist[row] < seeds.cut())
                seeds.add(row, cascadeDist[row]);
        std::size_t maxSeed = 0;
        seeds.visit([&](const RowMatch &m) {
            maxSeed = std::max(
                maxSeed, fn(rows + m.index * rowWords, q, prefix));
        });
        ceiling = maxSeed + 1;
    }
    TRACE_SPAN("packed_rows.refine");
    scanAll(cascadeDist.data());
}

} // namespace

const char *
pruneModeName(PruneMode mode)
{
    switch (mode) {
    case PruneMode::Auto:
        return "auto";
    case PruneMode::On:
        return "on";
    case PruneMode::Off:
        return "off";
    }
    return "unknown";
}

bool
parsePruneMode(const std::string &name, PruneMode *out)
{
    for (const PruneMode mode :
         {PruneMode::Auto, PruneMode::On, PruneMode::Off}) {
        if (name == pruneModeName(mode)) {
            *out = mode;
            return true;
        }
    }
    return false;
}

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
    rowDistances(data(), rowWords, rows(), query.data(), prefix,
                 distance::active(), out.data());
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
                    const ScanPolicy &policy, ScanStats *stats,
                    std::size_t *bestDistance) const
{
    if (rows() == 0)
        throw std::logic_error("PackedRows::nearest: empty store");
    assert(query.dim() == dim());
    assert(prefix <= dim());
    BestRow keep;
    scanRows(data(), rowWords, rows(), query, prefix, policy, stats,
             keep);
    if (bestDistance != nullptr)
        *bestDistance = keep.best.distance;
    return keep.best.index;
}

void
PackedRows::topK(const Hypervector &query, std::size_t prefix,
                 std::size_t k, const ScanPolicy &policy,
                 ScanStats *stats, std::vector<RowMatch> &out) const
{
    out.clear();
    if (rows() == 0)
        throw std::logic_error("PackedRows::topK: empty store");
    assert(query.dim() == dim());
    assert(prefix <= dim());
    if (k == 0)
        return;
    BestRows keep(std::min(k, rows()));
    scanRows(data(), rowWords, rows(), query, prefix, policy, stats,
             keep);
    std::sort_heap(keep.heap.begin(), keep.heap.end(), worseMatch);
    out = std::move(keep.heap);
}

} // namespace hdham
