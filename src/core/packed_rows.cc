#include "core/packed_rows.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "core/distance.hh"
#include "core/parallel_for.hh"
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

/** Word pointer to local row @p r's head stride. */
inline const std::uint64_t *
headPtr(const ShardView &v, std::size_t r)
{
    return v.head + r * v.headStride;
}

/** Word pointer to local row @p r's tail stride (sliced shards). */
inline const std::uint64_t *
tailPtr(const ShardView &v, std::size_t r)
{
    return v.tail + r * v.tailStride;
}

/**
 * True when a @p prefix-wide distance must read past the shard's
 * slice seam. Row-major shards (sliceBits == 0) never do; sliced
 * shards only when the prefix exceeds the slice, in which case the
 * split kernels compose head and tail strides exactly.
 */
inline bool
crossesSeam(const ShardView &v, std::size_t prefix)
{
    return v.sliceBits != 0 && prefix > v.sliceBits;
}

/** Exact distance of local row @p r under the shard's layout. */
inline std::size_t
rowDist(const ShardView &v, std::size_t r, const std::uint64_t *q,
        std::size_t prefix, distance::HammingFn fn)
{
    if (!crossesSeam(v, prefix))
        return fn(headPtr(v, r), q, prefix);
    return distance::splitHamming(headPtr(v, r), tailPtr(v, r), q,
                                  v.sliceBits, prefix, fn);
}

/** Bound-exact distance of local row @p r under the shard's layout. */
inline std::size_t
rowDistBounded(const ShardView &v, std::size_t r,
               const std::uint64_t *q, std::size_t prefix,
               std::size_t bound, std::size_t *wordsRead,
               distance::BoundedHammingFn bfn)
{
    if (!crossesSeam(v, prefix))
        return bfn(headPtr(v, r), q, prefix, bound, wordsRead);
    return distance::splitHammingBounded(headPtr(v, r), tailPtr(v, r),
                                         q, v.sliceBits, prefix,
                                         bound, wordsRead, bfn);
}

/**
 * Distances of every row in the shard over the first @p prefix
 * components, written to out[0 .. v.rows). The head-only loop walks
 * one stride sequentially -- on a sliced shard whose slice covers the
 * prefix this is the cascade's streaming pass.
 */
inline void
shardDistances(const ShardView &v, const std::uint64_t *q,
               std::size_t prefix, distance::HammingFn fn,
               std::size_t *out)
{
    if (!crossesSeam(v, prefix)) {
        const std::uint64_t *p = v.head;
        for (std::size_t r = 0; r < v.rows; ++r) {
            out[r] = fn(p, q, prefix);
            p += v.headStride;
        }
        return;
    }
    for (std::size_t r = 0; r < v.rows; ++r)
        out[r] = rowDist(v, r, q, prefix, fn);
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
    /** Fold a later shard's keeper (local indices from firstRow). */
    void fold(const BestRow &shard, std::size_t firstRow)
    {
        if (shard.best.distance < best.distance)
            best = {firstRow + shard.best.index, shard.best.distance};
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
    /**
     * Fold a later shard's keeper in ascending (distance, index)
     * order, so equal distances arrive in ascending global index
     * order and the strict cut keeps the earlier row. The break is
     * sound because the rest of the shard's list only grows while
     * the cut only shrinks.
     */
    void fold(BestRows &shard, std::size_t firstRow)
    {
        std::sort_heap(shard.heap.begin(), shard.heap.end(),
                       worseMatch);
        for (const RowMatch &m : shard.heap) {
            if (m.distance >= cut())
                break;
            add(firstRow + m.index, m.distance);
        }
    }

    std::size_t k;
    std::vector<RowMatch> heap;
};

/**
 * The scan: every row of one shard, in index order, offered to
 * @p keep (local indices). A row must come in strictly below
 * min(ceiling, keep.cut()); the ceiling is prefix + 1 or, with the
 * cascade, one past the largest exact distance among the keeper-size
 * best prefix rows. See PackedRows::nearest for the exactness
 * argument.
 */
template <typename Keeper>
void
scanShard(const ShardView &v, const std::uint64_t *q,
          std::size_t prefix, const ScanPolicy &policy,
          ScanStats *stats, distance::HammingFn fn,
          distance::BoundedHammingFn bfn, Keeper &keep)
{
    const std::size_t rowSpan = wordsFor(prefix);
    const std::size_t pruneBelow = pruneLimit(policy, prefix);
    std::size_t ceiling = prefix + 1;
    // prefixDist is null without the cascade. Inlined at both calls
    // so the cascade-free scan compiles without the prefix checks.
    const auto scanRows = [&](const std::size_t *prefixDist)
                              __attribute__((always_inline)) {
        std::size_t bound = std::min(ceiling, keep.cut());
        for (std::size_t row = 0; row < v.rows; ++row) {
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
                d = rowDistBounded(v, row, q, prefix, bound,
                                   &wordsRead, bfn);
                if (d == distance::kAbandoned) {
                    if (stats != nullptr) {
                        ++stats->rowsPruned;
                        stats->wordsSkipped += rowSpan - wordsRead;
                    }
                    continue;
                }
            } else {
                d = rowDist(v, row, q, prefix, fn);
                if (d >= bound)
                    continue;
            }
            keep.add(row, d);
            bound = std::min(ceiling, keep.cut());
        }
    };
    if (policy.prune == PruneMode::Off || policy.cascadePrefix == 0 ||
        policy.cascadePrefix >= prefix || keep.capacity() >= v.rows) {
        scanRows(nullptr);
        return;
    }

    // Reused across calls on this thread; declared inside the cascade
    // path so the other scans never pay its init guard.
    thread_local std::vector<std::size_t> cascadeDist;
    {
        TRACE_SPAN("packed_rows.cascade");
        cascadeDist.resize(v.rows);
        shardDistances(v, q, policy.cascadePrefix, fn,
                       cascadeDist.data());
        Keeper seeds = keep.fresh();
        for (std::size_t row = 0; row < v.rows; ++row)
            if (cascadeDist[row] < seeds.cut())
                seeds.add(row, cascadeDist[row]);
        std::size_t maxSeed = 0;
        seeds.visit([&](const RowMatch &m) {
            maxSeed =
                std::max(maxSeed, rowDist(v, m.index, q, prefix, fn));
        });
        ceiling = maxSeed + 1;
    }
    TRACE_SPAN("packed_rows.refine");
    scanRows(cascadeDist.data());
}

/**
 * Scan every shard of @p store into @p keep (global indices). Each
 * shard scans into its own fresh keeper -- so its bound, and what
 * it adds to @p stats, never depends on another shard -- and the
 * shard keepers fold into @p keep in ascending shard order. With
 * one resolved thread the shards run in order on the caller; with
 * more they fan out over parallelForShards.
 */
template <typename Keeper>
void
scanShards(const RowStore &store, const Hypervector &query,
           std::size_t prefix, const ScanPolicy &policy,
           ScanStats *stats, std::size_t threads, Keeper &keep)
{
    const std::uint64_t *q = query.data();
    const distance::HammingFn fn = distance::active();
    const distance::BoundedHammingFn bfn = distance::activeBounded();
    const std::size_t n = store.shardCount();
    if (n == 1) {
        scanShard(store.view(0), q, prefix, policy, stats, fn, bfn,
                  keep);
        return;
    }
    if (resolveThreads(threads) <= 1) {
        for (std::size_t s = 0; s < n; ++s) {
            const ShardView v = store.view(s);
            Keeper shard = keep.fresh();
            scanShard(v, q, prefix, policy, stats, fn, bfn, shard);
            keep.fold(shard, v.firstRow);
        }
        return;
    }
    std::vector<Keeper> shards(n, keep.fresh());
    std::vector<ScanStats> shardStats(stats != nullptr ? n : 0);
    parallelForShards(n, threads, [&](std::size_t s) {
        TRACE_SPAN("packed_rows.shard_scan");
        scanShard(store.view(s), q, prefix, policy,
                  stats != nullptr ? &shardStats[s] : nullptr, fn,
                  bfn, shards[s]);
    });
    for (std::size_t s = 0; s < n; ++s) {
        keep.fold(shards[s], store.view(s).firstRow);
        if (stats != nullptr)
            *stats += shardStats[s];
    }
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

PackedRows::PackedRows(std::size_t dim) : store(dim) {}

void
PackedRows::reserve(std::size_t extraRows)
{
    store.reserve(extraRows);
}

void
PackedRows::setLayout(const StoreLayout &spec)
{
    store.reshape(spec);
}

std::size_t
PackedRows::append(const Hypervector &hv)
{
    if (hv.dim() != dim())
        throw std::invalid_argument("PackedRows::append: dimension "
                                    "mismatch");
    return store.append(hv.data());
}

Hypervector
PackedRows::rowVector(std::size_t row) const
{
    assert(row < rows());
    std::vector<std::uint64_t> buf(wordsPerRow());
    store.copyRow(row, buf.data());
    return Hypervector::fromWords(dim(), buf.data());
}

std::size_t
PackedRows::distance(std::size_t row, const Hypervector &query,
                     std::size_t prefix) const
{
    assert(row < rows());
    assert(query.dim() == dim());
    assert(prefix <= dim());
    std::size_t shard = 0;
    std::size_t local = 0;
    store.locate(row, &shard, &local);
    return rowDist(store.view(shard), local, query.data(), prefix,
                   distance::active());
}

void
PackedRows::distances(const Hypervector &query, std::size_t prefix,
                      std::vector<std::size_t> &out) const
{
    out.resize(rows());
    // Hoist the kernel dispatch out of the row loops.
    const distance::HammingFn fn = distance::active();
    const std::uint64_t *q = query.data();
    for (std::size_t s = 0; s < store.shardCount(); ++s) {
        const ShardView v = store.view(s);
        shardDistances(v, q, prefix, fn, out.data() + v.firstRow);
    }
}

void
PackedRows::stagePrefixDistances(
    std::size_t row, const Hypervector &query,
    const std::vector<std::size_t> &stageEnds,
    std::vector<std::size_t> &out) const
{
    assert(row < rows());
    assert(query.dim() == dim());
    assert(stageEnds.empty() || stageEnds.back() <= dim());
    out.resize(stageEnds.size());
    // The staged walk below wants one contiguous record; on a sliced
    // store materialize the row first (the staged engines keep their
    // stores row-major, so this path is cold there).
    std::vector<std::uint64_t> rowBuf;
    const std::uint64_t *a = nullptr;
    if (store.sliceWords() != 0) {
        rowBuf.resize(wordsPerRow());
        store.copyRow(row, rowBuf.data());
        a = rowBuf.data();
    } else {
        std::size_t shard = 0;
        std::size_t local = 0;
        store.locate(row, &shard, &local);
        const ShardView v = store.view(shard);
        a = headPtr(v, local);
    }
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
                    std::size_t *bestDistance,
                    std::size_t threads) const
{
    if (rows() == 0)
        throw std::logic_error("PackedRows::nearest: empty store");
    assert(query.dim() == dim());
    assert(prefix <= dim());
    BestRow keep;
    scanShards(store, query, prefix, policy, stats, threads, keep);
    if (bestDistance != nullptr)
        *bestDistance = keep.best.distance;
    return keep.best.index;
}

void
PackedRows::topK(const Hypervector &query, std::size_t prefix,
                 std::size_t k, const ScanPolicy &policy,
                 ScanStats *stats, std::vector<RowMatch> &out,
                 std::size_t threads) const
{
    out.clear();
    if (rows() == 0)
        throw std::logic_error("PackedRows::topK: empty store");
    assert(query.dim() == dim());
    assert(prefix <= dim());
    if (k == 0)
        return;
    BestRows keep(std::min(k, rows()));
    scanShards(store, query, prefix, policy, stats, threads, keep);
    std::sort_heap(keep.heap.begin(), keep.heap.end(), worseMatch);
    out = std::move(keep.heap);
}

} // namespace hdham
