/**
 * @file
 * The exact scan behind PackedRows::nearest and topK, checked
 * against a per-row reference loop written here: the lowest-index
 * tie rule with duplicate rows, a store whose rows are all
 * identical, prefixes and dimensions that are not multiples of 64,
 * topK at every edge k, and the winner's distance. The check-kernels
 * matrix runs the suite once per kernel tier (HDHAM_KERNEL pins
 * it), so every tier's exact kernel goes through the scan.
 *
 * PrunedScanTest and ShardedScanTest keep the names their cases had
 * when the scan could prune and the store had row shards; each case
 * now checks the one exact scan. ShardedScanTest runs them on a
 * larger store: 53 rows at D = 1,024.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/packed_rows.hh"
#include "core/random.hh"

namespace
{

using hdham::Hypervector;
using hdham::PackedRows;
using hdham::RowMatch;
using hdham::Rng;

/**
 * Rows, and queries against them. Every fifth row from row 5 on
 * duplicates the row two before it, so equal distances at different
 * indices are common. Three queries in four sit near a stored row
 * (5% of its bits flipped); the fourth is uniform random.
 */
struct Workload
{
    std::vector<Hypervector> stored;
    PackedRows rows;
    std::vector<Hypervector> queries;

    Workload(std::size_t dim, std::size_t numRows, std::uint64_t seed)
        : rows(dim)
    {
        Rng rng(seed);
        for (std::size_t r = 0; r < numRows; ++r) {
            if (r >= 2 && r % 5 == 0)
                stored.push_back(stored[r - 2]);
            else
                stored.push_back(Hypervector::random(dim, rng));
            rows.append(stored.back());
        }
        for (std::size_t q = 0; q < 2 * numRows; ++q) {
            if (q % 4 == 3) {
                queries.push_back(Hypervector::random(dim, rng));
            } else {
                Hypervector hv = stored[q % numRows];
                hv.injectErrors(dim / 20, rng);
                queries.push_back(std::move(hv));
            }
        }
    }
};

/** @p count copies of one random row: every distance ties. */
struct IdenticalRows
{
    std::vector<Hypervector> stored;
    PackedRows rows;

    IdenticalRows(std::size_t dim, std::size_t count, Rng &rng)
        : stored(count, Hypervector::random(dim, rng)), rows(dim)
    {
        for (const Hypervector &row : stored)
            rows.append(row);
    }
};

/** ShardedScanTest's store. */
const Workload &
largeStore()
{
    static const Workload w(1024, 53, 0x5AAD);
    return w;
}

/** The reference distance: one component at a time. */
std::size_t
referenceDistance(const Hypervector &row, const Hypervector &query,
                  std::size_t prefix)
{
    std::size_t d = 0;
    for (std::size_t i = 0; i < prefix; ++i)
        d += row.get(i) != query.get(i);
    return d;
}

/**
 * Every row with its reference distance, by ascending distance and,
 * for equal distances, ascending index: the first entry is the
 * winner nearest() must return, the first k are topK()'s answer.
 */
std::vector<RowMatch>
referenceRanking(const std::vector<Hypervector> &stored,
                 const Hypervector &query, std::size_t prefix)
{
    std::vector<RowMatch> ranking;
    for (std::size_t r = 0; r < stored.size(); ++r)
        ranking.push_back({r, referenceDistance(stored[r], query, prefix)});
    std::stable_sort(ranking.begin(), ranking.end(),
                     [](const RowMatch &a, const RowMatch &b) {
                         return a.distance < b.distance;
                     });
    return ranking;
}

/** nearest() must return the reference winner and its distance. */
void
expectNearest(const PackedRows &rows, const Hypervector &query,
              std::size_t prefix, const std::vector<RowMatch> &ranking)
{
    std::size_t distance = prefix + 1;
    EXPECT_EQ(rows.nearest(query, prefix, &distance), ranking[0].index)
        << "prefix " << prefix;
    EXPECT_EQ(distance, ranking[0].distance) << "prefix " << prefix;
}

/** topK(k) must return the first min(k, rows) reference entries. */
void
expectTopK(const PackedRows &rows, const Hypervector &query,
           std::size_t prefix, std::size_t k,
           const std::vector<RowMatch> &ranking)
{
    std::vector<RowMatch> got;
    rows.topK(query, prefix, k, got);
    const std::size_t want = std::min(k, ranking.size());
    ASSERT_EQ(got.size(), want) << "k " << k;
    for (std::size_t i = 0; i < want; ++i) {
        EXPECT_EQ(got[i].index, ranking[i].index)
            << "prefix " << prefix << " k " << k << " rank " << i;
        EXPECT_EQ(got[i].distance, ranking[i].distance)
            << "prefix " << prefix << " k " << k << " rank " << i;
    }
}

/** topK(k) on identical rows: rows 0 .. k - 1 in index order. */
void
expectIndexOrder(const IdenticalRows &s, const Hypervector &query,
                 std::size_t k)
{
    const std::size_t dim = s.rows.dim();
    const std::size_t d = referenceDistance(s.stored[0], query, dim);
    std::vector<RowMatch> got;
    s.rows.topK(query, dim, k, got);
    ASSERT_EQ(got.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(got[i].index, i) << "k " << k;
        EXPECT_EQ(got[i].distance, d) << "k " << k;
    }
}

TEST(PrunedScanTest, MatchesExhaustiveAcrossKernelsAndPolicies)
{
    // One scan and, per run, one kernel: the check-kernels matrix
    // supplies the others. The duplicate rows check the lowest-index
    // tie rule.
    for (const std::size_t dim : {512u, 1000u, 10007u}) {
        const Workload w(dim, 24, 0xBEEF + dim);
        std::size_t ties = 0;
        for (const Hypervector &query : w.queries) {
            const std::vector<RowMatch> ranking =
                referenceRanking(w.stored, query, dim);
            ties += ranking[0].distance == ranking[1].distance;
            expectNearest(w.rows, query, dim, ranking);
        }
        // The duplicates must put some winners in a tie, or the
        // lowest-index rule went unchecked.
        EXPECT_GT(ties, 0u) << "dim " << dim;
    }
}

TEST(ScanTest, RaggedPrefixesMatchTheReference)
{
    // Scan prefixes that end inside a word, on a dimension that is
    // itself not a multiple of 64.
    const std::size_t dim = 1027;
    const Workload w(dim, 16, 0xFEED);
    for (const std::size_t prefix : {63u, 65u, 500u, 1000u, 1027u}) {
        for (const Hypervector &query : w.queries) {
            const std::vector<RowMatch> ranking =
                referenceRanking(w.stored, query, prefix);
            expectNearest(w.rows, query, prefix, ranking);
            expectTopK(w.rows, query, prefix, 3, ranking);
        }
    }
}

TEST(PrunedScanTest, TopKMatchesSortOracle)
{
    const std::size_t dim = 1000;
    const Workload w(dim, 20, 0xCAFE);
    const std::size_t n = w.rows.rows();
    for (const Hypervector &query : w.queries) {
        const std::vector<RowMatch> ranking =
            referenceRanking(w.stored, query, dim);
        for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                    std::size_t{7}, n - 1, n})
            expectTopK(w.rows, query, dim, k, ranking);
    }
}

TEST(PrunedScanTest, TopKEdgeCasesAcrossKernels)
{
    // k = 0 returns nothing; k above rows() returns every row.
    const std::size_t dim = 768;
    const Workload w(dim, 12, 0x70F0);
    for (const Hypervector &query : w.queries) {
        const std::vector<RowMatch> ranking =
            referenceRanking(w.stored, query, dim);
        for (const std::size_t k : {std::size_t{0}, w.rows.rows() + 5})
            expectTopK(w.rows, query, dim, k, ranking);
    }
}

TEST(PrunedScanTest, AllRowsIdenticalPicksRowZero)
{
    // Every row ties: nearest() must keep row 0, for a query equal
    // to the rows and for one away from them.
    Rng rng(7);
    const IdenticalRows s(640, 12, rng);
    for (const bool exact : {true, false}) {
        Hypervector query = s.stored[0];
        if (!exact)
            query.injectErrors(640 / 10, rng);
        const std::vector<RowMatch> ranking =
            referenceRanking(s.stored, query, 640);
        ASSERT_EQ(ranking[0].index, 0u);
        expectNearest(s.rows, query, 640, ranking);
    }
}

TEST(PrunedScanTest, TopKAllEqualDistancesKeepsIndexOrder)
{
    // All distances tie, so topK() must keep ascending index order,
    // up to and including k == rows().
    Rng rng(21);
    const IdenticalRows s(640, 10, rng);
    Hypervector query = s.stored[0];
    query.injectErrors(640 / 9, rng);
    for (const std::size_t k : {std::size_t{5}, s.rows.rows()})
        expectIndexOrder(s, query, k);
}

TEST(ShardedScanTest, NearestMatchesUnshardedExhaustiveOracle)
{
    const Workload &w = largeStore();
    const std::size_t dim = w.rows.dim();
    for (const Hypervector &query : w.queries)
        expectNearest(w.rows, query, dim,
                      referenceRanking(w.stored, query, dim));
}

TEST(ShardedScanTest, TopKMatchesSortOracle)
{
    const Workload &w = largeStore();
    const std::size_t dim = w.rows.dim();
    const std::size_t n = w.rows.rows();
    for (const Hypervector &query : w.queries) {
        const std::vector<RowMatch> ranking =
            referenceRanking(w.stored, query, dim);
        for (const std::size_t k :
             {std::size_t{0}, std::size_t{1}, std::size_t{5}, n, n + 3})
            expectTopK(w.rows, query, dim, k, ranking);
    }
}

TEST(ShardedScanTest, AllRowsIdenticalTiesResolveToRowZero)
{
    Rng rng(33);
    const IdenticalRows s(1024, 24, rng);
    Hypervector query = s.stored[0];
    query.injectErrors(1024 / 10, rng);
    const std::vector<RowMatch> ranking =
        referenceRanking(s.stored, query, 1024);
    ASSERT_EQ(ranking[0].index, 0u);
    expectNearest(s.rows, query, 1024, ranking);
    expectIndexOrder(s, query, 6);
}

} // namespace
