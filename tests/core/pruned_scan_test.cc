/**
 * @file
 * Bit-identity suite for the bound-pruned scan paths.
 *
 * Every policy (early abandonment forced on, the Auto cutoff, the
 * sampled-prefix cascade, and their combination in topK) must return
 * the same winner index AND the same distance as the exhaustive
 * scan, under every distance kernel this host supports and including
 * the adversarial cases pruning gets wrong when its bound handling
 * is off by one: exact ties and rows that are all identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/distance.hh"
#include "core/packed_rows.hh"
#include "core/random.hh"

namespace
{

using hdham::Hypervector;
using hdham::PackedRows;
using hdham::PruneMode;
using hdham::RowMatch;
using hdham::Rng;
using hdham::ScanPolicy;
using hdham::ScanStats;
namespace distance = hdham::distance;

/** Names of every registered kernel this host can run. */
std::vector<const char *>
testableKernels()
{
    std::vector<const char *> kernels;
    for (const distance::KernelEntry &entry : distance::kernels())
        if (entry.usable())
            kernels.push_back(entry.name);
    return kernels;
}

/** RAII: restore automatic kernel dispatch after a pinned section. */
struct KernelGuard
{
    ~KernelGuard() { distance::setKernelByName("auto"); }
};

/** The policies under test: every pruning mechanism switched on. */
std::vector<ScanPolicy>
prunedPolicies(std::size_t dim)
{
    return {
        ScanPolicy{PruneMode::On, 0},
        ScanPolicy{PruneMode::Auto, 0},
        ScanPolicy{PruneMode::On, dim / 8},
        ScanPolicy{PruneMode::Auto, dim / 8},
        // Degenerate cascade widths must silently disable the
        // cascade, not corrupt the scan.
        ScanPolicy{PruneMode::Auto, dim},
        ScanPolicy{PruneMode::Auto, dim + 1},
    };
}

/**
 * A workload where pruning actually engages: most queries sit close
 * to one stored row (prototype with ~5% of bits flipped), a few are
 * uniform random, and two pairs of rows are exact duplicates so the
 * lowest-index tie rule is exercised.
 */
struct Workload
{
    PackedRows rows;
    std::vector<Hypervector> queries;

    explicit Workload(std::size_t dim, std::size_t numRows,
                      std::uint64_t seed)
        : rows(dim)
    {
        Rng rng(seed);
        std::vector<Hypervector> stored;
        for (std::size_t r = 0; r < numRows; ++r) {
            if (r >= 2 && r % 5 == 0) {
                stored.push_back(stored[r - 2]); // exact duplicate
            } else {
                stored.push_back(Hypervector::random(dim, rng));
            }
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

/**
 * Exhaustive oracle, independent of the scan under test: the first
 * row in index order attaining the minimum per-row distance.
 */
RowMatch
exhaustiveNearest(const PackedRows &rows, const Hypervector &query,
                  std::size_t prefix)
{
    RowMatch m{0, rows.distance(0, query, prefix)};
    for (std::size_t r = 1; r < rows.rows(); ++r) {
        const std::size_t d = rows.distance(r, query, prefix);
        if (d < m.distance)
            m = {r, d};
    }
    return m;
}

TEST(PrunedScanTest, MatchesExhaustiveAcrossKernelsAndPolicies)
{
    KernelGuard guard;
    for (std::size_t dim : {512u, 1000u, 10007u}) {
        const Workload w(dim, 24, 0xBEEF + dim);
        for (const char *kernel : testableKernels()) {
            distance::setKernelByName(kernel);
            for (const Hypervector &query : w.queries) {
                const RowMatch want =
                    exhaustiveNearest(w.rows, query, dim);
                for (const ScanPolicy &policy :
                     prunedPolicies(dim)) {
                    ScanStats stats;
                    std::size_t got = 0;
                    const std::size_t winner = w.rows.nearest(
                        query, dim, policy, &stats, &got);
                    EXPECT_EQ(winner, want.index)
                        << "dim " << dim << " kernel " << kernel
                        << " cascade " << policy.cascadePrefix;
                    EXPECT_EQ(got, want.distance)
                        << "dim " << dim << " kernel " << kernel
                        << " cascade " << policy.cascadePrefix;
                }
            }
        }
    }
}

TEST(PrunedScanTest, RaggedPrefixMatchesExhaustive)
{
    // Scan prefixes that end inside a word, on a dimension that is
    // itself not word-aligned.
    KernelGuard guard;
    const std::size_t dim = 1027;
    const Workload w(dim, 16, 0xFEED);
    for (const char *kernel : testableKernels()) {
        distance::setKernelByName(kernel);
        for (std::size_t prefix : {63u, 65u, 500u, 1000u, 1027u}) {
            for (const Hypervector &query : w.queries) {
                const RowMatch want =
                    exhaustiveNearest(w.rows, query, prefix);
                for (const ScanPolicy &policy :
                     prunedPolicies(prefix)) {
                    std::size_t got = 0;
                    const std::size_t winner = w.rows.nearest(
                        query, prefix, policy, nullptr, &got);
                    EXPECT_EQ(winner, want.index)
                        << "prefix " << prefix;
                    EXPECT_EQ(got, want.distance)
                        << "prefix " << prefix;
                }
            }
        }
    }
}

TEST(PrunedScanTest, AllRowsIdenticalPicksRowZero)
{
    // Adversarial: every row ties, so every policy must fall back to
    // the lowest index without pruning away the winner.
    Rng rng(7);
    const std::size_t dim = 640;
    PackedRows rows(dim);
    const Hypervector proto = Hypervector::random(dim, rng);
    for (std::size_t r = 0; r < 12; ++r)
        rows.append(proto);
    for (int near = 0; near < 2; ++near) {
        Hypervector query = proto;
        if (near)
            query.injectErrors(dim / 10, rng);
        const RowMatch want = exhaustiveNearest(rows, query, dim);
        EXPECT_EQ(want.index, 0u);
        for (const ScanPolicy &policy : prunedPolicies(dim)) {
            std::size_t got = 0;
            EXPECT_EQ(rows.nearest(query, dim, policy, nullptr, &got),
                      0u);
            EXPECT_EQ(got, want.distance);
        }
    }
}

TEST(PrunedScanTest, TopKMatchesSortOracle)
{
    KernelGuard guard;
    const std::size_t dim = 1000;
    const Workload w(dim, 20, 0xCAFE);
    for (const char *kernel : testableKernels()) {
        distance::setKernelByName(kernel);
        for (const Hypervector &query : w.queries) {
            // Sort-based oracle: all distances, ascending
            // (distance, index).
            std::vector<RowMatch> oracle;
            for (std::size_t r = 0; r < w.rows.rows(); ++r)
                oracle.push_back(
                    {r, w.rows.distance(r, query, dim)});
            std::stable_sort(
                oracle.begin(), oracle.end(),
                [](const RowMatch &a, const RowMatch &b) {
                    return a.distance != b.distance
                               ? a.distance < b.distance
                               : a.index < b.index;
                });
            for (std::size_t k : {1u, 3u, 7u, 20u, 99u}) {
                const std::size_t kk =
                    std::min<std::size_t>(k, w.rows.rows());
                for (const ScanPolicy &policy :
                     prunedPolicies(dim)) {
                    std::vector<RowMatch> got;
                    w.rows.topK(query, dim, k, policy, nullptr,
                                got);
                    ASSERT_EQ(got.size(), kk);
                    for (std::size_t i = 0; i < kk; ++i) {
                        EXPECT_EQ(got[i].index, oracle[i].index)
                            << "k " << k << " rank " << i;
                        EXPECT_EQ(got[i].distance,
                                  oracle[i].distance)
                            << "k " << k << " rank " << i;
                    }
                }
            }
        }
    }
}

TEST(PrunedScanTest, StatsCountPrunedRowsOnSkewedWorkload)
{
    // A query equal to a stored row forces the bound to its minimum
    // immediately after that row; with the matching row first, every
    // later row must abandon under forced pruning.
    Rng rng(9);
    const std::size_t dim = 10000;
    PackedRows rows(dim);
    const Hypervector proto = Hypervector::random(dim, rng);
    rows.append(proto);
    for (std::size_t r = 1; r < 16; ++r)
        rows.append(Hypervector::random(dim, rng));

    ScanStats on;
    rows.nearest(proto, dim, ScanPolicy{PruneMode::On, 0}, &on);
    EXPECT_EQ(on.rowsPruned, rows.rows() - 1);
    EXPECT_GT(on.wordsSkipped, 0u);
    EXPECT_EQ(on.cascadeSurvivors, 0u);

    ScanStats off;
    rows.nearest(proto, dim, ScanPolicy{PruneMode::Off, 0}, &off);
    EXPECT_EQ(off.rowsPruned, 0u);
    EXPECT_EQ(off.wordsSkipped, 0u);
    EXPECT_EQ(off.cascadeSurvivors, 0u);

    ScanStats cascade;
    rows.nearest(proto, dim, ScanPolicy{PruneMode::Auto, 512},
                 &cascade);
    EXPECT_EQ(cascade.rowsPruned, rows.rows() - 1);
    EXPECT_GT(cascade.wordsSkipped, 0u);
}

TEST(PrunedScanTest, CascadeFiltersPrefixTiesWithTheBound)
{
    // Identical rows and an exact query: every prefix distance ties
    // the bound once the keeper is full, so exactly the keeper's
    // first rows survive the cascade and the rest are filtered on
    // their prefix alone -- never handed to the distance kernel.
    Rng rng(13);
    const std::size_t dim = 1024;
    const std::size_t cascade = 256;
    PackedRows rows(dim);
    const Hypervector proto = Hypervector::random(dim, rng);
    for (std::size_t r = 0; r < 9; ++r)
        rows.append(proto);
    const std::size_t skipped = (dim - cascade) / 64;
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
        ScanStats stats;
        std::vector<RowMatch> out;
        rows.topK(proto, dim, k, ScanPolicy{PruneMode::On, cascade},
                  &stats, out);
        EXPECT_EQ(stats.cascadeSurvivors, k);
        EXPECT_EQ(stats.rowsPruned, rows.rows() - k);
        EXPECT_EQ(stats.wordsSkipped, (rows.rows() - k) * skipped);
    }
    ScanStats stats;
    rows.nearest(proto, dim, ScanPolicy{PruneMode::On, cascade}, &stats);
    EXPECT_EQ(stats.cascadeSurvivors, 1u);
    EXPECT_EQ(stats.rowsPruned, rows.rows() - 1);
    EXPECT_EQ(stats.wordsSkipped, (rows.rows() - 1) * skipped);
}

TEST(PrunedScanTest, PrunedCountersAreKernelInvariant)
{
    // rowsPruned and cascadeSurvivors depend only on distance
    // values, never on kernel strip placement; pin that contract.
    // (wordsSkipped is allowed to differ across kernels.)
    KernelGuard guard;
    const std::size_t dim = 2048;
    const Workload w(dim, 16, 0xD15C);
    for (const ScanPolicy &policy :
         {ScanPolicy{PruneMode::On, 0},
          ScanPolicy{PruneMode::Auto, 256}}) {
        for (const Hypervector &query : w.queries) {
            distance::setKernelByName("scalar");
            ScanStats scalar;
            w.rows.nearest(query, dim, policy, &scalar);
            for (const char *kernel : testableKernels()) {
                distance::setKernelByName(kernel);
                ScanStats stats;
                w.rows.nearest(query, dim, policy, &stats);
                EXPECT_EQ(stats.rowsPruned, scalar.rowsPruned)
                    << kernel;
                EXPECT_EQ(stats.cascadeSurvivors,
                          scalar.cascadeSurvivors)
                    << kernel;
            }
        }
    }
}

TEST(PrunedScanTest, BoundedKernelsAreBoundExact)
{
    // The kernel contract behind every exactness argument: the
    // bounded form returns the exact distance iff it is strictly
    // below the bound, and the sentinel otherwise -- never a
    // partial count.
    Rng rng(11);
    for (std::size_t dim : {64u, 500u, 1027u, 4096u}) {
        const Hypervector a = Hypervector::random(dim, rng);
        Hypervector b = a;
        b.injectErrors(dim / 7 + 1, rng);
        const std::size_t exact =
            distance::hamming(a.data(), b.data(), dim);
        for (const distance::KernelEntry &entry :
             distance::kernels()) {
            if (!entry.usable())
                continue;
            for (const std::size_t bound :
                 {std::size_t{1}, exact, exact + 1, dim + 1}) {
                std::size_t wordsRead = 0;
                const std::size_t got = entry.bounded(
                    a.data(), b.data(), dim, bound, &wordsRead);
                if (exact < bound)
                    EXPECT_EQ(got, exact)
                        << entry.name << " dim " << dim;
                else
                    EXPECT_EQ(got, distance::kAbandoned)
                        << entry.name << " dim " << dim
                        << " bound " << bound;
                EXPECT_LE(wordsRead, a.words());
            }
        }
    }
}

TEST(PrunedScanTest, TopKEdgeCasesAcrossKernels)
{
    // The degenerate k values every policy and kernel must agree on:
    // k = 0 returns nothing, k > rows() returns every row in exact
    // sort-oracle order.
    KernelGuard guard;
    const std::size_t dim = 768;
    Workload w(dim, 12, 0x70F0);
    for (const char *kernel : testableKernels()) {
        distance::setKernelByName(kernel);
        for (const Hypervector &query : w.queries) {
            std::vector<RowMatch> oracle;
            for (std::size_t r = 0; r < w.rows.rows(); ++r)
                oracle.push_back({r, w.rows.distance(r, query, dim)});
            std::stable_sort(oracle.begin(), oracle.end(),
                             [](const RowMatch &a, const RowMatch &b) {
                                 return a.distance != b.distance
                                            ? a.distance < b.distance
                                            : a.index < b.index;
                             });
            for (const ScanPolicy &policy : prunedPolicies(dim)) {
                std::vector<RowMatch> got;
                w.rows.topK(query, dim, 0, policy, nullptr, got);
                EXPECT_TRUE(got.empty()) << "kernel " << kernel;
                w.rows.topK(query, dim, w.rows.rows() + 5, policy,
                            nullptr, got);
                ASSERT_EQ(got.size(), w.rows.rows());
                for (std::size_t i = 0; i < got.size(); ++i) {
                    EXPECT_EQ(got[i].index, oracle[i].index)
                        << "kernel " << kernel << " rank " << i;
                    EXPECT_EQ(got[i].distance, oracle[i].distance)
                        << "rank " << i;
                }
            }
        }
    }
}

TEST(PrunedScanTest, TopKAllEqualDistancesKeepsIndexOrder)
{
    // k == rows() with every stored row identical: all distances tie,
    // so the output must be the full index sequence 0 .. rows() - 1
    // in ascending order -- the heap's worse-first comparator must
    // never reorder equal distances.
    KernelGuard guard;
    Rng rng(21);
    const std::size_t dim = 640;
    PackedRows rows(dim);
    const Hypervector proto = Hypervector::random(dim, rng);
    for (std::size_t r = 0; r < 10; ++r)
        rows.append(proto);
    Hypervector query = proto;
    query.injectErrors(dim / 9, rng);
    const std::size_t d = rows.distance(0, query, dim);
    for (const char *kernel : testableKernels()) {
        distance::setKernelByName(kernel);
        for (const ScanPolicy &policy : prunedPolicies(dim)) {
            std::vector<RowMatch> got;
            rows.topK(query, dim, rows.rows(), policy, nullptr, got);
            ASSERT_EQ(got.size(), rows.rows());
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].index, i) << "kernel " << kernel;
                EXPECT_EQ(got[i].distance, d);
            }
        }
    }
}

} // namespace
