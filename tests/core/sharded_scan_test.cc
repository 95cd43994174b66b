/**
 * @file
 * Determinism suite for the sharded scan paths.
 *
 * The sharded contract: nearest()/topK() at every thread count are
 * bit-identical to the unsharded row-major exhaustive scan -- winner
 * indices, distances and the lowest-index tie rule -- for every
 * layout, shard count and thread count; and because every shard
 * seeds its own pruning bound, the merged ScanStats counters are
 * byte-identical at every thread count (the worker assignment only
 * decides who runs a shard, never what the shard computes).
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
using hdham::RowLayout;
using hdham::RowMatch;
using hdham::Rng;
using hdham::ScanPolicy;
using hdham::ScanStats;
using hdham::StoreLayout;
namespace distance = hdham::distance;

constexpr std::size_t kDim = 1024;
constexpr std::size_t kRows = 53; // prime: every shard count is ragged
constexpr std::size_t kSlicePrefix = 192;
constexpr std::size_t kCascade = 128;

const std::size_t kShardCounts[] = {1, 2, 3, 7, 16};
const std::size_t kThreadCounts[] = {1, 4, 8};

/** Policies spanning exhaustive, abandon-only and cascade scans. */
std::vector<ScanPolicy>
shardedPolicies()
{
    return {
        ScanPolicy{PruneMode::Off, 0},
        ScanPolicy{PruneMode::On, 0},
        ScanPolicy{PruneMode::Auto, kCascade},
        ScanPolicy{PruneMode::On, kCascade},
    };
}

/**
 * Shared skewed workload (same recipe as the pruned-scan suite:
 * duplicate rows for ties, most queries near a stored prototype) plus
 * an untouched row-major unsharded copy that serves as the oracle.
 */
struct ShardedWorkload
{
    PackedRows rows;   // reshaped by the tests
    PackedRows oracle; // stays row-major, single shard
    std::vector<Hypervector> queries;

    ShardedWorkload() : rows(kDim), oracle(kDim)
    {
        Rng rng(0x5AAD);
        std::vector<Hypervector> stored;
        for (std::size_t r = 0; r < kRows; ++r) {
            if (r >= 2 && r % 5 == 0)
                stored.push_back(stored[r - 2]); // exact duplicate
            else
                stored.push_back(Hypervector::random(kDim, rng));
            rows.append(stored.back());
            oracle.append(stored.back());
        }
        for (std::size_t q = 0; q < 20; ++q) {
            if (q % 4 == 3) {
                queries.push_back(Hypervector::random(kDim, rng));
            } else {
                Hypervector hv = stored[(7 * q) % kRows];
                hv.injectErrors(kDim / 20, rng);
                queries.push_back(std::move(hv));
            }
        }
    }
};

const ShardedWorkload &
workload()
{
    static const ShardedWorkload w;
    return w;
}

/** The layout axis: seed row-major and the sliced head layout. */
std::vector<StoreLayout>
layoutAxis(std::size_t shards)
{
    return {
        StoreLayout{RowLayout::RowMajor, shards, 0},
        StoreLayout{RowLayout::Sliced, shards, kSlicePrefix},
    };
}

TEST(ShardedScanTest, NearestMatchesUnshardedExhaustiveOracle)
{
    const ShardedWorkload &w = workload();
    PackedRows sharded(kDim);
    for (std::size_t r = 0; r < kRows; ++r)
        sharded.append(w.oracle.rowVector(r));
    for (const std::size_t shards : kShardCounts) {
        for (const StoreLayout &spec : layoutAxis(shards)) {
            sharded.setLayout(spec);
            for (const Hypervector &query : w.queries) {
                // First row attaining the minimum per-row distance:
                // independent of the scan under test.
                std::size_t want = 0;
                std::size_t wantDist = w.oracle.distance(0, query, kDim);
                for (std::size_t r = 1; r < kRows; ++r) {
                    const std::size_t d = w.oracle.distance(r, query, kDim);
                    if (d < wantDist) {
                        want = r;
                        wantDist = d;
                    }
                }
                for (const ScanPolicy &policy : shardedPolicies()) {
                    for (const std::size_t threads : kThreadCounts) {
                        std::size_t gotDist = 0;
                        const std::size_t got =
                            sharded.nearest(query, kDim, policy,
                                            nullptr, &gotDist,
                                            threads);
                        EXPECT_EQ(got, want)
                            << hdham::rowLayoutName(spec.layout)
                            << " shards " << shards << " threads "
                            << threads << " cascade "
                            << policy.cascadePrefix;
                        EXPECT_EQ(gotDist, wantDist)
                            << hdham::rowLayoutName(spec.layout)
                            << " shards " << shards << " threads "
                            << threads;
                    }
                }
            }
        }
    }
}

TEST(ShardedScanTest, TopKMatchesSortOracle)
{
    const ShardedWorkload &w = workload();
    PackedRows sharded(kDim);
    for (std::size_t r = 0; r < kRows; ++r)
        sharded.append(w.oracle.rowVector(r));
    for (const std::size_t shards : kShardCounts) {
        for (const StoreLayout &spec : layoutAxis(shards)) {
            sharded.setLayout(spec);
            for (const Hypervector &query : w.queries) {
                std::vector<RowMatch> oracle;
                for (std::size_t r = 0; r < kRows; ++r)
                    oracle.push_back(
                        {r, w.oracle.distance(r, query, kDim)});
                std::stable_sort(
                    oracle.begin(), oracle.end(),
                    [](const RowMatch &a, const RowMatch &b) {
                        return a.distance != b.distance
                                   ? a.distance < b.distance
                                   : a.index < b.index;
                    });
                for (const std::size_t k :
                     {std::size_t{0}, std::size_t{1}, std::size_t{5},
                      kRows, kRows + 3}) {
                    const std::size_t kk = std::min(k, kRows);
                    for (const ScanPolicy &policy :
                         shardedPolicies()) {
                        for (const std::size_t threads :
                             kThreadCounts) {
                            std::vector<RowMatch> got;
                            sharded.topK(query, kDim, k, policy,
                                         nullptr, got, threads);
                            ASSERT_EQ(got.size(), kk)
                                << "k " << k << " shards " << shards;
                            for (std::size_t i = 0; i < kk; ++i) {
                                EXPECT_EQ(got[i].index,
                                          oracle[i].index)
                                    << hdham::rowLayoutName(
                                           spec.layout)
                                    << " shards " << shards
                                    << " threads " << threads
                                    << " k " << k << " rank " << i;
                                EXPECT_EQ(got[i].distance,
                                          oracle[i].distance)
                                    << "k " << k << " rank " << i;
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(ShardedScanTest, MergedCountersAreThreadCountInvariant)
{
    // Per-shard bounds make every counter a pure function of the
    // (query, shard partition) pair: the sequential per-shard reduce
    // of nearest()/topK() on the caller and every threaded fan-out
    // must produce byte-identical merged ScanStats.
    const ShardedWorkload &w = workload();
    PackedRows sharded(kDim);
    for (std::size_t r = 0; r < kRows; ++r)
        sharded.append(w.oracle.rowVector(r));
    for (const std::size_t shards : kShardCounts) {
        for (const StoreLayout &spec : layoutAxis(shards)) {
            sharded.setLayout(spec);
            for (const ScanPolicy &policy : shardedPolicies()) {
                for (const Hypervector &query : w.queries) {
                    ScanStats sequential;
                    sharded.nearest(query, kDim, policy, &sequential);
                    ScanStats seqTopK;
                    std::vector<RowMatch> out;
                    sharded.topK(query, kDim, 5, policy, &seqTopK,
                                 out);
                    for (const std::size_t threads : kThreadCounts) {
                        ScanStats stats;
                        sharded.nearest(query, kDim, policy, &stats,
                                        nullptr, threads);
                        EXPECT_EQ(stats.rowsPruned,
                                  sequential.rowsPruned)
                            << hdham::rowLayoutName(spec.layout)
                            << " shards " << shards << " threads "
                            << threads;
                        EXPECT_EQ(stats.wordsSkipped,
                                  sequential.wordsSkipped)
                            << "threads " << threads;
                        EXPECT_EQ(stats.cascadeSurvivors,
                                  sequential.cascadeSurvivors)
                            << "threads " << threads;

                        ScanStats topkStats;
                        sharded.topK(query, kDim, 5, policy,
                                     &topkStats, out, threads);
                        EXPECT_EQ(topkStats.rowsPruned,
                                  seqTopK.rowsPruned)
                            << "topK threads " << threads;
                        EXPECT_EQ(topkStats.wordsSkipped,
                                  seqTopK.wordsSkipped)
                            << "topK threads " << threads;
                        EXPECT_EQ(topkStats.cascadeSurvivors,
                                  seqTopK.cascadeSurvivors)
                            << "topK threads " << threads;
                    }
                }
            }
        }
    }
}

TEST(ShardedScanTest, PrunedRowCountersAreLayoutInvariant)
{
    // rowsPruned and cascadeSurvivors depend only on distance values
    // and the shard partition, never on the physical layout.
    // (wordsSkipped may differ across layouts: the split kernels
    // place their strip checks per stride.)
    const ShardedWorkload &w = workload();
    PackedRows rowMajor(kDim);
    PackedRows sliced(kDim);
    for (std::size_t r = 0; r < kRows; ++r) {
        rowMajor.append(w.oracle.rowVector(r));
        sliced.append(w.oracle.rowVector(r));
    }
    for (const std::size_t shards : kShardCounts) {
        rowMajor.setLayout(StoreLayout{RowLayout::RowMajor, shards, 0});
        sliced.setLayout(
            StoreLayout{RowLayout::Sliced, shards, kSlicePrefix});
        for (const ScanPolicy &policy : shardedPolicies()) {
            for (const Hypervector &query : w.queries) {
                ScanStats row;
                ScanStats slice;
                rowMajor.nearest(query, kDim, policy, &row);
                sliced.nearest(query, kDim, policy, &slice);
                EXPECT_EQ(slice.rowsPruned, row.rowsPruned)
                    << "shards " << shards << " cascade "
                    << policy.cascadePrefix;
                EXPECT_EQ(slice.cascadeSurvivors,
                          row.cascadeSurvivors)
                    << "shards " << shards;
            }
        }
    }
}

TEST(ShardedScanTest, AllRowsIdenticalTiesResolveToRowZero)
{
    // Ties spanning every shard boundary: the bound-aware reduce
    // must keep the globally lowest index, never a later shard's
    // equal-distance winner.
    Rng rng(33);
    PackedRows rows(kDim);
    const Hypervector proto = Hypervector::random(kDim, rng);
    for (std::size_t r = 0; r < 24; ++r)
        rows.append(proto);
    Hypervector query = proto;
    query.injectErrors(kDim / 10, rng);
    for (const std::size_t shards : kShardCounts) {
        for (const StoreLayout &spec : layoutAxis(shards)) {
            rows.setLayout(spec);
            for (const ScanPolicy &policy : shardedPolicies()) {
                for (const std::size_t threads : kThreadCounts) {
                    std::size_t dist = 0;
                    EXPECT_EQ(rows.nearest(query, kDim, policy, nullptr,
                                           &dist, threads),
                              0u)
                        << hdham::rowLayoutName(spec.layout)
                        << " shards " << shards << " threads "
                        << threads;
                    std::vector<RowMatch> top;
                    rows.topK(query, kDim, 6, policy, nullptr, top,
                              threads);
                    ASSERT_EQ(top.size(), 6u);
                    for (std::size_t i = 0; i < top.size(); ++i) {
                        EXPECT_EQ(top[i].index, i)
                            << "shards " << shards << " threads "
                            << threads;
                        EXPECT_EQ(top[i].distance, dist);
                    }
                }
            }
        }
    }
}

} // namespace
