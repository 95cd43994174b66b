/**
 * @file
 * Oracle suite for the bound-pruned scan.
 *
 * nearest()/topK() must match an independent per-row oracle --
 * winner indices, distances and the lowest-index tie rule -- under
 * every scan policy, on 53 rows with duplicates, skewed and uniform
 * queries, and a store whose rows are all identical. (The suite is
 * named for the row shards it also ran over when the store had
 * them.)
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
using hdham::PruneMode;
using hdham::RowMatch;
using hdham::Rng;
using hdham::ScanPolicy;

constexpr std::size_t kDim = 1024;
constexpr std::size_t kRows = 53;
constexpr std::size_t kCascade = 128;

/** Policies spanning exhaustive, abandon-only and cascade scans. */
std::vector<ScanPolicy>
scanPolicies()
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
 * duplicate rows for ties, most queries near a stored prototype).
 */
struct ScanWorkload
{
    PackedRows rows;
    std::vector<Hypervector> queries;

    ScanWorkload() : rows(kDim)
    {
        Rng rng(0x5AAD);
        std::vector<Hypervector> stored;
        for (std::size_t r = 0; r < kRows; ++r) {
            if (r >= 2 && r % 5 == 0)
                stored.push_back(stored[r - 2]); // exact duplicate
            else
                stored.push_back(Hypervector::random(kDim, rng));
            rows.append(stored.back());
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

const ScanWorkload &
workload()
{
    static const ScanWorkload w;
    return w;
}

TEST(ShardedScanTest, NearestMatchesUnshardedExhaustiveOracle)
{
    const ScanWorkload &w = workload();
    for (const Hypervector &query : w.queries) {
        // First row attaining the minimum per-row distance:
        // independent of the scan under test.
        std::size_t want = 0;
        std::size_t wantDist = w.rows.distance(0, query, kDim);
        for (std::size_t r = 1; r < kRows; ++r) {
            const std::size_t d = w.rows.distance(r, query, kDim);
            if (d < wantDist) {
                want = r;
                wantDist = d;
            }
        }
        for (const ScanPolicy &policy : scanPolicies()) {
            std::size_t gotDist = 0;
            const std::size_t got =
                w.rows.nearest(query, kDim, policy, nullptr, &gotDist);
            EXPECT_EQ(got, want)
                << "cascade " << policy.cascadePrefix;
            EXPECT_EQ(gotDist, wantDist)
                << "cascade " << policy.cascadePrefix;
        }
    }
}

TEST(ShardedScanTest, TopKMatchesSortOracle)
{
    const ScanWorkload &w = workload();
    for (const Hypervector &query : w.queries) {
        std::vector<RowMatch> oracle;
        for (std::size_t r = 0; r < kRows; ++r)
            oracle.push_back({r, w.rows.distance(r, query, kDim)});
        std::stable_sort(oracle.begin(), oracle.end(),
                         [](const RowMatch &a, const RowMatch &b) {
                             return a.distance != b.distance
                                        ? a.distance < b.distance
                                        : a.index < b.index;
                         });
        for (const std::size_t k :
             {std::size_t{0}, std::size_t{1}, std::size_t{5}, kRows,
              kRows + 3}) {
            const std::size_t kk = std::min(k, kRows);
            for (const ScanPolicy &policy : scanPolicies()) {
                std::vector<RowMatch> got;
                w.rows.topK(query, kDim, k, policy, nullptr, got);
                ASSERT_EQ(got.size(), kk) << "k " << k;
                for (std::size_t i = 0; i < kk; ++i) {
                    EXPECT_EQ(got[i].index, oracle[i].index)
                        << "cascade " << policy.cascadePrefix
                        << " k " << k << " rank " << i;
                    EXPECT_EQ(got[i].distance, oracle[i].distance)
                        << "k " << k << " rank " << i;
                }
            }
        }
    }
}

TEST(ShardedScanTest, AllRowsIdenticalTiesResolveToRowZero)
{
    // Every row ties: the strict-improvement rule must keep the
    // lowest index, never a later equal-distance row.
    Rng rng(33);
    PackedRows rows(kDim);
    const Hypervector proto = Hypervector::random(kDim, rng);
    for (std::size_t r = 0; r < 24; ++r)
        rows.append(proto);
    Hypervector query = proto;
    query.injectErrors(kDim / 10, rng);
    for (const ScanPolicy &policy : scanPolicies()) {
        std::size_t dist = 0;
        EXPECT_EQ(rows.nearest(query, kDim, policy, nullptr, &dist),
                  0u)
            << "cascade " << policy.cascadePrefix;
        std::vector<RowMatch> top;
        rows.topK(query, kDim, 6, policy, nullptr, top);
        ASSERT_EQ(top.size(), 6u);
        for (std::size_t i = 0; i < top.size(); ++i) {
            EXPECT_EQ(top[i].index, i)
                << "cascade " << policy.cascadePrefix;
            EXPECT_EQ(top[i].distance, dist);
        }
    }
}

} // namespace
