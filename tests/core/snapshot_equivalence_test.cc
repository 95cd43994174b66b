/**
 * @file
 * Snapshot bit-identity suite: the refactored read path must be
 * indistinguishable from the pre-refactor direct-engine path.
 *
 * Queries served through a pinned MemorySnapshot (published via
 * SnapshotBuilder -> SnapshotSource) return the same winners,
 * distances, rankings AND the same metrics counters as an
 * AssociativeMemory driven directly, at every batch worker count --
 * the snapshot layer adds ownership semantics, never different
 * arithmetic. Runs once under the ambient kernel and once
 * pinned to the scalar reference (see tests/CMakeLists.txt), like
 * the other equivalence gates.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "core/model_file.hh"
#include "core/model_loader.hh"
#include "core/random.hh"
#include "core/snapshot.hh"
#include "ham/d_ham.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::RankedMatch;
using hdham::Rng;
using hdham::SearchResult;
using hdham::metrics::QueryMetrics;
using hdham::snapshot::MemorySnapshot;
using hdham::snapshot::SnapshotBuilder;
using hdham::snapshot::SnapshotRef;
using hdham::snapshot::SnapshotSource;

constexpr std::size_t kDim = 1024;
constexpr std::size_t kClasses = 53;
constexpr std::size_t kQueries = 24;
constexpr std::size_t kTopK = 5;

AssociativeMemory
testMemory()
{
    Rng rng(0x657176ULL);
    AssociativeMemory am(kDim);
    for (std::size_t i = 0; i < kClasses; ++i)
        am.store(Hypervector::random(kDim, rng),
                 "lang" + std::to_string(i));
    return am;
}

std::vector<Hypervector>
testQueries()
{
    // Mix of pure-random queries and near-duplicates of stored rows
    // (near hits make pruning bounds actually bite).
    Rng rng(0x717279ULL);
    const AssociativeMemory am = testMemory();
    std::vector<Hypervector> queries;
    for (std::size_t q = 0; q < kQueries; ++q) {
        if (q % 2 == 0) {
            queries.push_back(Hypervector::random(kDim, rng));
        } else {
            const Hypervector row = am.vectorOf(q % kClasses);
            std::vector<std::uint64_t> words(
                row.data(), row.data() + row.words());
            words[q % words.size()] ^= 0xF0F0ULL;
            queries.push_back(
                Hypervector::fromWords(kDim, words.data()));
        }
    }
    return queries;
}

/** Every counter pair of two QueryMetrics, for exact comparison. */
std::vector<std::pair<std::string, std::uint64_t>>
counterValues(const QueryMetrics &m)
{
    return {
        {"queries", m.queries.value()},
        {"batches", m.batches.value()},
        {"rowsScanned", m.rowsScanned.value()},
    };
}

/** Pin a published snapshot built from `testMemory()`. */
SnapshotRef
publishTestSnapshot(SnapshotSource &source, QueryMetrics *sink)
{
    SnapshotBuilder builder(
        *MemorySnapshot::fromMemory(testMemory()));
    builder.attachMetrics(sink);
    builder.publish(source);
    return source.acquire();
}

TEST(SnapshotEquivalenceTest, MatchesDirectEngineAcrossGrid)
{
    const std::vector<Hypervector> queries = testQueries();
    for (const std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));

        // Direct pre-refactor path: a mutable memory configured in
        // place.
        QueryMetrics directSink;
        AssociativeMemory direct = testMemory();
        direct.attachMetrics(&directSink);

        // Snapshot path: builder -> publish -> pin.
        QueryMetrics snapSink;
        SnapshotSource source;
        const SnapshotRef pinned = publishTestSnapshot(source, &snapSink);
        ASSERT_TRUE(static_cast<bool>(pinned));

        for (const Hypervector &query : queries) {
            const SearchResult want = direct.search(query);
            const SearchResult got =
                pinned->memory().search(query);
            EXPECT_EQ(got.classId, want.classId);
            EXPECT_EQ(got.bestDistance, want.bestDistance);

            const std::vector<RankedMatch> wantK =
                direct.searchTopK(query, kTopK);
            const std::vector<RankedMatch> gotK =
                pinned->memory().searchTopK(query, kTopK);
            ASSERT_EQ(gotK.size(), wantK.size());
            for (std::size_t i = 0; i < wantK.size(); ++i) {
                EXPECT_EQ(gotK[i].classId, wantK[i].classId);
                EXPECT_EQ(gotK[i].distance, wantK[i].distance);
            }
        }

        // Batched path.
        const auto wantBatch = direct.searchBatch(queries, threads);
        const auto gotBatch =
            pinned->memory().searchBatch(queries, threads);
        ASSERT_EQ(gotBatch.size(), wantBatch.size());
        for (std::size_t i = 0; i < wantBatch.size(); ++i) {
            EXPECT_EQ(gotBatch[i].classId, wantBatch[i].classId);
            EXPECT_EQ(gotBatch[i].bestDistance,
                      wantBatch[i].bestDistance);
        }

        // The serving counters -- scanned, query and batch totals --
        // must agree exactly, not just the answers.
        const auto want = counterValues(directSink);
        const auto got = counterValues(snapSink);
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].second, want[i].second)
                << "counter " << want[i].first;
        }
    }
}

TEST(SnapshotEquivalenceTest, MappedModelMatchesDirectEngine)
{
    const std::string path =
        ::testing::TempDir() + std::to_string(::getpid()) +
        "_snapshot_equiv_model.hdc";
    const AssociativeMemory original = testMemory();
    hdham::modelfile::save(path, original);

    SnapshotSource source;
    source.publish(
        hdham::modelload::LoadedModel::open(path).intoSnapshot());
    const SnapshotRef pinned = source.acquire();
    EXPECT_TRUE(pinned->mapped());

    const AssociativeMemory direct = testMemory();

    for (const Hypervector &query : testQueries()) {
        const SearchResult want = direct.search(query);
        const SearchResult got = pinned->memory().search(query);
        EXPECT_EQ(got.classId, want.classId);
        EXPECT_EQ(got.bestDistance, want.bestDistance);
    }
    std::remove(path.c_str());
}

TEST(SnapshotEquivalenceTest, BoundDesignMatchesDirectLoad)
{
    // The HAM read path takes a snapshot handle: a design bound via
    // bindSnapshot must serve exactly like one loaded from the same
    // memory directly.
    SnapshotSource source;
    source.publish(MemorySnapshot::fromMemory(testMemory()));

    hdham::ham::DHamConfig cfg;
    cfg.dim = kDim;
    hdham::ham::DHam bound(cfg);
    bound.bindSnapshot(source.acquire());
    EXPECT_EQ(bound.boundSequence(), 1u);

    hdham::ham::DHam direct(cfg);
    const AssociativeMemory reference = testMemory();
    direct.loadFrom(reference);
    EXPECT_EQ(direct.boundSequence(), 0u);

    for (const Hypervector &query : testQueries()) {
        const auto want = direct.search(query);
        const auto got = bound.search(query);
        EXPECT_EQ(got.classId, want.classId);
        EXPECT_EQ(got.reportedDistance, want.reportedDistance);
    }

    // Binding twice, or binding an empty ref, is a usage error.
    EXPECT_THROW(bound.bindSnapshot(source.acquire()),
                 std::logic_error);
    hdham::ham::DHam fresh(cfg);
    EXPECT_THROW(fresh.bindSnapshot(SnapshotRef()),
                 std::logic_error);
}

} // namespace
