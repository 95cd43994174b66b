/**
 * @file
 * Train-while-serve soak: 8 reader threads hammer a SnapshotSource
 * with mixed nearest/top-k queries while a writer publishes a
 * sequence of grown snapshots through a SnapshotBuilder.
 *
 * The assertions are the serving contract itself:
 *  - every query batch observes exactly one coherent snapshot (all
 *    results inside one pin match the expectation table of that
 *    pin's sequence number -- never a mix of generations);
 *  - sequence numbers are monotone per reader (a later acquire never
 *    sees an older snapshot);
 *  - retired snapshots are freed once the last reader drops its pin
 *    (liveSnapshots returns to baseline + 1).
 *
 * Expectations per generation are precomputed single-threaded from
 * identical builder products, so any cross-thread tearing, torn
 * swap, or use-after-retire shows up as a wrong answer here -- and
 * as a data-race report under the check-tsan build, which runs this
 * suite via its tier1 label.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/random.hh"
#include "core/snapshot.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::RankedMatch;
using hdham::Rng;
using hdham::snapshot::MemorySnapshot;
using hdham::snapshot::SnapshotBuilder;
using hdham::snapshot::SnapshotRef;
using hdham::snapshot::SnapshotSource;

constexpr std::size_t kDim = 512;
constexpr std::size_t kBaseClasses = 8;
constexpr std::size_t kGenerations = 4; // >= 2 swaps after the first
constexpr std::size_t kQueries = 8;
constexpr std::size_t kReaders = 8;
constexpr std::size_t kTopK = 3;
constexpr int kReaderIters = 400;

/** Expected answers for one published generation. */
struct Expected
{
    std::vector<std::size_t> nearestId;
    std::vector<std::size_t> nearestDist;
    std::vector<std::vector<RankedMatch>> topK;
};

/**
 * Drive @p builder through generation @p gen (1-based): generation 1
 * is the base model, each later generation adds one class. The same
 * deterministic stream builds the soak's published snapshots and the
 * single-threaded expectation table.
 */
void
growToGeneration(SnapshotBuilder &builder, std::size_t gen)
{
    if (gen == 1) {
        Rng rng(0x736f616bULL);
        for (std::size_t c = 0; c < kBaseClasses; ++c) {
            builder.addClass("base" + std::to_string(c));
            builder.addSample(c, Hypervector::random(kDim, rng));
        }
        return;
    }
    Rng rng(0x736f616bULL + gen);
    const std::size_t id =
        builder.addClass("gen" + std::to_string(gen));
    builder.addSample(id, Hypervector::random(kDim, rng));
    builder.addSample(id, Hypervector::random(kDim, rng));
    builder.addSample(id, Hypervector::random(kDim, rng));
}

std::vector<Hypervector>
soakQueries()
{
    Rng rng(0x71736f616bULL);
    std::vector<Hypervector> queries;
    for (std::size_t q = 0; q < kQueries; ++q)
        queries.push_back(Hypervector::random(kDim, rng));
    return queries;
}

Expected
expectationsFor(const MemorySnapshot &snap,
                const std::vector<Hypervector> &queries)
{
    Expected e;
    for (const Hypervector &query : queries) {
        const auto r = snap.memory().search(query);
        e.nearestId.push_back(r.classId);
        e.nearestDist.push_back(r.bestDistance);
        e.topK.push_back(snap.memory().searchTopK(query, kTopK));
    }
    return e;
}

TEST(SnapshotSoakTest, ReadersObserveCoherentSnapshotsAcrossSwaps)
{
    const std::size_t baseline = SnapshotSource::liveSnapshots();
    const std::vector<Hypervector> queries = soakQueries();

    // Expectation table, generation g at index g-1, computed from a
    // twin builder before any concurrency starts.
    std::vector<Expected> expected;
    {
        SnapshotBuilder twin(kDim);
        for (std::size_t gen = 1; gen <= kGenerations; ++gen) {
            growToGeneration(twin, gen);
            expected.push_back(
                expectationsFor(*twin.build(), queries));
        }
    }

    SnapshotSource source;
    SnapshotBuilder builder(kDim);
    growToGeneration(builder, 1);
    ASSERT_EQ(builder.publish(source), 1u);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> generationsSeen{0};

    auto readerBody = [&](std::size_t readerIdx) {
        std::uint64_t lastSeq = 0;
        std::uint64_t seenMask = 0;
        bool lastRound = false;
        // Run at least kReaderIters, then keep reading until the
        // final generation is observed (bounded by the failsafe so a
        // broken publish cannot hang the suite). A reader that sees
        // `stop` acquires once more before it quits: the writer sets
        // `stop` after its final publish, so that acquire pins the
        // final generation even if this reader missed it so far.
        for (int iter = 0; iter < 1000000; ++iter) {
            if (iter >= kReaderIters) {
                if (lastSeq == kGenerations || lastRound)
                    break;
                lastRound = stop.load();
            }
            const SnapshotRef pin = source.acquire();
            if (!pin) {
                ++failures;
                continue;
            }
            const std::uint64_t seq = pin->sequence();
            if (seq < lastSeq || seq == 0 ||
                seq > kGenerations) {
                ++failures;
                continue;
            }
            lastSeq = seq;
            seenMask |= std::uint64_t(1) << seq;
            const Expected &want = expected[seq - 1];
            // Mixed workload: every reader alternates nearest and
            // top-k, offset by its index so the interleavings vary.
            const std::size_t q =
                (static_cast<std::size_t>(iter) + readerIdx) %
                kQueries;
            if ((iter + readerIdx) % 2 == 0) {
                const auto r = pin->memory().search(queries[q]);
                if (r.classId != want.nearestId[q] ||
                    r.bestDistance != want.nearestDist[q])
                    ++failures;
            } else {
                const auto ranked =
                    pin->memory().searchTopK(queries[q], kTopK);
                if (ranked.size() != want.topK[q].size()) {
                    ++failures;
                } else {
                    for (std::size_t i = 0; i < ranked.size();
                         ++i) {
                        if (ranked[i].classId !=
                                want.topK[q][i].classId ||
                            ranked[i].distance !=
                                want.topK[q][i].distance)
                            ++failures;
                    }
                }
            }
        }
        generationsSeen.fetch_or(seenMask);
    };

    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < kReaders; ++r)
        readers.emplace_back(readerBody, r);

    // Writer: publish the remaining generations while the readers
    // run. A yield between swaps lets readers actually land on the
    // intermediate generations on single-CPU hosts.
    for (std::size_t gen = 2; gen <= kGenerations; ++gen) {
        growToGeneration(builder, gen);
        EXPECT_EQ(builder.publish(source), gen);
        for (int spin = 0; spin < 50; ++spin)
            std::this_thread::yield();
    }

    stop.store(true); // failsafe release if a publish failed above
    for (std::thread &t : readers)
        t.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(source.swaps(), kGenerations);
    // Every reader finished; only the current head may stay alive.
    EXPECT_EQ(SnapshotSource::liveSnapshots(), baseline + 1);
    // The readers collectively saw the final generation at least
    // (and on most schedules several intermediate ones).
    EXPECT_NE(generationsSeen.load() &
                  (std::uint64_t(1) << kGenerations),
              0u);
}

TEST(SnapshotSoakTest, PinnedReaderSurvivesManySwapsMidBatch)
{
    const std::size_t baseline = SnapshotSource::liveSnapshots();
    const std::vector<Hypervector> queries = soakQueries();

    SnapshotSource source;
    SnapshotBuilder builder(kDim);
    growToGeneration(builder, 1);
    builder.publish(source);

    SnapshotRef pin = source.acquire();
    const Expected want = expectationsFor(*pin, queries);

    // A reader holding its pin across an entire writer burst must
    // keep seeing generation 1 answers, bit for bit.
    std::thread writer([&] {
        for (std::size_t gen = 2; gen <= kGenerations; ++gen) {
            growToGeneration(builder, gen);
            builder.publish(source);
        }
    });
    for (int round = 0; round < 200; ++round) {
        const std::size_t q = round % kQueries;
        const auto r = pin->memory().search(queries[q]);
        EXPECT_EQ(r.classId, want.nearestId[q]);
        EXPECT_EQ(r.bestDistance, want.nearestDist[q]);
    }
    writer.join();

    EXPECT_EQ(pin->sequence(), 1u);
    EXPECT_GT(SnapshotSource::liveSnapshots(), baseline + 1);
    pin.reset();
    EXPECT_EQ(SnapshotSource::liveSnapshots(), baseline + 1);
}

} // namespace
