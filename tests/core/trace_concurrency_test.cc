/**
 * @file
 * Concurrency tests for span tracing: an 8-thread searchBatch under
 * an active tracer must record one batch span, one chunk span per
 * worker chunk across at least two distinct thread tracks, and
 * propagate the batch scope into every worker. Labeled tier1 so the
 * check-tsan / check-asan targets run it under the sanitizers.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/random.hh"
#include "core/trace.hh"

namespace
{

using namespace hdham;

/** This process's resident set (VmRSS) in KiB, or -1. */
long
vmRssKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stol(line.substr(6));
    }
    return -1;
}

TEST(TraceConcurrencyTest, BatchSearchSpansAcrossWorkers)
{
    constexpr std::size_t kDim = 512;
    constexpr std::size_t kClasses = 16;
    constexpr std::size_t kQueries = 64;
    constexpr std::size_t kThreads = 8;

    Rng rng(7);
    AssociativeMemory am(kDim);
    for (std::size_t c = 0; c < kClasses; ++c)
        am.store(Hypervector::random(kDim, rng));
    std::vector<Hypervector> queries;
    queries.reserve(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q)
        queries.push_back(Hypervector::random(kDim, rng));

    trace::Tracer tracer;
    trace::setActive(&tracer);
    am.searchBatch(queries, kThreads);
    trace::setActive(nullptr);

    EXPECT_EQ(tracer.droppedEvents(), 0u);

    trace::Event batchEvent;
    std::size_t batchCount = 0;
    std::vector<std::pair<std::uint32_t, trace::Event>> chunks;
    for (const auto &[track, event] : tracer.events()) {
        const std::string name = event.name;
        if (name == "am.batch") {
            batchEvent = event;
            ++batchCount;
        } else if (name == "am.chunk") {
            chunks.emplace_back(track, event);
        }
    }
    ASSERT_EQ(batchCount, 1u);
    ASSERT_EQ(chunks.size(), kThreads);

    // The batch opened a real scope and every chunk inherited it.
    EXPECT_NE(batchEvent.scope, 0u);
    std::set<std::uint32_t> tracks;
    for (const auto &[track, chunk] : chunks) {
        tracks.insert(track);
        EXPECT_EQ(chunk.scope, batchEvent.scope);
        // Chunks run inside the batch span's lifetime.
        EXPECT_GE(chunk.startUs, batchEvent.startUs);
        EXPECT_LE(chunk.startUs + chunk.durUs,
                  batchEvent.startUs + batchEvent.durUs + 1e-6);
    }
    EXPECT_GE(tracks.size(), 2u);
    EXPECT_EQ(tracer.threadsSeen(), kThreads);

    // Worker-thread chunks are scope members, not children of the
    // caller's span stack: their depth restarts at 0. The caller's
    // own chunk nests under the batch span (depth 1).
    for (const auto &[track, chunk] : chunks)
        EXPECT_LE(chunk.depth, 1u);
}

TEST(TraceConcurrencyTest, RepeatedBatchesReuseThreadCaches)
{
    constexpr std::size_t kDim = 256;
    Rng rng(21);
    AssociativeMemory am(kDim);
    for (std::size_t c = 0; c < 8; ++c)
        am.store(Hypervector::random(kDim, rng));
    std::vector<Hypervector> queries;
    for (std::size_t q = 0; q < 32; ++q)
        queries.push_back(Hypervector::random(kDim, rng));

    trace::Tracer tracer;
    trace::setActive(&tracer);
    for (int round = 0; round < 4; ++round)
        am.searchBatch(queries, 4);
    trace::setActive(nullptr);

    std::size_t batches = 0;
    std::set<std::uint64_t> scopes;
    for (const auto &[track, event] : tracer.events()) {
        if (std::string(event.name) == "am.batch") {
            ++batches;
            scopes.insert(event.scope);
        }
    }
    EXPECT_EQ(batches, 4u);
    // Each batch ran under its own scope.
    EXPECT_EQ(scopes.size(), 4u);
}

TEST(TraceConcurrencyTest, ForkedWorkerBatchesStayBounded)
{
    // Two queries at four threads split into two chunks: the caller
    // runs one and a forked worker the other, so every batch brings
    // the tracer a thread it has never seen. What tracing keeps must
    // follow the spans stored, not the threads seen.
    constexpr std::size_t kDim = 256;
    constexpr std::size_t kBatches = 50;
    Rng rng(33);
    AssociativeMemory am(kDim);
    for (std::size_t c = 0; c < 8; ++c)
        am.store(Hypervector::random(kDim, rng));
    const std::vector<Hypervector> queries{
        Hypervector::random(kDim, rng), Hypervector::random(kDim, rng)};
    // An untraced warm-up leaves a worker's stack and malloc arena
    // cached for the traced batches to reuse.
    am.searchBatch(queries, 4);

    trace::Tracer tracer;
    const long before = vmRssKib();
    ASSERT_GT(before, 0);
    trace::setActive(&tracer);
    for (std::size_t b = 0; b < kBatches; ++b)
        am.searchBatch(queries, 4);
    trace::setActive(nullptr);
    EXPECT_LT(vmRssKib() - before, 32 * 1024);

    // One am.batch and two am.chunk spans per batch, on the caller
    // and one worker per batch.
    EXPECT_EQ(tracer.eventCount(), 3 * kBatches);
    EXPECT_EQ(tracer.droppedEvents(), 0u);
    EXPECT_EQ(tracer.threadsSeen(), kBatches + 1);
}

} // namespace
