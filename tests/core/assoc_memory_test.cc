/**
 * @file
 * Unit tests for the exact software associative memory.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/assoc_memory.hh"
#include "core/hypervector.hh"
#include "core/random.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::Rng;

TEST(AssocMemoryTest, StoreAssignsSequentialIds)
{
    AssociativeMemory am(64);
    Rng rng(1);
    EXPECT_EQ(am.store(Hypervector::random(64, rng), "a"), 0u);
    EXPECT_EQ(am.store(Hypervector::random(64, rng), "b"), 1u);
    EXPECT_EQ(am.size(), 2u);
    EXPECT_EQ(am.labelOf(0), "a");
    EXPECT_EQ(am.labelOf(1), "b");
}

TEST(AssocMemoryTest, StoreRejectsWrongDimension)
{
    AssociativeMemory am(64);
    Rng rng(2);
    EXPECT_THROW(am.store(Hypervector::random(65, rng)),
                 std::invalid_argument);
}

TEST(AssocMemoryTest, SearchRejectsWrongDimension)
{
    // Every search path checks the query before reading a row: a
    // 64-bit query against 10,000-bit rows would otherwise be read
    // ~156 words past its end.
    AssociativeMemory am(10000);
    Rng rng(4);
    am.store(Hypervector::random(10000, rng));
    const Hypervector query = Hypervector::random(64, rng);
    const auto expectRejected = [](const auto &search,
                                   const char *what) {
        try {
            search();
            ADD_FAILURE() << what << " took a 64-bit query";
        } catch (const std::invalid_argument &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string(what) +
                          ": query dimension 64 does not match the "
                          "stored dimension 10000");
        }
    };
    expectRejected([&] { am.search(query); },
                   "AssociativeMemory::searchSampled");
    expectRejected([&] { am.searchSampled(query, 64); },
                   "AssociativeMemory::searchSampled");
    expectRejected([&] { am.searchDetailed(query); },
                   "AssociativeMemory::searchDetailed");
    expectRejected([&] { am.searchBatch({am.vectorOf(0), query}); },
                   "AssociativeMemory::searchBatch");
    expectRejected([&] { am.searchTopK(query, 1); },
                   "AssociativeMemory::searchTopK");
    // Nor may a sampled search's prefix run past the rows.
    try {
        am.searchSampled(am.vectorOf(0), 10001);
        ADD_FAILURE() << "searchSampled took a 10001-bit prefix";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()),
                  "AssociativeMemory::searchSampled: prefix 10001 "
                  "exceeds the stored dimension 10000");
    }
}

TEST(AssocMemoryTest, EmptySearchThrows)
{
    AssociativeMemory am(64);
    Rng rng(3);
    EXPECT_THROW(am.search(Hypervector::random(64, rng)),
                 std::logic_error);
}

TEST(AssocMemoryTest, FindsExactMatch)
{
    AssociativeMemory am(256);
    Rng rng(4);
    std::vector<Hypervector> stored;
    for (int i = 0; i < 8; ++i) {
        stored.push_back(Hypervector::random(256, rng));
        am.store(stored.back());
    }
    for (std::size_t i = 0; i < stored.size(); ++i) {
        const auto result = am.search(stored[i]);
        EXPECT_EQ(result.classId, i);
        EXPECT_EQ(result.bestDistance, 0u);
    }
}

TEST(AssocMemoryTest, FindsNearestUnderNoise)
{
    AssociativeMemory am(1024);
    Rng rng(5);
    std::vector<Hypervector> stored;
    for (int i = 0; i < 10; ++i) {
        stored.push_back(Hypervector::random(1024, rng));
        am.store(stored.back());
    }
    for (std::size_t i = 0; i < stored.size(); ++i) {
        Hypervector noisy = stored[i];
        noisy.injectErrors(100, rng); // well under D/4 margin
        const auto result = am.search(noisy);
        EXPECT_EQ(result.classId, i);
        EXPECT_EQ(result.bestDistance, 100u);
    }
}

TEST(AssocMemoryTest, DetailedDistancesVectorIsComplete)
{
    AssociativeMemory am(128);
    Rng rng(6);
    std::vector<Hypervector> stored;
    for (int i = 0; i < 5; ++i) {
        stored.push_back(Hypervector::random(128, rng));
        am.store(stored.back());
    }
    const Hypervector query = Hypervector::random(128, rng);
    const auto result = am.searchDetailed(query);
    ASSERT_EQ(result.distances.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(result.distances[i], stored[i].hamming(query));
}

TEST(AssocMemoryTest, FastSearchLeavesDistancesEmpty)
{
    AssociativeMemory am(128);
    Rng rng(6);
    for (int i = 0; i < 5; ++i)
        am.store(Hypervector::random(128, rng));
    const Hypervector query = Hypervector::random(128, rng);
    EXPECT_TRUE(am.search(query).distances.empty());

    const auto detailed = am.searchDetailed(query);
    EXPECT_EQ(am.search(query).classId, detailed.classId);
    EXPECT_EQ(am.search(query).bestDistance, detailed.bestDistance);
}

TEST(AssocMemoryTest, BatchSearchMatchesSequential)
{
    AssociativeMemory am(512);
    Rng rng(9);
    for (int i = 0; i < 12; ++i)
        am.store(Hypervector::random(512, rng));
    std::vector<Hypervector> queries;
    for (int q = 0; q < 33; ++q)
        queries.push_back(Hypervector::random(512, rng));

    const auto batch1 = am.searchBatch(queries, 1);
    ASSERT_EQ(batch1.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto sequential = am.search(queries[q]);
        EXPECT_EQ(batch1[q].classId, sequential.classId);
        EXPECT_EQ(batch1[q].bestDistance, sequential.bestDistance);
    }

    for (const std::size_t threads : {2u, 8u, 0u}) {
        const auto batchN = am.searchBatch(queries, threads);
        ASSERT_EQ(batchN.size(), queries.size());
        for (std::size_t q = 0; q < queries.size(); ++q) {
            EXPECT_EQ(batchN[q].classId, batch1[q].classId);
            EXPECT_EQ(batchN[q].bestDistance,
                      batch1[q].bestDistance);
        }
    }
}

TEST(AssocMemoryTest, BatchSearchOnEmptyMemoryThrows)
{
    AssociativeMemory am(64);
    Rng rng(10);
    const std::vector<Hypervector> queries{
        Hypervector::random(64, rng)};
    EXPECT_THROW(am.searchBatch(queries), std::logic_error);
}

TEST(AssocMemoryTest, TiesResolveToLowestId)
{
    AssociativeMemory am(8);
    am.store(Hypervector::fromString("00000000"));
    am.store(Hypervector::fromString("00000000"));
    const auto result =
        am.search(Hypervector::fromString("10000000"));
    EXPECT_EQ(result.classId, 0u);
}

TEST(AssocMemoryTest, SampledSearchUsesPrefixOnly)
{
    AssociativeMemory am(16);
    // Rows differ from the query only in the tail.
    am.store(Hypervector::fromString("0000000011111111"));
    am.store(Hypervector::fromString("1000000000000000"));
    const Hypervector query(16);
    // Full search: row 1 (distance 1) beats row 0 (distance 8).
    EXPECT_EQ(am.search(query).classId, 1u);
    // Prefix-8 search: row 0 has distance 0, row 1 distance 1.
    EXPECT_EQ(am.searchSampled(query, 8).classId, 0u);
}

TEST(AssocMemoryTest, SampledDistanceIsUnbiasedEstimate)
{
    // E[(D/d) * delta_prefix] == delta for i.i.d. components.
    Rng rng(7);
    const std::size_t dim = 10000, prefix = 5000;
    double scaledSum = 0.0, fullSum = 0.0;
    const int trials = 50;
    for (int t = 0; t < trials; ++t) {
        Hypervector a = Hypervector::random(dim, rng);
        Hypervector b = Hypervector::random(dim, rng);
        scaledSum += 2.0 * a.hammingPrefix(b, prefix);
        fullSum += a.hamming(b);
    }
    EXPECT_NEAR(scaledSum / trials, fullSum / trials,
                0.02 * fullSum / trials);
}

TEST(AssocMemoryTest, MinPairwiseDistance)
{
    AssociativeMemory am(8);
    am.store(Hypervector::fromString("00000000"));
    am.store(Hypervector::fromString("00000111"));
    am.store(Hypervector::fromString("11111111"));
    EXPECT_EQ(am.minPairwiseDistance(), 3u);
}

TEST(AssocMemoryTest, VectorOfReturnsStored)
{
    AssociativeMemory am(32);
    Rng rng(8);
    const Hypervector hv = Hypervector::random(32, rng);
    am.store(hv);
    EXPECT_EQ(am.vectorOf(0), hv);
}

} // namespace
