/**
 * @file
 * Unit tests for the dense row store.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/packed_rows.hh"
#include "core/random.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::PackedRows;
using hdham::Rng;

TEST(PackedRowsTest, RejectsZeroDimension)
{
    EXPECT_THROW(PackedRows{0}, std::invalid_argument);
}

TEST(PackedRowsTest, AppendAssignsSequentialIndices)
{
    PackedRows rows(128);
    Rng rng(1);
    EXPECT_EQ(rows.rows(), 0u);
    EXPECT_EQ(rows.append(Hypervector::random(128, rng)), 0u);
    EXPECT_EQ(rows.append(Hypervector::random(128, rng)), 1u);
    EXPECT_EQ(rows.rows(), 2u);
    EXPECT_EQ(rows.wordsPerRow(), 2u);
}

TEST(PackedRowsTest, AppendRejectsWrongDimension)
{
    PackedRows rows(128);
    Rng rng(2);
    EXPECT_THROW(rows.append(Hypervector::random(64, rng)),
                 std::invalid_argument);
}

TEST(PackedRowsTest, RowVectorRoundTrips)
{
    Rng rng(3);
    for (std::size_t dim : {64u, 100u, 130u, 1000u}) {
        PackedRows rows(dim);
        const Hypervector hv = Hypervector::random(dim, rng);
        rows.append(hv);
        EXPECT_EQ(rows.rowVector(0), hv) << "dim " << dim;
    }
}

TEST(PackedRowsTest, ReserveKeepsContentsExact)
{
    // reserve(), on an empty store and between appends, must never
    // disturb stored words or the append index sequence.
    const std::size_t dim = 1027;
    Rng rng(0x5E5E);
    PackedRows rows(dim);
    rows.reserve(64);
    std::vector<Hypervector> stored;
    for (std::size_t r = 0; r < 40; ++r) {
        if (r == 8)
            rows.reserve(32);
        stored.push_back(Hypervector::random(dim, rng));
        EXPECT_EQ(rows.append(stored.back()), r);
    }
    ASSERT_EQ(rows.rows(), stored.size());
    for (std::size_t r = 0; r < stored.size(); ++r) {
        EXPECT_EQ(rows.rowVector(r), stored[r]) << "row " << r;
        EXPECT_TRUE(std::equal(stored[r].data(),
                               stored[r].data() + rows.wordsPerRow(),
                               rows.data() + r * rows.wordsPerRow()))
            << "row " << r;
    }
}

TEST(PackedRowsTest, DistanceMatchesHypervector)
{
    Rng rng(4);
    for (std::size_t dim : {65u, 512u, 1000u}) {
        PackedRows rows(dim);
        std::vector<Hypervector> stored;
        for (int r = 0; r < 6; ++r) {
            stored.push_back(Hypervector::random(dim, rng));
            rows.append(stored.back());
        }
        const Hypervector query = Hypervector::random(dim, rng);
        for (std::size_t r = 0; r < stored.size(); ++r) {
            EXPECT_EQ(rows.distance(r, query, dim),
                      stored[r].hamming(query));
            const std::size_t prefix = dim / 3;
            EXPECT_EQ(rows.distance(r, query, prefix),
                      stored[r].hammingPrefix(query, prefix));
        }
    }
}

TEST(PackedRowsTest, DistancesFillsEveryRow)
{
    Rng rng(5);
    PackedRows rows(256);
    for (int r = 0; r < 9; ++r)
        rows.append(Hypervector::random(256, rng));
    const Hypervector query = Hypervector::random(256, rng);
    std::vector<std::size_t> out;
    rows.distances(query, 256, out);
    ASSERT_EQ(out.size(), 9u);
    for (std::size_t r = 0; r < 9; ++r)
        EXPECT_EQ(out[r], rows.distance(r, query, 256));
}

TEST(PackedRowsTest, NearestAgreesWithAssociativeMemory)
{
    Rng rng(6);
    const std::size_t dim = 1000;
    PackedRows rows(dim);
    AssociativeMemory oracle(dim);
    for (int r = 0; r < 21; ++r) {
        const Hypervector hv = Hypervector::random(dim, rng);
        rows.append(hv);
        oracle.store(hv);
    }
    for (int q = 0; q < 50; ++q) {
        const Hypervector query = Hypervector::random(dim, rng);
        std::size_t best = 0;
        const std::size_t winner =
            rows.nearest(query, dim, &best);
        const auto expect = oracle.search(query);
        EXPECT_EQ(winner, expect.classId);
        EXPECT_EQ(best, expect.bestDistance);
    }
}

TEST(PackedRowsTest, NearestOnEmptyThrows)
{
    PackedRows rows(64);
    Rng rng(7);
    EXPECT_THROW(rows.nearest(Hypervector::random(64, rng), 64),
                 std::logic_error);
}

TEST(PackedRowsTest, TiesResolveToLowestIndex)
{
    PackedRows rows(8);
    rows.append(Hypervector::fromString("00000001"));
    rows.append(Hypervector::fromString("00000010"));
    EXPECT_EQ(rows.nearest(Hypervector(8), 8), 0u);
}

} // namespace
