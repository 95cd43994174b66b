/**
 * @file
 * Randomized cross-module consistency checks: many random shapes
 * and seeds, asserting the invariants that tie the layers together
 * (noise-free hardware == software oracle; algebra identities at
 * arbitrary dimensionalities; hdham.model.v1 save -> mmap round-trips
 * of arbitrary contents).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "core/assoc_memory.hh"
#include "core/model_file.hh"
#include "core/ops.hh"
#include "ham/a_ham.hh"
#include "ham/d_ham.hh"
#include "ham/r_ham.hh"

namespace
{

using hdham::AssociativeMemory;
using hdham::Hypervector;
using hdham::Rng;

class FuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    Rng rng{GetParam() * 0x9e3779b9ULL + 1};

    std::size_t
    randomDim()
    {
        // Mix of awkward (non-word-aligned) and realistic sizes.
        static constexpr std::size_t choices[] = {
            65, 127, 200, 333, 512, 1000, 2048, 4096,
        };
        return choices[rng.nextBelow(std::size(choices))];
    }
};

TEST_P(FuzzTest, AlgebraIdentitiesHoldAtRandomShapes)
{
    const std::size_t dim = randomDim();
    const Hypervector a = Hypervector::random(dim, rng);
    const Hypervector b = Hypervector::random(dim, rng);
    const Hypervector c = Hypervector::random(dim, rng);
    const std::size_t amount = 1 + rng.nextBelow(dim);

    EXPECT_EQ(hdham::bind(hdham::bind(a, b), b), a);
    EXPECT_EQ(hdham::bind(a, b), hdham::bind(b, a));
    EXPECT_EQ(hdham::permute(hdham::bind(a, c), amount),
              hdham::bind(hdham::permute(a, amount),
                          hdham::permute(c, amount)));
    EXPECT_EQ(hdham::permute(a, amount).hamming(
                  hdham::permute(b, amount)),
              a.hamming(b));
    EXPECT_LE(a.hamming(c), a.hamming(b) + b.hamming(c));
}

TEST_P(FuzzTest, DhamAlwaysMatchesOracle)
{
    const std::size_t dim = randomDim();
    const std::size_t classes = 2 + rng.nextBelow(30);
    AssociativeMemory oracle(dim);
    hdham::ham::DHamConfig cfg;
    cfg.dim = dim;
    hdham::ham::DHam ham(cfg);
    for (std::size_t c = 0; c < classes; ++c)
        oracle.store(Hypervector::random(dim, rng));
    ham.loadFrom(oracle);
    for (int q = 0; q < 10; ++q) {
        const Hypervector query = Hypervector::random(dim, rng);
        const auto expect = oracle.search(query);
        const auto got = ham.search(query);
        EXPECT_EQ(got.classId, expect.classId);
        EXPECT_EQ(got.reportedDistance, expect.bestDistance);
    }
}

TEST_P(FuzzTest, QuietRhamFindsNearRowQueries)
{
    // Word-aligned dims for the crossbar blocks.
    const std::size_t dim = 64 * (4 + rng.nextBelow(60));
    const std::size_t classes = 2 + rng.nextBelow(20);
    hdham::ham::RHamConfig cfg;
    cfg.dim = dim;
    hdham::ham::RHam ham(cfg);
    std::vector<Hypervector> rows;
    for (std::size_t c = 0; c < classes; ++c) {
        rows.push_back(Hypervector::random(dim, rng));
        ham.store(rows.back());
    }
    const std::size_t target = rng.nextBelow(classes);
    Hypervector query = rows[target];
    query.injectErrors(dim / 10, rng);
    EXPECT_EQ(ham.search(query).classId, target);
}

TEST_P(FuzzTest, QuietAhamFindsNearRowQueries)
{
    const std::size_t dim = randomDim();
    const std::size_t classes = 2 + rng.nextBelow(20);
    hdham::ham::AHamConfig cfg;
    cfg.dim = dim;
    hdham::ham::AHam ham(cfg);
    std::vector<Hypervector> rows;
    for (std::size_t c = 0; c < classes; ++c) {
        rows.push_back(Hypervector::random(dim, rng));
        ham.store(rows.back());
    }
    const std::size_t target = rng.nextBelow(classes);
    Hypervector query = rows[target];
    query.injectErrors(dim / 20, rng);
    EXPECT_EQ(ham.search(query).classId, target);
}

TEST_P(FuzzTest, SerializationRoundTripsArbitraryContents)
{
    const std::size_t dim = randomDim();
    const std::size_t classes = 1 + rng.nextBelow(10);
    AssociativeMemory am(dim);
    for (std::size_t c = 0; c < classes; ++c) {
        std::string label(rng.nextBelow(20), 'x');
        for (auto &ch : label)
            ch = static_cast<char>('a' + rng.nextBelow(26));
        am.store(Hypervector::random(dim, rng), label);
    }
    const std::string path = ::testing::TempDir() +
                             std::to_string(::getpid()) + "_fuzz_" +
                             std::to_string(GetParam()) + ".hdc";
    hdham::modelfile::save(path, am);
    const hdham::modelfile::ModelView view(path);
    std::remove(path.c_str()); // the mapping outlives the name
    const AssociativeMemory &loaded = view.memory();
    ASSERT_EQ(loaded.dim(), am.dim());
    ASSERT_EQ(loaded.size(), am.size());
    for (std::size_t c = 0; c < classes; ++c) {
        EXPECT_EQ(loaded.vectorOf(c), am.vectorOf(c));
        EXPECT_EQ(loaded.labelOf(c), am.labelOf(c));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range<std::uint64_t>(1, 21));

} // namespace
