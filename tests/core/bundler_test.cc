/**
 * @file
 * Unit tests for the streaming majority accumulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bundler.hh"
#include "core/distance.hh"
#include "core/hypervector.hh"
#include "core/random.hh"

namespace
{

using hdham::Bundler;
using hdham::Hypervector;
using hdham::Rng;
namespace distance = hdham::distance;

/**
 * The reference the bit-sliced counters are checked against: one
 * ones-count per component and the majority rule as the paper states
 * it, ties drawn from the Rng in ascending component order.
 */
class Oracle
{
  public:
    explicit Oracle(std::size_t dim) : ones(dim, 0) {}

    std::uint64_t count() const { return added; }

    /** Add @p hv 2^@p shift times. */
    void
    add(const Hypervector &hv, unsigned shift = 0)
    {
        for (std::size_t i = 0; i < ones.size(); ++i)
            ones[i] += std::uint64_t{hv.get(i)} << shift;
        added += 1ULL << shift;
    }

    std::uint64_t onesCount(std::size_t i) const { return ones[i]; }

    Hypervector
    majority(Rng &rng) const
    {
        Hypervector result(ones.size());
        for (std::size_t i = 0; i < ones.size(); ++i) {
            const std::uint64_t twice = 2ULL * ones[i];
            if (twice > added)
                result.set(i, true);
            else if (twice == added)
                result.set(i, rng.nextBool());
        }
        return result;
    }

    void
    clear()
    {
        std::fill(ones.begin(), ones.end(), 0);
        added = 0;
    }

  private:
    std::vector<std::uint64_t> ones;
    std::uint64_t added = 0;
};

/**
 * Every count, the majority, and the number of tie draws it took
 * (the Rng must be left in the oracle's state) agree.
 */
void
expectMatchesOracle(const Bundler &b, const Oracle &oracle,
                    std::uint64_t seed)
{
    ASSERT_EQ(b.count(), oracle.count());
    for (std::size_t i = 0; i < b.dim(); ++i)
        ASSERT_EQ(b.onesCount(i), oracle.onesCount(i))
            << "component " << i << " after " << oracle.count();
    if (oracle.count() == 0)
        return;
    Rng viaBundler(seed), viaOracle(seed);
    ASSERT_EQ(b.majority(viaBundler), oracle.majority(viaOracle))
        << "after " << oracle.count();
    EXPECT_EQ(viaBundler.next(), viaOracle.next())
        << "tie draws differ after " << oracle.count();
}

/**
 * addBound() @p count vectors at @p shift, each the XOR of @p arity
 * rows drawn from @p pool, and add the same XORs, as often, to the
 * oracle. Returns the XORs.
 */
std::vector<Hypervector>
addBoundFromPool(Bundler &b, Oracle &oracle,
                 const std::vector<Hypervector> &pool, std::size_t arity,
                 std::size_t count, Rng &rng, unsigned shift = 0)
{
    std::vector<const std::uint64_t *> factors;
    std::vector<Hypervector> products;
    for (std::size_t j = 0; j < count; ++j) {
        Hypervector product(b.dim());
        for (std::size_t k = 0; k < arity; ++k) {
            const Hypervector &row = pool[rng.nextBelow(pool.size())];
            factors.push_back(row.data());
            product ^= row;
        }
        oracle.add(product, shift);
        products.push_back(product);
    }
    b.addBound(factors.data(), arity, count, shift);
    return products;
}

std::vector<Hypervector>
randomPool(std::size_t dim, std::size_t size, Rng &rng)
{
    std::vector<Hypervector> pool;
    for (std::size_t i = 0; i < size; ++i)
        pool.push_back(Hypervector::random(dim, rng));
    return pool;
}

TEST(BundlerTest, EmptyThrows)
{
    Bundler b(100);
    Rng rng(1);
    EXPECT_EQ(b.count(), 0u);
    EXPECT_THROW(b.majority(rng), std::logic_error);
}

TEST(BundlerTest, SingleInputIsIdentity)
{
    Rng rng(2);
    Hypervector hv = Hypervector::random(257, rng);
    Bundler b(257);
    b.add(hv);
    EXPECT_EQ(b.majority(rng), hv);
}

TEST(BundlerTest, OddMajorityIsExact)
{
    Rng rng(3);
    const std::size_t dim = 333;
    std::vector<Hypervector> inputs;
    for (int i = 0; i < 5; ++i)
        inputs.push_back(Hypervector::random(dim, rng));
    Bundler b(dim);
    for (const auto &hv : inputs)
        b.add(hv);
    const Hypervector maj = b.majority(rng);
    for (std::size_t i = 0; i < dim; ++i) {
        int ones = 0;
        for (const auto &hv : inputs)
            ones += hv.get(i);
        EXPECT_EQ(maj.get(i), ones > 2) << "component " << i;
    }
}

TEST(BundlerTest, OnesCountMatchesManual)
{
    Rng rng(4);
    const std::size_t dim = 130;
    std::vector<Hypervector> inputs;
    Bundler b(dim);
    for (int i = 0; i < 7; ++i) {
        inputs.push_back(Hypervector::random(dim, rng));
        b.add(inputs.back());
    }
    for (std::size_t i = 0; i < dim; ++i) {
        std::uint32_t ones = 0;
        for (const auto &hv : inputs)
            ones += hv.get(i);
        EXPECT_EQ(b.onesCount(i), ones);
    }
}

TEST(BundlerTest, CountTracksAdds)
{
    Rng rng(5);
    Bundler b(64);
    for (int i = 1; i <= 10; ++i) {
        b.add(Hypervector::random(64, rng));
        EXPECT_EQ(b.count(), static_cast<std::uint64_t>(i));
    }
}

TEST(BundlerTest, ClearResets)
{
    Rng rng(6);
    Bundler b(64);
    b.add(Hypervector::random(64, rng));
    b.clear();
    EXPECT_EQ(b.count(), 0u);
    const Hypervector ones = Hypervector::fromString(
        std::string(64, '1'));
    b.add(ones);
    EXPECT_EQ(b.majority(rng), ones);
}

TEST(BundlerTest, MajorityPreservesSimilarity)
{
    // delta([A+B+C], A) < D/2: the paper's bundling property.
    Rng rng(7);
    const std::size_t dim = 10000;
    Hypervector a = Hypervector::random(dim, rng);
    Hypervector b = Hypervector::random(dim, rng);
    Hypervector c = Hypervector::random(dim, rng);
    Bundler acc(dim);
    acc.add(a);
    acc.add(b);
    acc.add(c);
    const Hypervector maj = acc.majority(rng);
    // Expected distance D/4 for three random inputs.
    EXPECT_NEAR(maj.hamming(a), dim / 4.0, 300.0);
    EXPECT_NEAR(maj.hamming(b), dim / 4.0, 300.0);
    EXPECT_NEAR(maj.hamming(c), dim / 4.0, 300.0);
    EXPECT_LT(maj.hamming(a), dim / 2 - 500);
}

TEST(BundlerTest, TieBreakingIsBalanced)
{
    // Bundle one all-ones and one all-zeros vector: every component
    // ties; the tie-break coin should set roughly half the bits.
    Rng rng(8);
    const std::size_t dim = 10000;
    Bundler b(dim);
    b.add(Hypervector(dim));
    b.add(Hypervector::fromString(std::string(dim, '1')));
    const Hypervector maj = b.majority(rng);
    EXPECT_NEAR(maj.popcount(), dim / 2.0, 300.0);
}

TEST(BundlerTest, MajorityIsOrderInvariant)
{
    Rng rng(9);
    const std::size_t dim = 200;
    std::vector<Hypervector> inputs;
    for (int i = 0; i < 9; ++i)
        inputs.push_back(Hypervector::random(dim, rng));
    Bundler fwd(dim), rev(dim);
    for (const auto &hv : inputs)
        fwd.add(hv);
    for (auto it = inputs.rbegin(); it != inputs.rend(); ++it)
        rev.add(*it);
    Rng tieA(10), tieB(10);
    EXPECT_EQ(fwd.majority(tieA), rev.majority(tieB));
}

TEST(BundlerTest, CarriesIntoHighPlanes)
{
    // More adds than a 16-bit count holds: the carry must reach the
    // seventeenth plane and the counts stay exact.
    const std::size_t dim = 96;
    Bundler b(dim);
    Hypervector ones = Hypervector::fromString(std::string(dim, '1'));
    Hypervector zeros(dim);
    const int n = 70000; // > 65535
    for (int i = 0; i < n; ++i)
        b.add(ones);
    b.add(zeros);
    EXPECT_EQ(b.count(), static_cast<std::uint64_t>(n + 1));
    EXPECT_EQ(b.onesCount(0), static_cast<std::uint32_t>(n));
    EXPECT_EQ(b.onesCount(dim - 1), static_cast<std::uint32_t>(n));
    Rng rng(11);
    EXPECT_EQ(b.majority(rng), ones);
}

TEST(BundlerTest, MixedReadsAndWrites)
{
    // onesCount (which counts the pending single adds) interleaved
    // with adds stays exact.
    Rng rng(12);
    const std::size_t dim = 64;
    Bundler b(dim);
    std::vector<std::uint32_t> manual(dim, 0);
    for (int round = 0; round < 20; ++round) {
        Hypervector hv = Hypervector::random(dim, rng);
        b.add(hv);
        for (std::size_t i = 0; i < dim; ++i)
            manual[i] += hv.get(i);
        EXPECT_EQ(b.onesCount(round % dim), manual[round % dim]);
    }
}

TEST(BundlerTest, BundleOfManyRandomStaysBalanced)
{
    Rng rng(13);
    const std::size_t dim = 4096;
    Bundler b(dim);
    for (int i = 0; i < 101; ++i)
        b.add(Hypervector::random(dim, rng));
    const Hypervector maj = b.majority(rng);
    EXPECT_NEAR(maj.popcount(), dim / 2.0, 250.0);
}

/**
 * Single adds and block adds of every size 1..kBlock and arity 1..5
 * at dimension @p dim, read between adds, then again after clear().
 */
void
expectMatchesOracleAt(std::size_t dim)
{
    Rng rng(dim);
    const std::vector<Hypervector> pool = randomPool(dim, 24, rng);
    Bundler b(dim);
    Oracle oracle(dim);
    for (int pass = 0; pass < 2; ++pass) {
        // All ones then all zeros: every component ties.
        const Hypervector ones =
            Hypervector::fromString(std::string(dim, '1'));
        b.add(ones);
        oracle.add(ones);
        b.add(Hypervector(dim));
        oracle.add(Hypervector(dim));
        expectMatchesOracle(b, oracle, 100 + pass);
        for (std::size_t size = 1; size <= Bundler::kBlock; ++size) {
            const std::size_t arity = 1 + size % 5;
            addBoundFromPool(b, oracle, pool, arity, size, rng);
            for (std::size_t i = 0; i < size % 3; ++i) {
                const Hypervector &hv = pool[rng.nextBelow(pool.size())];
                b.add(hv);
                oracle.add(hv);
            }
            expectMatchesOracle(b, oracle, size);
        }
        // One call spanning several kernel blocks.
        addBoundFromPool(b, oracle, pool, 3, 2 * Bundler::kBlock + 5,
                         rng);
        expectMatchesOracle(b, oracle, 200 + pass);
        b.clear();
        oracle.clear();
        expectMatchesOracle(b, oracle, 300 + pass);
        EXPECT_THROW(b.majority(rng), std::logic_error);
    }
}

/** RAII: reinstate the kernel that was active at construction. */
class KernelGuard
{
  public:
    KernelGuard() : saved(distance::activeKernelName()) {}
    KernelGuard(const KernelGuard &) = delete;
    KernelGuard &operator=(const KernelGuard &) = delete;
    ~KernelGuard() { distance::setKernelByName(saved); }

  private:
    const char *saved;
};

TEST(BundlerTest, MatchesOracleAtRaggedDimensions)
{
    // Under every tier this host runs, whose count kernels step 1, 2,
    // 4 or 8 words. Dimensions of 1..17 words, word-aligned and
    // ragged, reach every residue of the 8-word step and each 4, 2
    // and 1-word tail; D = 10,000 is 19 * 8 + 4 + 1 words.
    std::vector<std::size_t> dims = {1, 10000};
    for (std::size_t words = 1; words <= 17; ++words) {
        dims.push_back(64 * words - 1);
        dims.push_back(64 * words);
    }
    const KernelGuard guard;
    for (const distance::KernelEntry &entry : distance::kernels()) {
        if (!entry.usable())
            continue;
        SCOPED_TRACE(entry.name);
        distance::setKernelByName(entry.name);
        for (const std::size_t dim : dims) {
            SCOPED_TRACE(dim);
            expectMatchesOracleAt(dim);
        }
    }
}

TEST(BundlerTest, ExactOnBothSidesOfEveryPlaneBoundary)
{
    // Stop at n = 2^k - 1, 2^k and 2^k + 1 for every k up to 17, so
    // the count of component 0 (set in every input) and the majority
    // threshold floor(n/2) sit on both sides of each plane boundary.
    // Odd-arity products keep component 0 set and component 1 clear.
    const std::size_t dim = 130;
    Rng rng(21);
    std::vector<Hypervector> pool = randomPool(dim, 32, rng);
    for (Hypervector &hv : pool) {
        hv.set(0, true);
        hv.set(1, false);
    }
    std::vector<std::uint64_t> stops;
    for (unsigned k = 1; k <= 17; ++k) {
        for (const std::uint64_t n :
             {(1ULL << k) - 1, 1ULL << k, (1ULL << k) + 1}) {
            if (stops.empty() || stops.back() < n)
                stops.push_back(n);
        }
    }
    Bundler b(dim);
    Oracle oracle(dim);
    for (const std::uint64_t stop : stops) {
        while (b.count() < stop) {
            const std::size_t size = static_cast<std::size_t>(
                std::min<std::uint64_t>(stop - b.count(),
                                        1 + rng.nextBelow(Bundler::kBlock)));
            if (rng.nextBool()) {
                addBoundFromPool(b, oracle, pool, 3, size, rng);
            } else {
                for (std::size_t i = 0; i < size; ++i) {
                    const Hypervector &hv =
                        pool[rng.nextBelow(pool.size())];
                    b.add(hv);
                    oracle.add(hv);
                }
            }
        }
        ASSERT_EQ(b.onesCount(0), stop);
        expectMatchesOracle(b, oracle, stop);
    }
}

TEST(BundlerTest, ShiftedBlocksCountLikeRepeatedAdds)
{
    // addBound with shift s counts each vector 2^s times. Blocks of
    // 1..kBlock random products at arity 1 and 3, mixed with single
    // adds and onesCount reads, must match the oracle given each
    // product 2^s times. Shifts up to 20 carry the totals across many
    // plane boundaries. While shifts stay at most 6, a second bundler
    // gets every product by add() 2^s times and must match as well.
    for (const std::size_t dim : {std::size_t{1000}, std::size_t{10000}}) {
        for (const unsigned maxShift : {6u, 20u}) {
            SCOPED_TRACE("dim=" + std::to_string(dim) +
                         " maxShift=" + std::to_string(maxShift));
            Rng rng(dim + maxShift);
            const std::vector<Hypervector> pool = randomPool(dim, 24, rng);
            const bool repeat = maxShift <= 6;
            Bundler shifted(dim), repeated(dim);
            Oracle oracle(dim);
            const auto addRepeated = [&](const std::vector<Hypervector> &hvs,
                                         unsigned shift) {
                for (const Hypervector &hv : hvs) {
                    for (std::uint64_t k = 0; repeat && k < 1ULL << shift;
                         ++k)
                        repeated.add(hv);
                }
            };
            const auto check = [&](std::uint64_t seed) {
                expectMatchesOracle(shifted, oracle, seed);
                if (repeat)
                    expectMatchesOracle(repeated, oracle, seed);
            };

            // All ones and all zeros at one weight: every component
            // ties.
            const std::vector<Hypervector> edge = {
                Hypervector::fromString(std::string(dim, '1')),
                Hypervector(dim)};
            const std::uint64_t *rows[] = {edge[0].data(), edge[1].data()};
            shifted.addBound(rows, 1, 2, 3);
            for (const Hypervector &hv : edge)
                oracle.add(hv, 3);
            addRepeated(edge, 3);
            ASSERT_NO_FATAL_FAILURE(check(1));

            for (int round = 0; round < 40; ++round) {
                const auto shift =
                    static_cast<unsigned>(rng.nextBelow(maxShift + 1));
                const std::size_t arity = rng.nextBool() ? 1 : 3;
                const std::size_t m = 1 + rng.nextBelow(Bundler::kBlock);
                addRepeated(addBoundFromPool(shifted, oracle, pool, arity, m,
                                             rng, shift),
                            shift);
                for (int i = 0; i < round % 3; ++i) {
                    const Hypervector &hv = pool[rng.nextBelow(pool.size())];
                    shifted.add(hv);
                    oracle.add(hv);
                    addRepeated({hv}, 0);
                }
                ASSERT_NO_FATAL_FAILURE(check(2 + round));
            }
        }
    }
}

TEST(BundlerTest, ExactAcrossKernelPassBoundaries)
{
    // addBound hands the count kernel up to 255 products per pass.
    // Calls of 254..257, 510..512 and 765 products, at shifts 0 and 5,
    // with single adds between them (pending rows folded in their own
    // pass), must match the oracle under every tier this host runs.
    // D = 650 is 11 words: the 8, 2 and 1-word steps.
    const std::size_t dim = 650;
    const KernelGuard guard;
    for (const distance::KernelEntry &entry : distance::kernels()) {
        if (!entry.usable())
            continue;
        SCOPED_TRACE(entry.name);
        distance::setKernelByName(entry.name);
        Rng rng(31);
        const std::vector<Hypervector> pool = randomPool(dim, 24, rng);
        Bundler b(dim);
        Oracle oracle(dim);
        for (const unsigned shift : {0u, 5u}) {
            for (const std::size_t count :
                 {254u, 255u, 256u, 257u, 510u, 511u, 512u, 765u}) {
                SCOPED_TRACE("shift " + std::to_string(shift) +
                             " count " + std::to_string(count));
                addBoundFromPool(b, oracle, pool, 1 + count % 3 * 2, count,
                                 rng, shift);
                for (std::size_t i = 0; i < count % 7; ++i) {
                    const Hypervector &hv = pool[rng.nextBelow(pool.size())];
                    b.add(hv);
                    oracle.add(hv);
                }
                ASSERT_NO_FATAL_FAILURE(
                    expectMatchesOracle(b, oracle, count + shift));
            }
        }
    }
}

/** Every count of @p b and its majority's tie draws, as a snapshot. */
std::vector<std::uint64_t>
snapshotOf(const Bundler &b)
{
    std::vector<std::uint64_t> state{b.count()};
    for (std::size_t i = 0; i < b.dim(); ++i)
        state.push_back(b.onesCount(i));
    if (b.count() != 0) {
        Rng rng(5);
        const Hypervector majority = b.majority(rng);
        for (std::size_t i = 0; i < b.dim(); ++i)
            state.push_back(majority.get(i));
        state.push_back(rng.next());
    }
    return state;
}

TEST(BundlerTest, RefusesCountsPastThirtyTwoBits)
{
    // The counts are 32-bit: an input that would take count() to 2^32
    // throws std::length_error and leaves the bundler as it was.
    const std::size_t dim = 70;
    Rng rng(41);
    const Hypervector hv = Hypervector::random(dim, rng);
    const std::uint64_t *rows[] = {hv.data(), hv.data(), hv.data()};

    Bundler b(dim);
    const std::vector<std::uint64_t> empty = snapshotOf(b);
    // One vector weighted 2^32, three weighted 2^31, one at an
    // undefined shift of 64.
    EXPECT_THROW(b.addBound(rows, 1, 1, 32), std::length_error);
    EXPECT_EQ(snapshotOf(b), empty);
    EXPECT_THROW(b.addBound(rows, 1, 3, 31), std::length_error);
    EXPECT_EQ(snapshotOf(b), empty);
    EXPECT_THROW(b.addBound(rows, 1, 1, 64), std::length_error);
    EXPECT_EQ(snapshotOf(b), empty);
    // No vectors add nothing, at any shift.
    b.addBound(rows, 1, 0, 64);
    EXPECT_EQ(snapshotOf(b), empty);

    // Up to 2^32 - 2 by shifts 1..31, then one single add left.
    Bundler full(dim);
    Oracle oracle(dim);
    for (unsigned shift = 1; shift < 32; ++shift) {
        full.addBound(rows, 1, 1, shift);
        oracle.add(hv, shift);
    }
    ASSERT_EQ(full.count(), Bundler::kMaxCount - 1);
    const std::vector<std::uint64_t> before = snapshotOf(full);
    EXPECT_THROW(full.addBound(rows, 1, 2, 0), std::length_error);
    EXPECT_THROW(full.addBound(rows, 3, 1, 1), std::length_error);
    EXPECT_EQ(snapshotOf(full), before);
    full.add(hv);
    oracle.add(hv);
    EXPECT_EQ(full.count(), Bundler::kMaxCount);
    const std::vector<std::uint64_t> atCeiling = snapshotOf(full);
    EXPECT_THROW(full.add(hv), std::length_error);
    EXPECT_THROW(full.addBound(rows, 1, 1, 0), std::length_error);
    EXPECT_EQ(snapshotOf(full), atCeiling);
    expectMatchesOracle(full, oracle, 6);
}

} // namespace
