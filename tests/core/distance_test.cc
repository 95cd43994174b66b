/**
 * @file
 * Dispatch property tests for the Hamming kernel registry: every
 * *registered* backend -- present and future; nothing here names a
 * kernel except the scalar oracle -- must return the exact same
 * integer count as a naive bit loop, for randomized ragged widths
 * where `bits` is not a multiple of the word or vector size and the
 * final word carries garbage padding beyond `bits`. Every backend's
 * count kernel must add a per-component ones-count to the counts it
 * is given, and its majority kernel must give the greater and tie
 * masks of one.
 *
 * Also pins the dispatch rules: resolution order (env override ->
 * widest-supported probe), the one-time warning for an invalid
 * HDHAM_KERNEL value, name lookups, and rejection of kernels this
 * host cannot execute.
 *
 * NOTE: the dispatch state is process-global, so the env-override
 * test must run before anything calls setKernelByName(); gtest runs
 * tests in declaration order within a suite, and this file keeps the
 * env-sensitive test in its own suite declared first. The binary
 * uses tests/support/kernel_pin_main.cc, so a run pinned (via
 * HDHAM_KERNEL) to a backend this host cannot execute exits 77 --
 * a loud ctest SKIP, never a silent fallback pass.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "core/distance.hh"
#include "core/random.hh"

namespace
{

using hdham::Rng;
namespace distance = hdham::distance;
using distance::KernelEntry;

/** Bit-at-a-time oracle; deliberately shares no code with kernels. */
std::size_t
naiveHamming(const std::vector<std::uint64_t> &a,
             const std::vector<std::uint64_t> &b, std::size_t bits)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < bits; ++i) {
        const std::uint64_t x = (a[i / 64] >> (i % 64)) & 1;
        const std::uint64_t y = (b[i / 64] >> (i % 64)) & 1;
        count += x ^ y;
    }
    return count;
}

/**
 * Random word array long enough for @p bits, with every word fully
 * random -- including the bits of the last word beyond @p bits, so a
 * kernel that forgets to mask the tail miscounts.
 */
std::vector<std::uint64_t>
randomWords(std::size_t bits, Rng &rng)
{
    const std::size_t words = (bits + 63) / 64;
    std::vector<std::uint64_t> out(words);
    for (auto &w : out)
        w = rng.next();
    return out;
}

/**
 * Widths straddling the word (64), SSE/NEON (128), AVX2 (256) and
 * AVX-512 (512) boundaries, plus randomized ragged widths drawn per
 * test so new strip sizes cannot overfit a fixed list.
 */
std::vector<std::size_t>
raggedWidths(Rng &rng)
{
    std::vector<std::size_t> widths = {
        1,   3,   63,  64,  65,   127,  128,  129,  191, 192,
        250, 255, 256, 257, 383,  384,  511,  512,  513, 1000,
        2048,
        4099, 10000};
    for (int i = 0; i < 12; ++i)
        widths.push_back(1 + rng.next() % 20000);
    return widths;
}

/** Backends this host can execute, by registry entry. */
std::vector<const KernelEntry *>
usableEntries()
{
    std::vector<const KernelEntry *> out;
    for (const KernelEntry &entry : distance::kernels())
        if (entry.usable())
            out.push_back(&entry);
    return out;
}

// Declared first so it observes the untouched startup dispatch state
// (see file comment). Skips unless the harness set HDHAM_KERNEL.
TEST(DistanceEnvTest, EnvResolutionRespected)
{
    const char *env = std::getenv("HDHAM_KERNEL");
    if (!env)
        GTEST_SKIP() << "HDHAM_KERNEL not set";
    // A valid, available value must win; anything else must resolve
    // to the same choice the pure resolver reports (the widest
    // available backend), never crash or stick on a bogus name.
    const KernelEntry &want =
        distance::resolveKernelChoice(env, nullptr);
    EXPECT_STREQ(distance::activeKernelName(), want.name);
    const KernelEntry *named = distance::findKernel(env);
    if (named && named->usable())
        EXPECT_STREQ(distance::activeKernelName(), env);
}

TEST(DistanceKernelTest, ScalarMatchesNaiveOracle)
{
    Rng rng(11);
    for (const std::size_t bits : raggedWidths(rng)) {
        const auto a = randomWords(bits, rng);
        const auto b = randomWords(bits, rng);
        EXPECT_EQ(distance::scalarHamming(a.data(), b.data(), bits),
                  naiveHamming(a, b, bits))
            << "bits = " << bits;
    }
}

TEST(DistanceKernelTest, EveryRegisteredKernelMatchesScalarOracle)
{
    Rng rng(22);
    for (const KernelEntry &entry : distance::kernels()) {
        if (!entry.usable()) {
            std::printf("note: kernel '%s' not available on this "
                        "host (%s); exact-form check skipped\n",
                        entry.name, entry.requirement);
            continue;
        }
        for (const std::size_t bits : raggedWidths(rng)) {
            for (int rep = 0; rep < 4; ++rep) {
                const auto a = randomWords(bits, rng);
                const auto b = randomWords(bits, rng);
                EXPECT_EQ(
                    entry.fn(a.data(), b.data(), bits),
                    distance::scalarHamming(a.data(), b.data(),
                                            bits))
                    << entry.name << " bits = " << bits << ", rep "
                    << rep;
            }
        }
    }
}

TEST(DistanceKernelTest, EveryCountKernelMatchesOracle)
{
    // Every usable tier's count kernel must add the per-component
    // count of its m vectors to the bit-sliced counts it is given. The
    // planes already hold counts, and the kernel gets them from plane
    // `shift` up, so each vector counts 2^shift. A quarter of the
    // components sit just below 2^(shift + 8) and a quarter just below
    // the top plane, so the carry ripples past the eight register
    // planes, up to the top. The widths straddle the word and every
    // vector step, and m runs over every input count the kernel takes:
    // whole and partial tree steps of 16, up to all eight planes set.
    Rng rng(78);
    const std::size_t most = distance::kMaxPassInputs;
    constexpr std::size_t shift = 3, planeCount = 14;
    // Every starting count stays below 2^(planeCount - 1), and adding
    // at most 255 * 2^shift keeps it below 2^planeCount.
    static_assert((std::size_t{255} << shift) < (1u << (planeCount - 1)));
    for (const std::size_t bits : {1u, 63u, 64u, 65u, 640u, 10000u}) {
        const std::size_t words = (bits + 63) / 64;
        const std::size_t components = 64 * words;
        const auto toPlanes = [&](const std::vector<std::uint64_t> &counts) {
            std::vector<std::uint64_t> planes(planeCount * words, 0);
            for (std::size_t i = 0; i < components; ++i) {
                for (std::size_t p = 0; p < planeCount; ++p)
                    planes[p * words + i / 64] |=
                        ((counts[i] >> p) & 1) << (i % 64);
            }
            return planes;
        };
        for (const std::size_t arity : {1u, 3u}) {
            // Rows with clean tails, as the kernel requires.
            std::vector<std::vector<std::uint64_t>> rows(most * arity);
            std::vector<const std::uint64_t *> factors;
            for (auto &row : rows) {
                row = randomWords(bits, rng);
                if (bits % 64 != 0)
                    row.back() &= (1ULL << (bits % 64)) - 1;
                factors.push_back(row.data());
            }
            // Padding components start with counts too; the kernel
            // adds 0 to them.
            std::vector<std::uint64_t> start(components);
            for (std::uint64_t &c : start) {
                const std::uint64_t below = rng.nextBelow(1u << shift);
                switch (rng.nextBelow(4)) {
                case 0:
                    c = (1u << (shift + 8)) - 1 - below;
                    break;
                case 1:
                    c = (1u << (planeCount - 1)) - 1 - below;
                    break;
                default:
                    c = rng.nextBelow(1u << (planeCount - 1));
                    break;
                }
            }
            const std::vector<std::uint64_t> initial = toPlanes(start);
            std::vector<std::uint64_t> count(components, 0);
            std::vector<std::uint64_t> want(components);
            for (std::size_t m = 1; m <= most; ++m) {
                for (std::size_t i = 0; i < bits; ++i) {
                    std::uint64_t bit = 0;
                    for (std::size_t k = 0; k < arity; ++k)
                        bit ^= rows[(m - 1) * arity + k][i / 64] >> (i % 64);
                    count[i] += bit & 1;
                }
                for (std::size_t i = 0; i < components; ++i)
                    want[i] = start[i] + (count[i] << shift);
                const std::vector<std::uint64_t> wantPlanes = toPlanes(want);
                for (const KernelEntry *entry : usableEntries()) {
                    std::vector<std::uint64_t> planes = initial;
                    entry->countBlock(factors.data(), arity, m,
                                      planes.data() + shift * words, words,
                                      planeCount - shift);
                    ASSERT_EQ(planes, wantPlanes)
                        << entry->name << " bits " << bits << " arity "
                        << arity << " m " << m;
                }
            }
        }
    }
}

TEST(DistanceKernelTest, EveryMajorityKernelMatchesCountOracle)
{
    // Every usable tier's majority kernel must give the masks of a
    // per-component ones-count: greater where 2 * count > m, ties
    // where 2 * count == m, padding components in neither. The scalar
    // tier is held to the same count, so every tier gives its masks.
    // The widths straddle the word and every vector step, and m runs
    // over every input count the kernel takes: odd and even, whole
    // and partial blocks of 16, up to all eight planes set.
    Rng rng(77);
    const std::size_t most = distance::kMaxPassInputs;
    for (const std::size_t bits : {1u, 63u, 64u, 65u, 640u, 10000u}) {
        const std::size_t words = (bits + 63) / 64;
        for (const std::size_t arity : {1u, 3u}) {
            // Rows with clean tails, as the kernel requires.
            std::vector<std::vector<std::uint64_t>> rows(most * arity);
            std::vector<const std::uint64_t *> factors;
            for (auto &row : rows) {
                row = randomWords(bits, rng);
                if (bits % 64 != 0)
                    row.back() &= (1ULL << (bits % 64)) - 1;
                factors.push_back(row.data());
            }
            std::vector<std::size_t> count(bits, 0);
            std::vector<std::uint64_t> wantGreater(words), wantTies(words);
            std::vector<std::uint64_t> greater(words), ties(words);
            for (std::size_t m = 1; m <= most; ++m) {
                std::fill(wantGreater.begin(), wantGreater.end(), 0);
                std::fill(wantTies.begin(), wantTies.end(), 0);
                for (std::size_t i = 0; i < bits; ++i) {
                    std::uint64_t bit = 0;
                    for (std::size_t k = 0; k < arity; ++k)
                        bit ^= rows[(m - 1) * arity + k][i / 64] >> (i % 64);
                    count[i] += bit & 1;
                    const std::uint64_t mask = 1ULL << (i % 64);
                    if (2 * count[i] > m)
                        wantGreater[i / 64] |= mask;
                    else if (2 * count[i] == m)
                        wantTies[i / 64] |= mask;
                }
                for (const KernelEntry *entry : usableEntries()) {
                    std::fill(greater.begin(), greater.end(), ~0ULL);
                    std::fill(ties.begin(), ties.end(), ~0ULL);
                    entry->majority(factors.data(), arity, m, words,
                                    greater.data(), ties.data());
                    ASSERT_EQ(greater, wantGreater)
                        << entry->name << " bits " << bits << " arity "
                        << arity << " m " << m;
                    ASSERT_EQ(ties, wantTies)
                        << entry->name << " bits " << bits << " arity "
                        << arity << " m " << m;
                }
            }
        }
    }
}

TEST(DistanceKernelTest, IdenticalVectorsAndComplements)
{
    Rng rng(55);
    for (const std::size_t bits : {63u, 256u, 1000u}) {
        const auto a = randomWords(bits, rng);
        auto flipped = a;
        for (auto &w : flipped)
            w = ~w;
        for (const KernelEntry *entry : usableEntries()) {
            EXPECT_EQ(entry->fn(a.data(), a.data(), bits), 0u)
                << entry->name;
            EXPECT_EQ(entry->fn(a.data(), flipped.data(), bits),
                      bits)
                << entry->name;
        }
    }
}

TEST(DistanceDispatchTest, EveryUsableKernelServesHamming)
{
    Rng rng(66);
    const auto a = randomWords(4099, rng);
    const auto b = randomWords(4099, rng);
    const std::size_t want =
        distance::scalarHamming(a.data(), b.data(), 4099);

    for (const KernelEntry *entry : usableEntries()) {
        distance::setKernelByName(entry->name);
        EXPECT_EQ(&distance::activeEntry(), entry);
        EXPECT_STREQ(distance::activeKernelName(), entry->name);
        EXPECT_EQ(distance::hamming(a.data(), b.data(), 4099), want)
            << entry->name;
    }
    distance::setKernelByName("auto");
    // Auto must land on the widest usable backend (the last
    // registered entry whose probe passes), never on a stub.
    EXPECT_TRUE(distance::activeEntry().usable());
    EXPECT_EQ(&distance::activeEntry(),
              &distance::resolveKernelChoice(nullptr, nullptr));
}

TEST(DistanceDispatchTest, RegistryNamesAreUniqueAndLookUp)
{
    std::set<std::string> seen;
    for (const KernelEntry &entry : distance::kernels()) {
        EXPECT_TRUE(seen.insert(entry.name).second)
            << "duplicate kernel name " << entry.name;
        EXPECT_EQ(distance::findKernel(entry.name), &entry);
        EXPECT_NE(entry.fn, nullptr) << entry.name;
        EXPECT_NE(entry.countBlock, nullptr) << entry.name;
        EXPECT_NE(entry.majority, nullptr) << entry.name;
        EXPECT_NE(distance::kernelNameList().find(entry.name),
                  std::string::npos)
            << entry.name;
    }
    EXPECT_EQ(distance::findKernel("sse9"), nullptr);
    EXPECT_EQ(distance::findKernel(""), nullptr);
    // "auto" is a dispatch directive, not a registered backend.
    EXPECT_EQ(distance::findKernel("auto"), nullptr);
}

TEST(DistanceDispatchTest, ScalarKernelsAlwaysRegisteredAndUsable)
{
    const distance::KernelEntry *scalar =
        distance::findKernel("scalar");
    ASSERT_NE(scalar, nullptr);
    EXPECT_TRUE(scalar->usable());
    EXPECT_EQ(scalar->fn, &distance::scalarHamming);
}

TEST(DistanceDispatchTest, CompiledAndAvailableListsAreConsistent)
{
    // The available list is a subset of the compiled list, and both
    // contain every backend the probe passes. These lists are the
    // bench baseline's host fingerprint, so they must be stable,
    // comma-joined and in registry order.
    const std::string compiled = distance::compiledKernelList();
    const std::string available = distance::availableKernelList();
    EXPECT_NE(compiled.find("scalar"), std::string::npos);
    EXPECT_NE(available.find("scalar"), std::string::npos);
    for (const KernelEntry &entry : distance::kernels()) {
        const bool inCompiled =
            compiled.find(entry.name) != std::string::npos;
        const bool inAvailable =
            available.find(entry.name) != std::string::npos;
        EXPECT_EQ(inCompiled, entry.compiled) << entry.name;
        EXPECT_EQ(inAvailable, entry.usable()) << entry.name;
        if (inAvailable)
            EXPECT_TRUE(inCompiled) << entry.name;
    }
}

TEST(DistanceDispatchTest, UnusableKernelsRejected)
{
    bool sawUnusable = false;
    for (const KernelEntry &entry : distance::kernels()) {
        if (entry.usable())
            continue;
        sawUnusable = true;
        EXPECT_THROW(distance::setKernelByName(entry.name),
                     std::invalid_argument)
            << entry.name;
    }
    if (!sawUnusable)
        GTEST_SKIP() << "every registered kernel is usable here";
}

TEST(DistanceDispatchTest, SetKernelByNameRejectsUnknown)
{
    try {
        distance::setKernelByName("vliw9000");
        FAIL() << "unknown kernel accepted";
    } catch (const std::invalid_argument &e) {
        // The diagnostic must name the valid kernels so the caller
        // can fix the flag without reading the source.
        EXPECT_NE(std::string(e.what()).find("scalar"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("auto"),
                  std::string::npos);
    }
}

TEST(DistanceResolutionTest, EnvChoicesResolveWithWarnings)
{
    std::string warning;

    // Unset / empty / auto: the widest usable backend, no warning.
    const KernelEntry &widest =
        distance::resolveKernelChoice(nullptr, &warning);
    EXPECT_TRUE(widest.usable());
    EXPECT_TRUE(warning.empty());
    EXPECT_EQ(&distance::resolveKernelChoice("", &warning), &widest);
    EXPECT_TRUE(warning.empty());
    EXPECT_EQ(&distance::resolveKernelChoice("auto", &warning),
              &widest);
    EXPECT_TRUE(warning.empty());
    // No registered usable backend is wider than the auto choice.
    bool past = false;
    for (const KernelEntry &entry : distance::kernels()) {
        if (past)
            EXPECT_FALSE(entry.usable()) << entry.name;
        if (&entry == &widest)
            past = true;
    }

    // A valid, usable name wins exactly, silently.
    for (const KernelEntry &entry : distance::kernels()) {
        if (!entry.usable())
            continue;
        EXPECT_EQ(
            &distance::resolveKernelChoice(entry.name, &warning),
            &entry);
        EXPECT_TRUE(warning.empty()) << entry.name;
    }

    // An unknown name falls back to the widest choice WITH a
    // warning that names the valid kernels and the fallback -- the
    // silent-fallback bug this test pins closed.
    EXPECT_EQ(&distance::resolveKernelChoice("sse9", &warning),
              &widest);
    ASSERT_FALSE(warning.empty());
    EXPECT_NE(warning.find("sse9"), std::string::npos);
    EXPECT_NE(warning.find("scalar"), std::string::npos);
    EXPECT_NE(warning.find("auto"), std::string::npos);
    EXPECT_NE(warning.find(widest.name), std::string::npos);

    // A known backend this host cannot run also warns, naming its
    // host requirement instead of the full list.
    for (const KernelEntry &entry : distance::kernels()) {
        if (entry.usable())
            continue;
        EXPECT_EQ(
            &distance::resolveKernelChoice(entry.name, &warning),
            &widest);
        ASSERT_FALSE(warning.empty()) << entry.name;
        EXPECT_NE(warning.find(entry.name), std::string::npos);
        EXPECT_NE(warning.find(entry.requirement),
                  std::string::npos);
    }
}

} // namespace
