/**
 * @file
 * R-HAM's 4-bit block histogram, one template for every tier
 * (NibbleHistogramFn in core/distance.hh): over a range of 4-bit
 * blocks of a XOR b, how many sit at each distance 0..4.
 *
 * A block at distance d = 0..4 has popcount bits b2 b1 b0 = 000, 001,
 * 010, 011, 100, so over the range sum(b2) = hist[4], sum(b0 & b1) =
 * hist[3], sum(b1) = hist[2] + hist[3] and sum(b0) = hist[1] +
 * hist[3]; hist[0] is the rest. nibbleHistogram<L> XORs L words per
 * step, takes every nibble's popcount in place, and adds the four
 * bit-planes b0, b1, b2 and b0 & b1 to four vectors of nibble lanes.
 * A lane grows by at most one per step, so the lanes fold into totals
 * every 15 steps, before one can overflow.
 *
 * Only the range's blocks count: its head and tail words are masked
 * and go in as steps of one word, in the vectors' low lane. The words
 * between them go L to a step, and the rest, under L words, in one
 * step of each narrower width, loaded into the low lanes: 155 words
 * = 19 * 8 + 2 + 1 between the head and tail of a D = 10,000 row.
 *
 * L is the words per step. Each tier's translation unit calls the
 * kernel at its own width from a function carrying its target
 * attribute (scalar 1, sse2 and neon 2, avx2 4, avx512 8). Every
 * width computes the same integer counts, so the tier never changes a
 * histogram, a noise draw or an R-HAM answer.
 *
 * Like bundle_kernel.hh, whose Lanes it steps in, everything here has
 * internal linkage and is force-inlined into the tier's function, so
 * it is compiled for that tier's target only. Nothing outside
 * src/core/kernels/ includes this header.
 */

#ifndef HDHAM_CORE_KERNELS_NIBBLE_KERNEL_HH
#define HDHAM_CORE_KERNELS_NIBBLE_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/kernels/bundle_kernel.hh"

// As in bundle_kernel.hh, every function here is force-inlined and
// takes or returns no vector by value.

namespace hdham::distance::detail
{

namespace
{

/** Steps the nibble lanes take between folds: a lane holds 15. */
constexpr std::size_t kFoldSteps = 15;

/** Bit 0 of every nibble. */
constexpr std::uint64_t kNibbleLow = 0x1111111111111111ULL;

/**
 * The four bit-plane sums of nibbleHistogram<L>: nibble lanes for the
 * steps since the last fold, and the totals folded so far.
 */
template <std::size_t L>
struct NibblePlanes
{
    using V = typename Lanes<L>::type;

    V b0 = {}, b1 = {}, b2 = {}, b01 = {};
    std::size_t steps = 0;
    std::uint32_t sum0 = 0, sum1 = 0, sum2 = 0, sum01 = 0;

    /** Add the bit-planes of the nibble popcounts of @p words. */
    [[gnu::always_inline]] void
    add(const V &words)
    {
        constexpr std::uint64_t m1 = 0x5555555555555555ULL;
        constexpr std::uint64_t m2 = 0x3333333333333333ULL;
        if (steps == kFoldSteps)
            fold();
        V x = words;
        x -= (x >> 1) & m1;
        x = (x & m2) + ((x >> 2) & m2);
        const V low0 = x & kNibbleLow;
        const V low1 = (x >> 1) & kNibbleLow;
        b0 += low0;
        b1 += low1;
        b2 += (x >> 2) & kNibbleLow;
        b01 += low0 & low1;
        ++steps;
    }

    /** Sum of every nibble lane of @p lanes. */
    [[gnu::always_inline]] static std::uint32_t
    total(const V &lanes)
    {
        // Nibble pairs into bytes (each at most 30), then each word's
        // eight bytes (at most 240) into its top byte.
        constexpr std::uint64_t low4 = 0x0F0F0F0F0F0F0F0FULL;
        const V bytes = (lanes & low4) + ((lanes >> 4) & low4);
        std::uint32_t sum = 0;
        for (std::size_t i = 0; i < L; ++i)
            sum += static_cast<std::uint32_t>(
                (bytes[i] * 0x0101010101010101ULL) >> 56);
        return sum;
    }

    /** Add the lanes to the totals and clear them. */
    [[gnu::always_inline]] void
    fold()
    {
        sum0 += total(b0);
        sum1 += total(b1);
        sum2 += total(b2);
        sum01 += total(b01);
        b0 = b1 = b2 = b01 = V{};
        steps = 0;
    }
};

/**
 * Words [w, w + W) of a ^ b into the low W lanes of @p x, the other
 * lanes zero.
 */
template <std::size_t W, typename V>
[[gnu::always_inline]] inline void
xorWords(V &x, const std::uint64_t *a, const std::uint64_t *b,
         std::size_t w)
{
    static_assert(W * sizeof(std::uint64_t) <= sizeof(V));
    V u = {}, v = {};
    std::memcpy(&u, a + w, W * sizeof(std::uint64_t));
    std::memcpy(&v, b + w, W * sizeof(std::uint64_t));
    x = u ^ v;
}

/** The block histogram kernel at L words per step (NibbleHistogramFn). */
template <std::size_t L>
[[gnu::always_inline]] inline void
nibbleHistogram(const std::uint64_t *a, const std::uint64_t *b,
                std::size_t firstBlock, std::size_t lastBlock,
                std::uint32_t *hist)
{
    static_assert(L == 1 || L == 2 || L == 4 || L == 8);
    using V = typename Lanes<L>::type;
    if (firstBlock >= lastBlock)
        return;
    const std::size_t head = firstBlock / 16;
    const std::size_t tail = (lastBlock - 1) / 16;
    const std::uint64_t headMask = ~0ULL << (4 * (firstBlock % 16));
    const std::uint64_t tailMask =
        ~0ULL >> (4 * ((16 - lastBlock % 16) % 16));

    NibblePlanes<L> planes;
    V x = {};
    if (head == tail) {
        x[0] = (a[head] ^ b[head]) & headMask & tailMask;
        planes.add(x);
    } else {
        x[0] = (a[head] ^ b[head]) & headMask;
        planes.add(x);
        std::size_t w = head + 1;
        for (; w + L <= tail; w += L) {
            xorWords<L>(x, a, b, w);
            planes.add(x);
        }
        if constexpr (L > 4) {
            if (w + 4 <= tail) {
                xorWords<4>(x, a, b, w);
                planes.add(x);
                w += 4;
            }
        }
        if constexpr (L > 2) {
            if (w + 2 <= tail) {
                xorWords<2>(x, a, b, w);
                planes.add(x);
                w += 2;
            }
        }
        if constexpr (L > 1) {
            if (w < tail) {
                xorWords<1>(x, a, b, w);
                planes.add(x);
            }
        }
        x = V{};
        x[0] = (a[tail] ^ b[tail]) & tailMask;
        planes.add(x);
    }
    planes.fold();

    const auto blocks = static_cast<std::uint32_t>(lastBlock - firstBlock);
    hist[4] += planes.sum2;
    hist[3] += planes.sum01;
    hist[2] += planes.sum1 - planes.sum01;
    hist[1] += planes.sum0 - planes.sum01;
    hist[0] += blocks - (planes.sum0 + planes.sum1 - planes.sum01 +
                         planes.sum2);
}

} // namespace

} // namespace hdham::distance::detail

#endif // HDHAM_CORE_KERNELS_NIBBLE_KERNEL_HH
