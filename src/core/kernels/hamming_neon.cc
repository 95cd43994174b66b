/**
 * @file
 * NEON tier for AArch64. Hamming kernel: vcntq_u8 counts bits per
 * byte of a 128-bit XOR, two XOR+CNT pairs are summed byte-wise
 * (counts stay <= 16, no overflow), then one widening pairwise-add
 * chain folds the sixteen byte counts into the qword accumulator --
 * four words per iteration. Bundling count and majority kernels:
 * bundle_kernel.hh at two words per step; block histogram:
 * nibble_kernel.hh at two.
 *
 * AdvSIMD is architectural on AArch64, so availability is simply
 * "compiled for aarch64"; there is no hwcap probe to run. On other
 * architectures the entry stays registered (compiled == false) with
 * scalar fallbacks so lookups and listings are uniform.
 */

#include "core/kernels/bundle_kernel.hh"
#include "core/kernels/hamming_kernels.hh"
#include "core/kernels/nibble_kernel.hh"

#if defined(__aarch64__) && defined(__ARM_NEON)
#define HDHAM_NEON_KERNEL 1
#include <arm_neon.h>
#endif

namespace hdham::distance
{

namespace
{

#ifdef HDHAM_NEON_KERNEL

/** Byte popcounts of (a[w..w+1] ^ b[w..w+1]). */
inline uint8x16_t
xorCounts(const std::uint64_t *a, const std::uint64_t *b,
          std::size_t w)
{
    return vcntq_u8(vreinterpretq_u8_u64(
        veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w))));
}

/** Fold sixteen byte counts (each <= 16) into a u64x2 addend. */
inline uint64x2_t
widen(uint8x16_t bytes)
{
    return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(bytes)));
}

std::size_t
neonHamming(const std::uint64_t *a, const std::uint64_t *b,
            std::size_t bits)
{
    const std::size_t fullWords = bits / 64;
    uint64x2_t acc = vdupq_n_u64(0);
    std::size_t w = 0;
    for (; w + 4 <= fullWords; w += 4) {
        // Two vectors' byte counts sum to at most 16 per lane --
        // safe to add as bytes before the single widening chain.
        const uint8x16_t counts =
            vaddq_u8(xorCounts(a, b, w), xorCounts(a, b, w + 2));
        acc = vaddq_u64(acc, widen(counts));
    }
    std::size_t count = static_cast<std::size_t>(
        vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1));
    for (; w < fullWords; ++w)
        count += std::popcount(a[w] ^ b[w]);
    return count + detail::maskedTail(a, b, fullWords, bits % 64);
}

void
neonCountBlock(const std::uint64_t *const *factors, std::size_t arity,
               std::size_t m, std::uint64_t *planes, std::size_t words,
               std::size_t planeCount)
{
    detail::countBlock<2>(factors, arity, m, planes, words, planeCount);
}

void
neonMajority(const std::uint64_t *const *factors, std::size_t arity,
             std::size_t m, std::size_t words, std::uint64_t *greater,
             std::uint64_t *ties)
{
    detail::majorityMasks<2>(factors, arity, m, words, greater, ties);
}

void
neonNibbleHistogram(const std::uint64_t *a, const std::uint64_t *b,
                    std::size_t firstBlock, std::size_t lastBlock,
                    std::uint32_t *hist)
{
    detail::nibbleHistogram<2>(a, b, firstBlock, lastBlock, hist);
}

bool
neonAvailable()
{
    return true;
}

#endif // HDHAM_NEON_KERNEL

} // namespace

namespace detail
{

const KernelEntry &
neonKernel()
{
#ifdef HDHAM_NEON_KERNEL
    static const KernelEntry entry{
        "neon",
        "vcntq_u8 byte popcount with widening pairwise adds",
        "AArch64 (AdvSIMD)",
        true,
        &neonAvailable,
        &neonHamming,
        &neonCountBlock,
        &neonMajority,
        &neonNibbleHistogram,
    };
#else
    static const KernelEntry entry{
        "neon",
        "vcntq_u8 byte popcount with widening pairwise adds",
        "AArch64 (AdvSIMD)",
        false,
        +[] { return false; },
        &scalarHamming,
        &scalarCountBlock,
        &scalarMajority,
        &scalarNibbleHistogram,
    };
#endif
    return entry;
}

} // namespace detail

} // namespace hdham::distance
