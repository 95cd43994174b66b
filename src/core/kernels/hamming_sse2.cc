/**
 * @file
 * SSE2 tier. Hamming kernel: 128-bit SWAR byte popcount (the
 * Hacker's-Delight halving sequence on sixteen bytes at once)
 * folded into per-qword sums by PSADBW, two words per vector step.
 * Bundling count and majority kernels: bundle_kernel.hh at two
 * words per step; block histogram: nibble_kernel.hh at two.
 *
 * SSE2 is part of the x86-64 baseline, so this backend is available
 * on *every* x86-64 host -- it is the SIMD floor for machines that
 * predate AVX2. No PSHUFB here (that is SSSE3): the halving
 * sequence shifts whole qwords and relies on the byte masks to
 * clear the bits that bleed across byte boundaries, which is why
 * each mask step both combines counts and sanitizes the shift.
 *
 * On non-x86 builds the entry stays registered (compiled == false)
 * with scalar fallbacks so lookups and listings are uniform.
 */

#include "core/kernels/bundle_kernel.hh"
#include "core/kernels/hamming_kernels.hh"
#include "core/kernels/nibble_kernel.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HDHAM_SSE2_KERNEL 1
#include <immintrin.h>
#endif

namespace hdham::distance
{

namespace
{

#ifdef HDHAM_SSE2_KERNEL

/**
 * Per-64-bit-lane popcount of @p v: the byte-wise halving sequence
 * leaves each byte holding its own popcount (<= 8), then PSADBW
 * sums the eight bytes of each qword into that qword's low bits.
 */
__attribute__((target("sse2"))) inline __m128i
laneCounts(__m128i v)
{
    const __m128i m1 = _mm_set1_epi8(0x55);
    const __m128i m2 = _mm_set1_epi8(0x33);
    const __m128i m4 = _mm_set1_epi8(0x0f);
    v = _mm_sub_epi8(v, _mm_and_si128(_mm_srli_epi64(v, 1), m1));
    v = _mm_add_epi8(_mm_and_si128(v, m2),
                     _mm_and_si128(_mm_srli_epi64(v, 2), m2));
    v = _mm_and_si128(_mm_add_epi8(v, _mm_srli_epi64(v, 4)), m4);
    return _mm_sad_epu8(v, _mm_setzero_si128());
}

/** Sum of the two qword lanes of @p acc. */
__attribute__((target("sse2"))) inline std::size_t
lanesSum(__m128i acc)
{
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(_mm_cvtsi128_si64(acc)) +
        static_cast<std::uint64_t>(
            _mm_cvtsi128_si64(_mm_srli_si128(acc, 8))));
}

__attribute__((target("sse2"))) std::size_t
sse2Hamming(const std::uint64_t *a, const std::uint64_t *b,
            std::size_t bits)
{
    const std::size_t fullWords = bits / 64;
    __m128i acc = _mm_setzero_si128();
    std::size_t w = 0;
    // Two vectors (four words) per iteration; the qword lanes cannot
    // overflow (each grows by at most 64 per vector).
    for (; w + 4 <= fullWords; w += 4) {
        const __m128i x0 = _mm_xor_si128(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(a + w)),
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(b + w)));
        const __m128i x1 = _mm_xor_si128(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(a + w + 2)),
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(b + w + 2)));
        acc = _mm_add_epi64(
            acc, _mm_add_epi64(laneCounts(x0), laneCounts(x1)));
    }
    std::size_t count = lanesSum(acc);
    for (; w < fullWords; ++w)
        count += std::popcount(a[w] ^ b[w]);
    return count + detail::maskedTail(a, b, fullWords, bits % 64);
}

__attribute__((target("sse2"))) void
sse2CountBlock(const std::uint64_t *const *factors, std::size_t arity,
               std::size_t m, std::uint64_t *planes, std::size_t words,
               std::size_t planeCount)
{
    detail::countBlock<2>(factors, arity, m, planes, words, planeCount);
}

__attribute__((target("sse2"))) void
sse2Majority(const std::uint64_t *const *factors, std::size_t arity,
             std::size_t m, std::size_t words, std::uint64_t *greater,
             std::uint64_t *ties)
{
    detail::majorityMasks<2>(factors, arity, m, words, greater, ties);
}

__attribute__((target("sse2"))) void
sse2NibbleHistogram(const std::uint64_t *a, const std::uint64_t *b,
                    std::size_t firstBlock, std::size_t lastBlock,
                    std::uint32_t *hist)
{
    detail::nibbleHistogram<2>(a, b, firstBlock, lastBlock, hist);
}

bool
sse2Available()
{
    // SSE2 is architectural on x86-64; compiling for x86-64 is the
    // whole availability story.
    return true;
}

#endif // HDHAM_SSE2_KERNEL

} // namespace

namespace detail
{

const KernelEntry &
sse2Kernel()
{
#ifdef HDHAM_SSE2_KERNEL
    static const KernelEntry entry{
        "sse2",
        "128-bit SWAR byte popcount folded by PSADBW",
        "x86-64 (baseline)",
        true,
        &sse2Available,
        &sse2Hamming,
        &sse2CountBlock,
        &sse2Majority,
        &sse2NibbleHistogram,
    };
#else
    static const KernelEntry entry{
        "sse2",
        "128-bit SWAR byte popcount folded by PSADBW",
        "x86-64 (baseline)",
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
