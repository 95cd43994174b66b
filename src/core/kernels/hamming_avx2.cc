/**
 * @file
 * AVX2 tier. Hamming kernel: 256-bit VPSHUFB nibble-lookup popcount
 * (Mula's method) with VPSADBW lane accumulation, four words per
 * vector step. Bundling count and majority kernels:
 * bundle_kernel.hh at four words per step. All are compiled with a
 * per-function target attribute so the rest of the binary stays
 * baseline; the registry's availability predicate (cpuid) decides
 * whether they may be installed.
 */

#include "core/kernels/bundle_kernel.hh"
#include "core/kernels/hamming_kernels.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HDHAM_AVX2_KERNEL 1
#include <immintrin.h>
#endif

namespace hdham::distance
{

namespace
{

#ifdef HDHAM_AVX2_KERNEL

/** Per-byte popcount of @p v via the VPSHUFB nibble lookup. */
__attribute__((target("avx2"))) inline __m256i
popcountBytes(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

__attribute__((target("avx2"))) std::size_t
avx2Hamming(const std::uint64_t *a, const std::uint64_t *b,
            std::size_t bits)
{
    const std::size_t fullWords = bits / 64;
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = zero;
    std::size_t w = 0;
    for (; w + 4 <= fullWords; w += 4) {
        const __m256i x = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + w)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + w)));
        // VPSADBW folds the 32 byte counts into 4 qword lanes; the
        // lanes cannot overflow (each grows by at most 64 per step).
        acc = _mm256_add_epi64(acc,
                               _mm256_sad_epu8(popcountBytes(x),
                                               zero));
    }
    std::uint64_t lanes[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc);
    std::size_t count = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; w < fullWords; ++w)
        count += std::popcount(a[w] ^ b[w]);
    return count + detail::maskedTail(a, b, fullWords, bits % 64);
}

__attribute__((target("avx2"))) void
avx2CountBlock(const std::uint64_t *const *factors, std::size_t arity,
               std::size_t m, std::uint64_t *planes, std::size_t words,
               std::size_t planeCount)
{
    detail::countBlock<4>(factors, arity, m, planes, words, planeCount);
}

__attribute__((target("avx2"))) void
avx2Majority(const std::uint64_t *const *factors, std::size_t arity,
             std::size_t m, std::size_t words, std::uint64_t *greater,
             std::uint64_t *ties)
{
    detail::majorityMasks<4>(factors, arity, m, words, greater, ties);
}

bool
avx2Available()
{
    return __builtin_cpu_supports("avx2") != 0;
}

#endif // HDHAM_AVX2_KERNEL

} // namespace

namespace detail
{

const KernelEntry &
avx2Kernel()
{
#ifdef HDHAM_AVX2_KERNEL
    static const KernelEntry entry{
        "avx2",
        "256-bit VPSHUFB nibble-lookup popcount (Mula)",
        "x86-64 with AVX2",
        true,
        &avx2Available,
        &avx2Hamming,
        &avx2CountBlock,
        &avx2Majority,
    };
#else
    static const KernelEntry entry{
        "avx2",
        "256-bit VPSHUFB nibble-lookup popcount (Mula)",
        "x86-64 with AVX2",
        false,
        +[] { return false; },
        &scalarHamming,
        &scalarCountBlock,
        &scalarMajority,
    };
#endif
    return entry;
}

} // namespace detail

} // namespace hdham::distance
