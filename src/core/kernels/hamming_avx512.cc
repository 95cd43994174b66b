/**
 * @file
 * AVX-512 tier. Hamming kernel: VPOPCNTQ counts all eight qwords of
 * a 512-bit XOR in one instruction, so the exact loop is just xor +
 * popcnt + add per cache line. Roughly 2x the AVX2 nibble-lookup
 * kernel on hosts that have it (Ice Lake and newer, Zen 4 and
 * newer). Bundling count and majority kernels: bundle_kernel.hh at
 * eight words per step, one 512-bit vector.
 *
 * Availability needs two cpuid bits: avx512f (the 512-bit register
 * file itself) and avx512vpopcntdq (the popcount instruction);
 * __builtin_cpu_supports also folds in the XCR0 OS-enablement
 * check, so a kernel-disabled AVX-512 host correctly reports
 * unavailable.
 */

#include "core/kernels/bundle_kernel.hh"
#include "core/kernels/hamming_kernels.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HDHAM_AVX512_KERNEL 1
#include <immintrin.h>
#endif

namespace hdham::distance
{

namespace
{

#ifdef HDHAM_AVX512_KERNEL

__attribute__((target("avx512f,avx512vpopcntdq"))) std::size_t
avx512Hamming(const std::uint64_t *a, const std::uint64_t *b,
              std::size_t bits)
{
    const std::size_t fullWords = bits / 64;
    __m512i acc = _mm512_setzero_si512();
    std::size_t w = 0;
    // Eight words per step; the qword lanes cannot overflow (each
    // grows by at most 64 per step).
    for (; w + 8 <= fullWords; w += 8) {
        const __m512i x = _mm512_xor_si512(
            _mm512_loadu_si512(a + w), _mm512_loadu_si512(b + w));
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
    }
    std::size_t count =
        static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
    for (; w < fullWords; ++w)
        count += std::popcount(a[w] ^ b[w]);
    return count + detail::maskedTail(a, b, fullWords, bits % 64);
}

__attribute__((target("avx512f,avx512vpopcntdq"))) void
avx512CountBlock(const std::uint64_t *const *factors, std::size_t arity,
                 std::size_t m, std::uint64_t *planes, std::size_t words,
                 std::size_t planeCount)
{
    detail::countBlock<8>(factors, arity, m, planes, words, planeCount);
}

__attribute__((target("avx512f,avx512vpopcntdq"))) void
avx512Majority(const std::uint64_t *const *factors, std::size_t arity,
               std::size_t m, std::size_t words, std::uint64_t *greater,
               std::uint64_t *ties)
{
    detail::majorityMasks<8>(factors, arity, m, words, greater, ties);
}

bool
avx512Available()
{
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512vpopcntdq") != 0;
}

#endif // HDHAM_AVX512_KERNEL

} // namespace

namespace detail
{

const KernelEntry &
avx512Kernel()
{
#ifdef HDHAM_AVX512_KERNEL
    static const KernelEntry entry{
        "avx512",
        "512-bit VPOPCNTQ, eight words per step",
        "x86-64 with AVX-512 VPOPCNTDQ",
        true,
        &avx512Available,
        &avx512Hamming,
        &avx512CountBlock,
        &avx512Majority,
    };
#else
    static const KernelEntry entry{
        "avx512",
        "512-bit VPOPCNTQ, eight words per step",
        "x86-64 with AVX-512 VPOPCNTDQ",
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
