/**
 * @file
 * Internal glue between the tiers' kernels and the registry.
 *
 * Each tier's translation unit (hamming_<name>.cc) implements its
 * exact Hamming kernel, its bundling count and majority kernels
 * (bundle_kernel.hh at the tier's width) and its block histogram
 * (nibble_kernel.hh at the same width), wraps them in a
 * self-describing KernelEntry, and exposes that entry through
 * the accessor declared here; kernel_registry.cc collects the
 * accessors into the ordered table behind distance::kernels().
 * Nothing outside src/core/kernels/ includes this header -- callers
 * go through the registry.
 *
 * The helper below encodes the contract every Hamming kernel shares:
 * ragged-tail masking (the final partial word's padding bits never
 * count).
 */

#ifndef HDHAM_CORE_KERNELS_HAMMING_KERNELS_HH
#define HDHAM_CORE_KERNELS_HAMMING_KERNELS_HH

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/distance.hh"

namespace hdham::distance::detail
{

/**
 * Shared tail: the last (bits % 64) components live in word
 * @p fullWords and must be masked so row padding never counts.
 */
inline std::size_t
maskedTail(const std::uint64_t *a, const std::uint64_t *b,
           std::size_t fullWords, std::size_t rem)
{
    if (rem == 0)
        return 0;
    const std::uint64_t mask = (1ULL << rem) - 1;
    return static_cast<std::size_t>(
        std::popcount((a[fullWords] ^ b[fullWords]) & mask));
}

/**
 * The scalar tier's count kernel, one word per step: also the
 * fallback cross-architecture registry entries point at.
 */
void scalarCountBlock(const std::uint64_t *const *factors,
                      std::size_t arity, std::size_t m,
                      std::uint64_t *planes, std::size_t words,
                      std::size_t planeCount);

/**
 * The scalar tier's majority kernel, one word per step: also the
 * fallback cross-architecture registry entries point at.
 */
void scalarMajority(const std::uint64_t *const *factors,
                    std::size_t arity, std::size_t m, std::size_t words,
                    std::uint64_t *greater, std::uint64_t *ties);

/**
 * The scalar tier's block histogram, one word per step: also the
 * fallback cross-architecture registry entries point at.
 */
void scalarNibbleHistogram(const std::uint64_t *a, const std::uint64_t *b,
                           std::size_t firstBlock, std::size_t lastBlock,
                           std::uint32_t *hist);

/** One entry per backend translation unit, in kernel_registry.cc
 *  order (narrowest first). */
const KernelEntry &scalarKernel();
const KernelEntry &sse2Kernel();
const KernelEntry &neonKernel();
const KernelEntry &avx2Kernel();
const KernelEntry &avx512Kernel();

} // namespace hdham::distance::detail

#endif // HDHAM_CORE_KERNELS_HAMMING_KERNELS_HH
