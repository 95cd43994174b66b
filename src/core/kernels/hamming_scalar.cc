/**
 * @file
 * Reference scalar tier: one std::popcount per 64-bit word, and the
 * bundling count, majority and block histogram one word per step.
 * Every other tier must match it bit for bit; its count, majority and
 * histogram kernels are also the fallbacks cross-architecture
 * registry entries point at.
 */

#include "core/kernels/bundle_kernel.hh"
#include "core/kernels/hamming_kernels.hh"
#include "core/kernels/nibble_kernel.hh"

namespace hdham::distance
{

std::size_t
scalarHamming(const std::uint64_t *a, const std::uint64_t *b,
              std::size_t bits)
{
    const std::size_t fullWords = bits / 64;
    std::size_t count = 0;
    for (std::size_t w = 0; w < fullWords; ++w)
        count += std::popcount(a[w] ^ b[w]);
    return count + detail::maskedTail(a, b, fullWords, bits % 64);
}

namespace detail
{

void
scalarCountBlock(const std::uint64_t *const *factors, std::size_t arity,
                 std::size_t m, std::uint64_t *planes, std::size_t words,
                 std::size_t planeCount)
{
    countBlock<1>(factors, arity, m, planes, words, planeCount);
}

void
scalarMajority(const std::uint64_t *const *factors, std::size_t arity,
               std::size_t m, std::size_t words, std::uint64_t *greater,
               std::uint64_t *ties)
{
    majorityMasks<1>(factors, arity, m, words, greater, ties);
}

void
scalarNibbleHistogram(const std::uint64_t *a, const std::uint64_t *b,
                      std::size_t firstBlock, std::size_t lastBlock,
                      std::uint32_t *hist)
{
    nibbleHistogram<1>(a, b, firstBlock, lastBlock, hist);
}

namespace
{

bool
always()
{
    return true;
}

} // namespace

const KernelEntry &
scalarKernel()
{
    static const KernelEntry entry{
        "scalar",
        "one std::popcount per 64-bit word (reference oracle)",
        "any host",
        true,
        &always,
        &scalarHamming,
        &scalarCountBlock,
        &scalarMajority,
        &scalarNibbleHistogram,
    };
    return entry;
}

} // namespace detail

} // namespace hdham::distance
