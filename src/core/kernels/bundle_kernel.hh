/**
 * @file
 * The bundling count kernel, one template for every tier.
 *
 * Bundler (core/bundler.hh) keeps bit-sliced ones-counts: plane p
 * holds bit p of every component's count, packed 64 components per
 * word. countBlock<L> adds m <= Bundler::kBlock bound vectors to those
 * planes, vector j being the XOR of the arity rows at
 * factors[j * arity]. A Harley-Seal tree of carry-save adders sums the
 * block into five register planes, which then ripple into the wide
 * planes until the carry dies out.
 *
 * L is the words per step. Each tier's translation unit calls
 * countBlock at its own width from a function carrying its target
 * attribute (scalar 1, sse2 and neon 2, avx2 4, avx512 8). The ragged
 * tail steps down through the narrower widths, at most one step each:
 * 157 words = 19 * 8 + 4 + 1 at D = 10,000. Every width computes the
 * same integer counts, so the tier never changes a count, a majority
 * or a model byte.
 *
 * Everything here has internal linkage and is force-inlined into the
 * tier's function, so it is compiled for that tier's target only.
 * Nothing outside src/core/kernels/ includes this header.
 */

#ifndef HDHAM_CORE_KERNELS_BUNDLE_KERNEL_HH
#define HDHAM_CORE_KERNELS_BUNDLE_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/bundler.hh"

// Every function here is force-inlined and takes or returns no vector
// by value: an out-of-line helper returning a 64-byte vector crashed
// its AVX-512 caller (GCC's -Wpsabi ABI warning).

namespace hdham::distance::detail
{

namespace
{

static_assert(Bundler::kBlock == 16 && Bundler::kSumPlanes == 5,
              "the tree sums 16 vectors into five planes");

/**
 * L consecutive words of a row or plane as one GCC/Clang generic
 * vector, which the compiler maps onto the target's SIMD registers.
 */
template <std::size_t L>
struct Lanes
{
    typedef std::uint64_t type
        __attribute__((vector_size(L * sizeof(std::uint64_t))));
};

/**
 * The block being counted: vector j is the XOR of the @p arity rows
 * at factors[j * arity], and vectors j >= m are zero.
 */
struct BoundBlock
{
    const std::uint64_t *const *factors;
    std::size_t arity;
    std::size_t m;
};

template <typename V>
[[gnu::always_inline]] inline void
load(V &v, const std::uint64_t *words)
{
    std::memcpy(&v, words, sizeof v);
}

template <typename V>
[[gnu::always_inline]] inline void
store(std::uint64_t *words, const V &v)
{
    std::memcpy(words, &v, sizeof v);
}

/**
 * Carry-save adder: a + b + c == 2 * high + low, bit by bit. The
 * outputs may alias the inputs.
 */
template <typename V>
[[gnu::always_inline]] inline void
csa(V &high, V &low, const V &a, const V &b, const V &c)
{
    const V u = a ^ b;
    const V h = (a & b) | (u & c);
    const V l = u ^ c;
    high = h;
    low = l;
}

/**
 * Words [w, w + L) of block vector @p j into @p v. A nonzero Arity
 * fixes the arity at compile time, so the factor loop unrolls.
 */
template <std::size_t Arity, typename V>
[[gnu::always_inline]] inline void
input(V &v, const BoundBlock &block, std::size_t w, std::size_t j)
{
    v = V{};
    if (j >= block.m)
        return;
    const std::size_t n = Arity != 0 ? Arity : block.arity;
    const std::uint64_t *const *rows = block.factors + j * n;
    for (std::size_t k = 0; k < n; ++k) {
        V row = {};
        load(row, rows[k] + w);
        v ^= row;
    }
}

/** Carry-save add block vectors @p j and j + 1 to @p low. */
template <std::size_t Arity, typename V>
[[gnu::always_inline]] inline void
csaInputs(V &high, V &low, const BoundBlock &block, std::size_t w,
          std::size_t j)
{
    V a = {}, b = {};
    input<Arity>(a, block, w, j);
    input<Arity>(b, block, w, j + 1);
    csa(high, low, low, a, b);
}

/**
 * The count on words [w, w + L) of every plane: sum the block in
 * registers, then add the sum to the @p planeCount planes, @p stride
 * words apart.
 */
template <std::size_t L, std::size_t Arity>
[[gnu::always_inline]] inline void
countWords(const BoundBlock &block, std::size_t w,
           std::uint64_t *planes, std::size_t stride,
           std::size_t planeCount)
{
    using V = typename Lanes<L>::type;
    V ones = {}, twos = {}, fours = {}, eights = {}, sixteens = {};
    V twosA = {}, twosB = {}, foursA = {}, foursB = {};
    V eightsA = {}, eightsB = {};
    csaInputs<Arity>(twosA, ones, block, w, 0);
    csaInputs<Arity>(twosB, ones, block, w, 2);
    csa(foursA, twos, twos, twosA, twosB);
    csaInputs<Arity>(twosA, ones, block, w, 4);
    csaInputs<Arity>(twosB, ones, block, w, 6);
    csa(foursB, twos, twos, twosA, twosB);
    csa(eightsA, fours, fours, foursA, foursB);
    csaInputs<Arity>(twosA, ones, block, w, 8);
    csaInputs<Arity>(twosB, ones, block, w, 10);
    csa(foursA, twos, twos, twosA, twosB);
    csaInputs<Arity>(twosA, ones, block, w, 12);
    csaInputs<Arity>(twosB, ones, block, w, 14);
    csa(foursB, twos, twos, twosA, twosB);
    csa(eightsB, fours, fours, foursA, foursB);
    csa(sixteens, eights, eights, eightsA, eightsB);
    const V sum[Bundler::kSumPlanes] = {ones, twos, fours, eights,
                                        sixteens};

    V carry = {};
    std::size_t p = 0;
    for (; p < Bundler::kSumPlanes; ++p) {
        std::uint64_t *plane = planes + p * stride + w;
        V a = {};
        load(a, plane);
        const V u = a ^ sum[p];
        store(plane, u ^ carry);
        carry = (a & sum[p]) | (u & carry);
    }
    for (; p < planeCount; ++p) {
        std::uint64_t live = 0;
        for (std::size_t i = 0; i < L; ++i)
            live |= carry[i];
        if (live == 0)
            break;
        std::uint64_t *plane = planes + p * stride + w;
        V a = {};
        load(a, plane);
        store(plane, a ^ carry);
        carry &= a;
    }
}

/**
 * The count over all @p words words of the planes: L words per step,
 * then the tail, which is under L words, in one step of each narrower
 * width.
 */
template <std::size_t L, std::size_t Arity>
[[gnu::always_inline]] inline void
countSpan(const BoundBlock &block, std::uint64_t *planes,
          std::size_t words, std::size_t planeCount)
{
    static_assert(L == 1 || L == 2 || L == 4 || L == 8);
    std::size_t w = 0;
    for (; w + L <= words; w += L)
        countWords<L, Arity>(block, w, planes, words, planeCount);
    if constexpr (L > 4) {
        if (w + 4 <= words) {
            countWords<4, Arity>(block, w, planes, words, planeCount);
            w += 4;
        }
    }
    if constexpr (L > 2) {
        if (w + 2 <= words) {
            countWords<2, Arity>(block, w, planes, words, planeCount);
            w += 2;
        }
    }
    if constexpr (L > 1) {
        if (w < words)
            countWords<1, Arity>(block, w, planes, words, planeCount);
    }
}

/**
 * The block-count kernel at L words per step (CountBlockFn in
 * core/distance.hh). Single adds (arity 1) and the paper's trigrams
 * (arity 3) run with the factor loop unrolled.
 */
template <std::size_t L>
[[gnu::always_inline]] inline void
countBlock(const std::uint64_t *const *factors, std::size_t arity,
           std::size_t m, std::uint64_t *planes, std::size_t words,
           std::size_t planeCount)
{
    const BoundBlock block{factors, arity, m};
    switch (arity) {
    case 1:
        countSpan<L, 1>(block, planes, words, planeCount);
        break;
    case 3:
        countSpan<L, 3>(block, planes, words, planeCount);
        break;
    default:
        countSpan<L, 0>(block, planes, words, planeCount);
        break;
    }
}

} // namespace

} // namespace hdham::distance::detail

#endif // HDHAM_CORE_KERNELS_BUNDLE_KERNEL_HH
