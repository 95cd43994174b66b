/**
 * @file
 * The bundling kernels, one template each for every tier: the block
 * count and the short-text majority.
 *
 * Bundler (core/bundler.hh) keeps bit-sliced ones-counts: plane p
 * holds bit p of every component's count, packed 64 components per
 * word. countBlock<L> adds m <= Bundler::kBlock bound vectors to those
 * planes, vector j being the XOR of the arity rows at
 * factors[j * arity]. A Harley-Seal tree of carry-save adders sums the
 * block into five register planes, which then ripple into the wide
 * planes until the carry dies out.
 *
 * majorityMasks<L> is the tier's fourth kernel (MajorityFn in
 * core/distance.hh). It takes all m < 2^kMajorityPlanes bound vectors
 * of a short text at once. On each word span it runs the same tree
 * over every block of 16 and ripples each block's sum into
 * kMajorityPlanes register planes, so no count is ever stored. It
 * then compares the planes with floor(m / 2), as Bundler::majority
 * compares its planes, and writes only the greater and tie masks.
 * Since m < 2^kMajorityPlanes, the top plane never carries out, and
 * the masks are exactly those of the same vectors counted by
 * countBlock.
 *
 * L is the words per step. Each tier's translation unit calls
 * both kernels at its own width from functions carrying its target
 * attribute (scalar 1, sse2 and neon 2, avx2 4, avx512 8). The ragged
 * tail steps down through the narrower widths, at most one step each:
 * 157 words = 19 * 8 + 4 + 1 at D = 10,000. Every width computes the
 * same integer counts, so the tier never changes a count, a mask, a
 * majority or a model byte.
 *
 * Everything here has internal linkage and is force-inlined into the
 * tier's function, so it is compiled for that tier's target only.
 * Nothing outside src/core/kernels/ includes this header.
 */

#ifndef HDHAM_CORE_KERNELS_BUNDLE_KERNEL_HH
#define HDHAM_CORE_KERNELS_BUNDLE_KERNEL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/bundler.hh"
#include "core/distance.hh"

// Every function here is force-inlined and takes or returns no vector
// by value: an out-of-line helper returning a 64-byte vector crashed
// its AVX-512 caller (GCC's -Wpsabi ABI warning).

namespace hdham::distance::detail
{

namespace
{

static_assert(Bundler::kBlock == 16 && Bundler::kSumPlanes == 5,
              "the tree sums 16 vectors into five planes");
static_assert(kMajorityPlanes >= Bundler::kSumPlanes,
              "a block's sum fits the majority's planes");

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
 * The Harley-Seal tree: the 0..16 sum of the block's vectors on words
 * [w, w + L), bit p in @p sum[p].
 */
template <std::size_t Arity, typename V>
[[gnu::always_inline]] inline void
sumBlock(V (&sum)[Bundler::kSumPlanes], const BoundBlock &block,
         std::size_t w)
{
    V ones = {}, twos = {}, fours = {}, eights = {};
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
    csa(sum[4], eights, eights, eightsA, eightsB);
    sum[0] = ones;
    sum[1] = twos;
    sum[2] = fours;
    sum[3] = eights;
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
    V sum[Bundler::kSumPlanes];
    sumBlock<Arity>(sum, block, w);

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
 * The majority masks on words [w, w + L) of all @p text.m vectors:
 * count them a block at a time into kMajorityPlanes register planes,
 * then compare the count with half = floor(m / 2), most significant
 * plane first. A component is greater when its count exceeds half,
 * and ties when m is even and its count equals half.
 */
template <std::size_t L, std::size_t Arity>
[[gnu::always_inline]] inline void
majorityWords(const BoundBlock &text, std::size_t w,
              std::uint64_t *greater, std::uint64_t *ties)
{
    using V = typename Lanes<L>::type;
    V count[kMajorityPlanes] = {};
    for (std::size_t start = 0; start < text.m; start += Bundler::kBlock) {
        const BoundBlock block{text.factors + start * text.arity,
                               text.arity,
                               std::min(Bundler::kBlock, text.m - start)};
        V sum[Bundler::kSumPlanes];
        sumBlock<Arity>(sum, block, w);
        // The plane loops are unrolled so that count[] lives in
        // registers: a rolled loop indexes it, which keeps it on the
        // stack.
        V carry = {};
#pragma GCC unroll 8
        for (std::size_t p = 0; p < kMajorityPlanes; ++p) {
            const V addend = p < Bundler::kSumPlanes ? sum[p] : V{};
            const V u = count[p] ^ addend;
            const V next = (count[p] & addend) | (u & carry);
            count[p] = u ^ carry;
            carry = next;
        }
    }

    const std::size_t half = text.m / 2;
    V more = {}, equal = ~V{};
#pragma GCC unroll 8
    for (std::size_t i = 1; i <= kMajorityPlanes; ++i) {
        const std::size_t p = kMajorityPlanes - i;
        if ((half >> p) & 1) {
            equal &= count[p];
        } else {
            more |= equal & count[p];
            equal &= ~count[p];
        }
    }
    if (text.m % 2 != 0)
        equal = V{};
    store(greater + w, more);
    store(ties + w, equal);
}

/** countWords as a span step (see eachSpan). */
template <std::size_t Arity>
struct CountStep
{
    BoundBlock block;
    std::uint64_t *planes;
    std::size_t stride;
    std::size_t planeCount;

    template <std::size_t L>
    [[gnu::always_inline]] void
    run(std::size_t w) const
    {
        countWords<L, Arity>(block, w, planes, stride, planeCount);
    }
};

/** majorityWords as a span step (see eachSpan). */
template <std::size_t Arity>
struct MajorityStep
{
    BoundBlock text;
    std::uint64_t *greater;
    std::uint64_t *ties;

    template <std::size_t L>
    [[gnu::always_inline]] void
    run(std::size_t w) const
    {
        majorityWords<L, Arity>(text, w, greater, ties);
    }
};

/**
 * Run @p step over all @p words words: L words per step, then the
 * tail, which is under L words, in one step of each narrower width.
 */
template <std::size_t L, typename Step>
[[gnu::always_inline]] inline void
eachSpan(const Step &step, std::size_t words)
{
    static_assert(L == 1 || L == 2 || L == 4 || L == 8);
    std::size_t w = 0;
    for (; w + L <= words; w += L)
        step.template run<L>(w);
    if constexpr (L > 4) {
        if (w + 4 <= words) {
            step.template run<4>(w);
            w += 4;
        }
    }
    if constexpr (L > 2) {
        if (w + 2 <= words) {
            step.template run<2>(w);
            w += 2;
        }
    }
    if constexpr (L > 1) {
        if (w < words)
            step.template run<1>(w);
    }
}

/**
 * eachSpan of Step<Arity>{args...}. Single adds (arity 1) and the
 * paper's trigrams (arity 3) run with the factor loop unrolled; any
 * other arity takes the generic loop.
 */
template <std::size_t L, template <std::size_t> class Step,
          typename... Args>
[[gnu::always_inline]] inline void
byArity(std::size_t arity, std::size_t words, const Args &...args)
{
    switch (arity) {
    case 1:
        eachSpan<L>(Step<1>{args...}, words);
        break;
    case 3:
        eachSpan<L>(Step<3>{args...}, words);
        break;
    default:
        eachSpan<L>(Step<0>{args...}, words);
        break;
    }
}

/** The block-count kernel at L words per step (CountBlockFn). */
template <std::size_t L>
[[gnu::always_inline]] inline void
countBlock(const std::uint64_t *const *factors, std::size_t arity,
           std::size_t m, std::uint64_t *planes, std::size_t words,
           std::size_t planeCount)
{
    byArity<L, CountStep>(arity, words, BoundBlock{factors, arity, m},
                          planes, words, planeCount);
}

/** The majority kernel at L words per step (MajorityFn). */
template <std::size_t L>
[[gnu::always_inline]] inline void
majorityMasks(const std::uint64_t *const *factors, std::size_t arity,
              std::size_t m, std::size_t words, std::uint64_t *greater,
              std::uint64_t *ties)
{
    byArity<L, MajorityStep>(arity, words,
                             BoundBlock{factors, arity, m}, greater,
                             ties);
}

} // namespace

} // namespace hdham::distance::detail

#endif // HDHAM_CORE_KERNELS_BUNDLE_KERNEL_HH
