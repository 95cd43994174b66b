/**
 * @file
 * The bundling kernels, one template each for every tier: the count
 * and the short-text majority. They share one accumulation and differ
 * only in its final step.
 *
 * The accumulation (sumInputs) sums m <= kMaxPassInputs = 255 bound
 * vectors on one word span into kRegisterPlanes = 8 register planes,
 * plane p holding bit p of every component's count. Vector j is the
 * XOR of the arity rows at factors[j * arity]. A Harley-Seal tree of
 * carry-save adders takes the vectors 16 at a time; its ones, twos,
 * fours and eights carry from one 16 to the next and are planes 0..3
 * of the count, and the one sixteens vector each 16 yields ripples
 * into a four-plane counter, planes 4..7. Since m < 2^8, the top
 * plane never carries out and no count is stored while it grows.
 *
 * The final steps:
 *
 *  - countBlock<L> (CountBlockFn in core/distance.hh) adds the eight
 *    planes into the caller's bit-sliced counts, the planes of a
 *    Bundler (core/bundler.hh) from the caller's shift up, and
 *    ripples the carry into the planes above until it dies out.
 *  - majorityMasks<L> (MajorityFn) compares the eight planes with
 *    floor(m / 2), as Bundler::majority compares its planes, and
 *    writes only the greater and tie masks. They are exactly those of
 *    the same vectors counted by countBlock.
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

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/distance.hh"

// Every function here is force-inlined and takes or returns no vector
// by value: an out-of-line helper returning a 64-byte vector crashed
// its AVX-512 caller (GCC's -Wpsabi ABI warning).

namespace hdham::distance::detail
{

namespace
{

/** Vectors the Harley-Seal tree takes per step. */
constexpr std::size_t kTreeInputs = 16;

static_assert(kRegisterPlanes == 8 && kMaxPassInputs == 255,
              "four tree planes and four planes counting its sixteens "
              "hold a pass of up to 255 vectors");

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
 * The vectors of one kernel pass: vector j is the XOR of the @p arity
 * rows at factors[j * arity], for j < m.
 */
struct BoundInputs
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
 * Words [w, w + L) of vector @p j into @p v. A nonzero Arity fixes
 * the arity at compile time, so the factor loop unrolls. Unless
 * Whole, vectors j >= m are zero.
 */
template <std::size_t Arity, bool Whole, typename V>
[[gnu::always_inline]] inline void
input(V &v, const BoundInputs &inputs, std::size_t w, std::size_t j)
{
    v = V{};
    if (!Whole && j >= inputs.m)
        return;
    const std::size_t n = Arity != 0 ? Arity : inputs.arity;
    const std::uint64_t *const *rows = inputs.factors + j * n;
    // Without the pragma the fixed-arity loop stays rolled inside the
    // tree step loop.
#pragma GCC unroll 4
    for (std::size_t k = 0; k < n; ++k) {
        V row = {};
        load(row, rows[k] + w);
        v ^= row;
    }
}

/** Carry-save add vectors @p j and j + 1 to @p low. */
template <std::size_t Arity, bool Whole, typename V>
[[gnu::always_inline]] inline void
csaInputs(V &high, V &low, const BoundInputs &inputs, std::size_t w,
          std::size_t j)
{
    V a = {}, b = {};
    input<Arity, Whole>(a, inputs, w, j);
    input<Arity, Whole>(b, inputs, w, j + 1);
    csa(high, low, low, a, b);
}

/**
 * One step of the Harley-Seal tree: add vectors [j, j + 16) to
 * @p count on words [w, w + L). Planes 0..3 are the tree's ones,
 * twos, fours and eights, carried in and out; the step's one sixteens
 * vector is added to the counter in planes 4..7. Whole steps take 16
 * vectors below m, so they skip the bound check.
 */
template <std::size_t Arity, bool Whole, typename V>
[[gnu::always_inline]] inline void
treeStep(V (&count)[kRegisterPlanes], const BoundInputs &inputs,
         std::size_t w, std::size_t j)
{
    V &ones = count[0], &twos = count[1], &fours = count[2],
      &eights = count[3];
    V twosA = {}, twosB = {}, foursA = {}, foursB = {};
    V eightsA = {}, eightsB = {}, sixteens = {};
    csaInputs<Arity, Whole>(twosA, ones, inputs, w, j);
    csaInputs<Arity, Whole>(twosB, ones, inputs, w, j + 2);
    csa(foursA, twos, twos, twosA, twosB);
    csaInputs<Arity, Whole>(twosA, ones, inputs, w, j + 4);
    csaInputs<Arity, Whole>(twosB, ones, inputs, w, j + 6);
    csa(foursB, twos, twos, twosA, twosB);
    csa(eightsA, fours, fours, foursA, foursB);
    csaInputs<Arity, Whole>(twosA, ones, inputs, w, j + 8);
    csaInputs<Arity, Whole>(twosB, ones, inputs, w, j + 10);
    csa(foursA, twos, twos, twosA, twosB);
    csaInputs<Arity, Whole>(twosA, ones, inputs, w, j + 12);
    csaInputs<Arity, Whole>(twosB, ones, inputs, w, j + 14);
    csa(foursB, twos, twos, twosA, twosB);
    csa(eightsB, fours, fours, foursA, foursB);
    csa(sixteens, eights, eights, eightsA, eightsB);
    // The plane loops are unrolled so that count[] lives in registers:
    // a rolled loop indexes it, which keeps it on the stack.
#pragma GCC unroll 4
    for (std::size_t p = 4; p < kRegisterPlanes; ++p) {
        const V carry = count[p] & sixteens;
        count[p] ^= sixteens;
        sixteens = carry;
    }
}

/**
 * The accumulation both kernels share: the 0..m count of the
 * m <= kMaxPassInputs vectors of @p inputs on words [w, w + L), bit p
 * in @p count[p], summed 16 vectors to a tree step.
 */
template <std::size_t Arity, typename V>
[[gnu::always_inline]] inline void
sumInputs(V (&count)[kRegisterPlanes], const BoundInputs &inputs,
          std::size_t w)
{
#pragma GCC unroll 8
    for (std::size_t p = 0; p < kRegisterPlanes; ++p)
        count[p] = V{};
    std::size_t j = 0;
    for (; j + kTreeInputs <= inputs.m; j += kTreeInputs)
        treeStep<Arity, true>(count, inputs, w, j);
    if (j < inputs.m)
        treeStep<Arity, false>(count, inputs, w, j);
}

/**
 * The count on words [w, w + L) of every plane: sum the inputs in
 * registers, then add the sum to the @p planeCount >= kRegisterPlanes
 * planes, @p stride words apart, rippling the carry up until it dies.
 */
template <std::size_t L, std::size_t Arity>
[[gnu::always_inline]] inline void
countWords(const BoundInputs &inputs, std::size_t w,
           std::uint64_t *planes, std::size_t stride,
           std::size_t planeCount)
{
    using V = typename Lanes<L>::type;
    V count[kRegisterPlanes];
    sumInputs<Arity>(count, inputs, w);

    V carry = {};
#pragma GCC unroll 8
    for (std::size_t p = 0; p < kRegisterPlanes; ++p) {
        std::uint64_t *plane = planes + p * stride + w;
        V a = {};
        load(a, plane);
        const V u = a ^ count[p];
        store(plane, u ^ carry);
        carry = (a & count[p]) | (u & carry);
    }
    for (std::size_t p = kRegisterPlanes; p < planeCount; ++p) {
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
 * sum them in registers, then compare the count with half =
 * floor(m / 2), most significant plane first. A component is greater
 * when its count exceeds half, and ties when m is even and its count
 * equals half.
 */
template <std::size_t L, std::size_t Arity>
[[gnu::always_inline]] inline void
majorityWords(const BoundInputs &text, std::size_t w,
              std::uint64_t *greater, std::uint64_t *ties)
{
    using V = typename Lanes<L>::type;
    V count[kRegisterPlanes];
    sumInputs<Arity>(count, text, w);

    const std::size_t half = text.m / 2;
    V more = {}, equal = ~V{};
#pragma GCC unroll 8
    for (std::size_t i = 1; i <= kRegisterPlanes; ++i) {
        const std::size_t p = kRegisterPlanes - i;
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
    BoundInputs inputs;
    std::uint64_t *planes;
    std::size_t stride;
    std::size_t planeCount;

    template <std::size_t L>
    [[gnu::always_inline]] void
    run(std::size_t w) const
    {
        countWords<L, Arity>(inputs, w, planes, stride, planeCount);
    }
};

/** majorityWords as a span step (see eachSpan). */
template <std::size_t Arity>
struct MajorityStep
{
    BoundInputs text;
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

/** The count kernel at L words per step (CountBlockFn). */
template <std::size_t L>
[[gnu::always_inline]] inline void
countBlock(const std::uint64_t *const *factors, std::size_t arity,
           std::size_t m, std::uint64_t *planes, std::size_t words,
           std::size_t planeCount)
{
    byArity<L, CountStep>(arity, words, BoundInputs{factors, arity, m},
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
                             BoundInputs{factors, arity, m}, greater,
                             ties);
}

} // namespace

} // namespace hdham::distance::detail

#endif // HDHAM_CORE_KERNELS_BUNDLE_KERNEL_HH
