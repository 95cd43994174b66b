#include "core/bundler.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace hdham
{

namespace
{

/** Planes that hold a block's 0..kBlock sum. */
constexpr std::size_t kSumPlanes = std::bit_width(Bundler::kBlock);

/**
 * Words the kernel processes side by side: one 128-bit vector, a width
 * every x86-64 (SSE2) and AArch64 (NEON) target has.
 */
constexpr std::size_t kLanes = 2;

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

template <typename V>
inline V
load(const std::uint64_t *words)
{
    V v = {};
    std::memcpy(&v, words, sizeof v);
    return v;
}

template <typename V>
inline void
store(std::uint64_t *words, V v)
{
    std::memcpy(words, &v, sizeof v);
}

/** Carry-save adder: a + b + c == 2 * high + low, bit by bit. */
template <typename V>
inline void
csa(V &high, V &low, V a, V b, V c)
{
    const V u = a ^ b;
    high = (a & b) | (u & c);
    low = u ^ c;
}

/**
 * The counting kernel on words [w, w + L) of every plane: add @p m <=
 * kBlock bound vectors to the counts, vector j being the XOR of the
 * @p arity rows at factors[j * arity]. A Harley-Seal tree of
 * carry-save adders sums the block into five register planes, which
 * then ripple into the @p planeCount wide planes, @p stride words
 * apart, until the carry dies out. A nonzero Arity fixes the arity at
 * compile time, so the factor loop unrolls.
 */
template <std::size_t L, std::size_t Arity>
void
countWords(const std::uint64_t *const *factors, std::size_t arity,
           std::size_t m, std::size_t w, std::uint64_t *planes,
           std::size_t stride, std::size_t planeCount)
{
    static_assert(Bundler::kBlock == 16, "the tree sums 16 vectors");
    using V = typename Lanes<L>::type;
    const std::size_t n = Arity != 0 ? Arity : arity;
    const auto input = [&](std::size_t j) {
        V v = {};
        if (j < m) {
            const std::uint64_t *const *rows = factors + j * n;
            for (std::size_t k = 0; k < n; ++k)
                v ^= load<V>(rows[k] + w);
        }
        return v;
    };
    V ones = {}, twos = {}, fours = {}, eights = {}, sixteens = {};
    V twosA = {}, twosB = {}, foursA = {}, foursB = {};
    V eightsA = {}, eightsB = {};
    csa(twosA, ones, ones, input(0), input(1));
    csa(twosB, ones, ones, input(2), input(3));
    csa(foursA, twos, twos, twosA, twosB);
    csa(twosA, ones, ones, input(4), input(5));
    csa(twosB, ones, ones, input(6), input(7));
    csa(foursB, twos, twos, twosA, twosB);
    csa(eightsA, fours, fours, foursA, foursB);
    csa(twosA, ones, ones, input(8), input(9));
    csa(twosB, ones, ones, input(10), input(11));
    csa(foursA, twos, twos, twosA, twosB);
    csa(twosA, ones, ones, input(12), input(13));
    csa(twosB, ones, ones, input(14), input(15));
    csa(foursB, twos, twos, twosA, twosB);
    csa(eightsB, fours, fours, foursA, foursB);
    csa(sixteens, eights, eights, eightsA, eightsB);
    const V sum[kSumPlanes] = {ones, twos, fours, eights, sixteens};

    V carry = {};
    std::size_t p = 0;
    for (; p < kSumPlanes; ++p) {
        std::uint64_t *plane = planes + p * stride + w;
        const V a = load<V>(plane);
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
        const V a = load<V>(plane);
        store(plane, a ^ carry);
        carry &= a;
    }
}

/** The counting kernel over all @p words words of the planes. */
template <std::size_t Arity>
void
countBlock(const std::uint64_t *const *factors, std::size_t arity,
           std::size_t m, std::uint64_t *planes, std::size_t words,
           std::size_t planeCount)
{
    std::size_t w = 0;
    for (; w + kLanes <= words; w += kLanes)
        countWords<kLanes, Arity>(factors, arity, m, w, planes, words,
                                  planeCount);
    for (; w < words; ++w)
        countWords<1, Arity>(factors, arity, m, w, planes, words,
                             planeCount);
}

} // namespace

Bundler::Bundler(std::size_t dim)
    : numBits(dim),
      numWords((dim + Hypervector::bitsPerWord - 1) /
               Hypervector::bitsPerWord),
      planeCount(kSumPlanes),
      storage((kBlock + kSumPlanes) * numWords, 0)
{
}

void
Bundler::add(const Hypervector &hv)
{
    assert(hv.dim() == numBits);
    std::copy(hv.data(), hv.data() + numWords,
              storage.data() + pendingCount * numWords);
    if (++pendingCount == kBlock)
        foldPending();
}

void
Bundler::addBound(const std::uint64_t *const *factors, std::size_t arity,
                  std::size_t count)
{
    for (std::size_t start = 0; start < count; start += kBlock) {
        const std::size_t m = std::min(kBlock, count - start);
        growPlanes(m);
        accumulate(factors + start * arity, arity, m);
    }
}

void
Bundler::growPlanes(std::size_t m) const
{
    const auto needed = static_cast<std::size_t>(
        std::bit_width(counted + m));
    if (needed > planeCount) {
        planeCount = needed;
        storage.resize((kBlock + planeCount) * numWords, 0);
    }
}

void
Bundler::accumulate(const std::uint64_t *const *factors,
                    std::size_t arity, std::size_t m) const
{
    assert(m <= kBlock && arity > 0);
    // Single adds (arity 1) and the paper's trigrams (arity 3) run
    // with the factor loop unrolled.
    switch (arity) {
    case 1:
        countBlock<1>(factors, arity, m, plane(0), numWords, planeCount);
        break;
    case 3:
        countBlock<3>(factors, arity, m, plane(0), numWords, planeCount);
        break;
    default:
        countBlock<0>(factors, arity, m, plane(0), numWords, planeCount);
        break;
    }
    counted += m;
}

void
Bundler::foldPending() const
{
    if (pendingCount == 0)
        return;
    // Grow first: growing may move the pending rows.
    growPlanes(pendingCount);
    const std::uint64_t *rows[kBlock] = {};
    for (std::size_t j = 0; j < pendingCount; ++j)
        rows[j] = storage.data() + j * numWords;
    accumulate(rows, 1, pendingCount);
    pendingCount = 0;
}

std::uint32_t
Bundler::onesCount(std::size_t i) const
{
    assert(i < numBits);
    foldPending();
    const std::size_t w = i / Hypervector::bitsPerWord;
    const unsigned bit = i % Hypervector::bitsPerWord;
    std::uint64_t ones = 0;
    for (std::size_t p = 0; p < planeCount; ++p)
        ones |= ((plane(p)[w] >> bit) & 1ULL) << p;
    return static_cast<std::uint32_t>(ones);
}

Hypervector
Bundler::majority(Rng &rng) const
{
    if (count() == 0)
        throw std::logic_error("Bundler::majority: nothing accumulated");
    foldPending();
    // A component is set when its count exceeds half = floor(n/2),
    // i.e. when twice the count exceeds n; it ties when n is even and
    // the count equals half. Both masks come from one bit-sliced
    // compare against half, most significant plane first. Padding
    // components count 0, which equals half only for n = 1 (odd).
    const std::uint64_t half = counted / 2;
    const bool even = counted % 2 == 0;
    std::vector<std::uint64_t> words(numWords);
    for (std::size_t w = 0; w < numWords; ++w) {
        std::uint64_t greater = 0, equal = ~0ULL;
        for (std::size_t p = planeCount; p-- > 0;) {
            const std::uint64_t x = plane(p)[w];
            if ((half >> p) & 1ULL) {
                equal &= x;
            } else {
                greater |= equal & x;
                equal &= ~x;
            }
        }
        if (even) {
            for (std::uint64_t tie = equal; tie != 0; tie &= tie - 1) {
                if (rng.nextBool())
                    greater |= tie & (~tie + 1);
            }
        }
        words[w] = greater;
    }
    return Hypervector::fromWords(numBits, words.data());
}

void
Bundler::clear()
{
    counted = 0;
    pendingCount = 0;
    std::fill(storage.begin(), storage.end(), 0);
}

} // namespace hdham
