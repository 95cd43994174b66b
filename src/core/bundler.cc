#include "core/bundler.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "core/distance.hh"

namespace hdham
{

static_assert(Bundler::kSumPlanes == distance::kRegisterPlanes,
              "the planes from a pass's shift up hold its sum");

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
    checkRoom(1, 0);
    std::copy(hv.data(), hv.data() + numWords,
              storage.data() + pendingCount * numWords);
    if (++pendingCount == kBlock)
        foldPending();
}

void
Bundler::addBound(const std::uint64_t *const *factors, std::size_t arity,
                  std::size_t count, unsigned shift)
{
    if (count == 0)
        return;
    checkRoom(count, shift);
    growPlanes(std::uint64_t{count} << shift, shift + kSumPlanes);
    for (std::size_t start = 0; start < count;
         start += distance::kMaxPassInputs) {
        const std::size_t m =
            std::min(distance::kMaxPassInputs, count - start);
        accumulate(factors + start * arity, arity, m, shift);
    }
}

void
Bundler::checkRoom(std::uint64_t count, unsigned shift) const
{
    // The room is below 2^32, so any shift of 32 or more leaves none
    // (and a shift of 64 or more would be undefined).
    const std::uint64_t room = kMaxCount - this->count();
    if (shift >= 32 || count > room >> shift) {
        throw std::length_error("Bundler: the count would reach 2^32, "
                                "past its 32-bit counts");
    }
}

void
Bundler::growPlanes(std::uint64_t more, std::size_t least) const
{
    const std::size_t needed = std::max<std::size_t>(
        std::bit_width(counted + more), least);
    if (needed > planeCount) {
        planeCount = needed;
        storage.resize((kBlock + planeCount) * numWords, 0);
    }
}

void
Bundler::accumulate(const std::uint64_t *const *factors,
                    std::size_t arity, std::size_t m,
                    unsigned shift) const
{
    assert(m <= distance::kMaxPassInputs && arity > 0 &&
           shift + kSumPlanes <= planeCount);
    // The kernel adds the block's sum to the planes it is given, so
    // handing it the planes from `shift` up adds the sum times
    // 2^shift.
    distance::activeEntry().countBlock(factors, arity, m, plane(shift),
                                       numWords, planeCount - shift);
    counted += std::uint64_t{m} << shift;
}

void
Bundler::foldPending() const
{
    if (pendingCount == 0)
        return;
    // Grow first: growing may move the pending rows.
    growPlanes(pendingCount, kSumPlanes);
    const std::uint64_t *rows[kBlock] = {};
    for (std::size_t j = 0; j < pendingCount; ++j)
        rows[j] = storage.data() + j * numWords;
    accumulate(rows, 1, pendingCount, 0);
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
    std::vector<std::uint64_t> masks(2 * numWords);
    compare(masks.data(), masks.data() + numWords);
    fillTies(masks.data(), masks.data() + numWords, numWords, rng);
    return Hypervector::fromWords(numBits, masks.data());
}

void
Bundler::compare(std::uint64_t *greater, std::uint64_t *ties) const
{
    // A component is set when its count exceeds half = floor(n/2),
    // i.e. when twice the count exceeds n; it ties when n is even and
    // the count equals half. Both masks come from one bit-sliced
    // compare against half, most significant plane first. Padding
    // components count 0, which equals half only for n = 1 (odd).
    const std::uint64_t half = counted / 2;
    const bool even = counted % 2 == 0;
    for (std::size_t w = 0; w < numWords; ++w) {
        std::uint64_t more = 0, equal = ~0ULL;
        for (std::size_t p = planeCount; p-- > 0;) {
            const std::uint64_t x = plane(p)[w];
            if ((half >> p) & 1ULL) {
                equal &= x;
            } else {
                more |= equal & x;
                equal &= ~x;
            }
        }
        greater[w] = more;
        ties[w] = even ? equal : 0;
    }
}

void
Bundler::fillTies(std::uint64_t *greater, const std::uint64_t *ties,
                  std::size_t words, Rng &rng)
{
    // One draw per tie: nextBool() is true exactly when bit 63 of
    // next() is clear, so this fills the same bits from the same
    // stream without a branch on the coin.
    for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t tie = ties[w]; tie != 0; tie &= tie - 1)
            greater[w] |= tie & (~tie + 1) & ((rng.next() >> 63) - 1);
    }
}

void
Bundler::clear()
{
    counted = 0;
    pendingCount = 0;
    std::fill(storage.begin(), storage.end(), 0);
}

} // namespace hdham
