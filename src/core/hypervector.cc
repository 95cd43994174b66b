#include "core/hypervector.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "core/distance.hh"

namespace hdham
{

Hypervector::Hypervector(std::size_t dim)
    : numBits(dim),
      storage((dim + bitsPerWord - 1) / bitsPerWord, 0)
{
}

Hypervector
Hypervector::random(std::size_t dim, Rng &rng)
{
    Hypervector hv(dim);
    for (auto &word : hv.storage)
        word = rng.next();
    hv.clearTail();
    return hv;
}

Hypervector
Hypervector::randomBalanced(std::size_t dim, Rng &rng)
{
    Hypervector hv(dim);
    std::vector<std::uint32_t> idx(dim);
    std::iota(idx.begin(), idx.end(), 0);
    // Partial Fisher-Yates: choose dim/2 positions without replacement.
    const std::size_t ones = dim / 2;
    for (std::size_t i = 0; i < ones; ++i) {
        const std::size_t j = i + rng.nextBelow(dim - i);
        std::swap(idx[i], idx[j]);
        hv.set(idx[i], true);
    }
    return hv;
}

Hypervector
Hypervector::fromString(const std::string &bits)
{
    Hypervector hv(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i] != '0' && bits[i] != '1')
            throw std::invalid_argument("Hypervector::fromString: "
                                        "expected only '0'/'1'");
        hv.set(i, bits[i] == '1');
    }
    return hv;
}

Hypervector
Hypervector::fromWords(std::size_t dim, const std::uint64_t *words)
{
    Hypervector hv(dim);
    std::copy(words, words + hv.storage.size(),
              hv.storage.begin());
    hv.clearTail();
    return hv;
}

bool
Hypervector::get(std::size_t i) const
{
    assert(i < numBits);
    return (storage[i / bitsPerWord] >> (i % bitsPerWord)) & 1ULL;
}

void
Hypervector::set(std::size_t i, bool value)
{
    assert(i < numBits);
    const std::uint64_t mask = 1ULL << (i % bitsPerWord);
    if (value)
        storage[i / bitsPerWord] |= mask;
    else
        storage[i / bitsPerWord] &= ~mask;
}

void
Hypervector::flip(std::size_t i)
{
    assert(i < numBits);
    storage[i / bitsPerWord] ^= 1ULL << (i % bitsPerWord);
}

std::size_t
Hypervector::popcount() const
{
    std::size_t count = 0;
    for (const auto word : storage)
        count += std::popcount(word);
    return count;
}

std::size_t
Hypervector::hamming(const Hypervector &other) const
{
    assert(other.numBits == numBits);
    return distance::hamming(storage.data(), other.storage.data(),
                             numBits);
}

std::size_t
Hypervector::hammingPrefix(const Hypervector &other,
                           std::size_t prefix) const
{
    assert(other.numBits == numBits);
    assert(prefix <= numBits);
    return distance::hamming(storage.data(), other.storage.data(),
                             prefix);
}

Hypervector
Hypervector::operator^(const Hypervector &other) const
{
    Hypervector result(*this);
    result ^= other;
    return result;
}

Hypervector &
Hypervector::operator^=(const Hypervector &other)
{
    assert(other.numBits == numBits);
    for (std::size_t i = 0; i < storage.size(); ++i)
        storage[i] ^= other.storage[i];
    // XOR of two clean tails stays clean.
    return *this;
}

Hypervector
Hypervector::rotated(std::size_t amount) const
{
    if (numBits == 0)
        return *this;
    amount %= numBits;
    if (amount == 0)
        return *this;
    Hypervector result(numBits);
    // Word-level rotation when the dimension is word-aligned and the
    // shift is word-aligned; generic bit loop otherwise. Every
    // dimension that is not a multiple of 64 takes the bit loop, the
    // paper's D = 10,000 included: an Encoder at that D builds its 54
    // rotated seeds here, ~2 ms on a 4-core x86-64 VM, once per train
    // and once per served Classify, which builds its own encoder.
    if (numBits % bitsPerWord == 0 && amount % bitsPerWord == 0) {
        const std::size_t wordShift = amount / bitsPerWord;
        const std::size_t n = storage.size();
        for (std::size_t i = 0; i < n; ++i)
            result.storage[(i + wordShift) % n] = storage[i];
        return result;
    }
    if (numBits % bitsPerWord == 0) {
        // Word-aligned dimension, arbitrary shift: each destination word
        // is the current word shifted up stitched with the carry bits of
        // its cyclic predecessor.
        const std::size_t wordShift = amount / bitsPerWord;
        const unsigned bitShift = amount % bitsPerWord;
        const std::size_t n = storage.size();
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t cur = storage[i];
            const std::uint64_t prev = storage[(i + n - 1) % n];
            result.storage[(i + wordShift) % n] =
                (cur << bitShift) | (prev >> (bitsPerWord - bitShift));
        }
        return result;
    }
    for (std::size_t i = 0; i < numBits; ++i)
        result.set((i + amount) % numBits, get(i));
    return result;
}

void
Hypervector::injectErrors(std::size_t count, Rng &rng)
{
    assert(count <= numBits);
    // Floyd's algorithm samples `count` distinct indices in O(count)
    // expected time; the membership test uses a flat bitmap.
    std::vector<bool> chosen(numBits, false);
    for (std::size_t j = numBits - count; j < numBits; ++j) {
        std::size_t t = rng.nextBelow(j + 1);
        if (chosen[t])
            t = j;
        chosen[t] = true;
        flip(t);
    }
}

bool
Hypervector::operator==(const Hypervector &other) const
{
    return numBits == other.numBits && storage == other.storage;
}

std::string
Hypervector::toString() const
{
    std::string s(numBits, '0');
    for (std::size_t i = 0; i < numBits; ++i)
        if (get(i))
            s[i] = '1';
    return s;
}

void
Hypervector::clearTail()
{
    const std::size_t rem = numBits % bitsPerWord;
    if (rem && !storage.empty())
        storage.back() &= (1ULL << rem) - 1;
}

} // namespace hdham
