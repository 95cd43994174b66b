#include "core/encoder.hh"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/distance.hh"

namespace hdham
{

namespace
{

/**
 * The short-text path's buffers, kept per thread and grown, never
 * shrunk, so an encode allocates only the vector it returns. Buffers
 * freed per call would leave holes between the query vectors a
 * held-out encode keeps, and grow its heap.
 */
struct ShortBuffers
{
    std::vector<const std::uint64_t *> factors;
    /** The greater mask, then the tie mask. */
    std::vector<std::uint64_t> masks;
};

thread_local ShortBuffers buffers;

} // namespace

Encoder::Encoder(const ItemMemory &items, std::size_t n)
    : n(n), dimension(items.dim()),
      words((dimension + Hypervector::bitsPerWord - 1) /
            Hypervector::bitsPerWord),
      symbols(items.size()),
      rowWords((words + kLineWords - 1) / kLineWords * kLineWords),
      distinctNgrams(1)
{
    if (n == 0)
        throw std::invalid_argument("Encoder: n must be positive");
    constexpr std::size_t limit =
        std::numeric_limits<std::size_t>::max();
    for (std::size_t k = 0; k < n; ++k) {
        distinctNgrams = distinctNgrams > limit / TextAlphabet::size
                             ? limit
                             : distinctNgrams * TextAlphabet::size;
    }
    // Rotation-major, as row() reads them; the padding stays zero.
    rows.resize(n * symbols * rowWords);
    std::uint64_t *out = rows.data();
    for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t s = 0; s < symbols; ++s, out += rowWords) {
            const Hypervector rotated = items[s].rotated(p);
            std::copy(rotated.data(), rotated.data() + words, out);
        }
    }
}

Hypervector
Encoder::encodeNgram(const std::vector<std::size_t> &ids) const
{
    assert(ids.size() == n);
    // Oldest symbol gets the most rotation: for a-b-c the result is
    // rho^2(A) ^ rho(B) ^ C.
    const std::uint64_t *oldest = row(n - 1, ids[0]);
    std::vector<std::uint64_t> result(oldest, oldest + words);
    for (std::size_t i = 1; i < n; ++i) {
        const std::uint64_t *factor = row(n - 1 - i, ids[i]);
        for (std::size_t w = 0; w < words; ++w)
            result[w] ^= factor[w];
    }
    return Hypervector::fromWords(dimension, result.data());
}

std::size_t
Encoder::encodeInto(const std::string &text, Bundler &bundler) const
{
    assert(bundler.dim() == dimension);
    if (text.size() < n)
        return 0;
    std::vector<std::size_t> ids(text.size());
    for (std::size_t i = 0; i < text.size(); ++i)
        ids[i] = TextAlphabet::symbolOf(text[i]);
    const std::size_t grams = ids.size() - n + 1;
    if (grams >= distinctNgrams)
        countInto(ids, bundler);
    else
        streamInto(ids, bundler);
    return grams;
}

void
Encoder::streamInto(const std::vector<std::size_t> &ids,
                    Bundler &bundler) const
{
    // Hand the bundler each n-gram as its n rotated seed rows, oldest
    // symbol (most rotation) first, one kernel block at a time; the
    // bundler XORs them in registers.
    const std::size_t grams = ids.size() - n + 1;
    std::vector<const std::uint64_t *> factors(Bundler::kBlock * n);
    for (std::size_t start = 0; start < grams; start += Bundler::kBlock) {
        const std::size_t m = std::min(Bundler::kBlock, grams - start);
        for (std::size_t j = 0; j < m; ++j) {
            for (std::size_t k = 0; k < n; ++k)
                factors[j * n + k] = row(n - 1 - k, ids[start + j + k]);
        }
        bundler.addBound(factors.data(), n, m);
    }
}

void
Encoder::countInto(const std::vector<std::size_t> &ids,
                   Bundler &bundler) const
{
    // Count each n-gram under its base-27 code, oldest symbol most
    // significant. The code rolls along the text: append the newest
    // symbol, count, then subtract the oldest one's digit.
    constexpr std::size_t base = TextAlphabet::size;
    const std::size_t oldestWeight = distinctNgrams / base;
    std::vector<std::size_t> counts(distinctNgrams, 0);
    std::size_t code = 0;
    for (std::size_t i = 0; i + 1 < n; ++i)
        code = code * base + ids[i];
    for (std::size_t i = n - 1; i < ids.size(); ++i) {
        code = code * base + ids[i];
        ++counts[code];
        code -= ids[i + 1 - n] * oldestWeight;
    }

    // Bit p of every count is one pass over the table: the n-grams
    // whose count has it set, in blocks weighted 2^p. The code's
    // digits give each n-gram's rows, as streamInto lays them out.
    const std::size_t most = *std::max_element(counts.begin(), counts.end());
    std::vector<const std::uint64_t *> factors(Bundler::kBlock * n);
    for (unsigned shift = 0; (most >> shift) != 0; ++shift) {
        std::size_t m = 0;
        for (std::size_t gram = 0; gram < distinctNgrams; ++gram) {
            if (((counts[gram] >> shift) & 1) == 0)
                continue;
            std::size_t rest = gram;
            for (std::size_t k = n; k-- > 0; rest /= base)
                factors[m * n + k] = row(n - 1 - k, rest % base);
            if (++m == Bundler::kBlock) {
                bundler.addBound(factors.data(), n, m, shift);
                m = 0;
            }
        }
        if (m > 0)
            bundler.addBound(factors.data(), n, m, shift);
    }
}

Hypervector
Encoder::encode(const std::string &text, Rng &rng) const
{
    if (text.size() < n)
        throw std::invalid_argument("Encoder::encode: text shorter "
                                    "than the n-gram size");
    const std::size_t grams = text.size() - n + 1;
    if (grams <= distance::kMajorityMaxInputs)
        return encodeShort(text, grams, rng);
    Bundler bundler(dimension);
    encodeInto(text, bundler);
    return bundler.majority(rng);
}

Hypervector
Encoder::encodeShort(const std::string &text, std::size_t grams,
                     Rng &rng) const
{
    // The kernel takes each n-gram as its n rotated rows, oldest
    // symbol (most rotation) first, as streamInto lays them out.
    if (buffers.factors.size() < grams * n)
        buffers.factors.resize(grams * n);
    if (buffers.masks.size() < 2 * words)
        buffers.masks.resize(2 * words);
    const std::uint64_t **factors = buffers.factors.data();
    for (std::size_t j = 0; j < grams; ++j) {
        for (std::size_t k = 0; k < n; ++k)
            factors[j * n + k] =
                row(n - 1 - k, TextAlphabet::symbolOf(text[j + k]));
    }
    std::uint64_t *greater = buffers.masks.data();
    std::uint64_t *ties = greater + words;
    distance::activeEntry().majority(factors, n, grams, words, greater,
                                     ties);
    Bundler::fillTies(greater, ties, words, rng);
    return Hypervector::fromWords(dimension, greater);
}

} // namespace hdham
