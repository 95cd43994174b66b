#include "core/encoder.hh"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/distance.hh"
#include "core/trace.hh"

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
    TRACE_SPAN("encoder.build");
    if (n == 0)
        throw std::invalid_argument("Encoder: n must be positive");
    // encode() indexes the row table by TextAlphabet::symbolOf.
    if (symbols < TextAlphabet::size)
        throw std::invalid_argument(
            "Encoder: the item memory holds " + std::to_string(symbols) +
            " seeds, fewer than the " +
            std::to_string(TextAlphabet::size) + " text symbols");
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
    const std::size_t grams = text.size() - n + 1;
    // Checked before anything is counted: it keeps the bundler
    // unchanged when it throws, and the counted path's 32-bit counts
    // and codes from wrapping.
    if (grams > Bundler::kMaxCount - bundler.count()) {
        throw std::length_error("Encoder::encodeInto: the bundler's "
                                "count would reach 2^32");
    }
    if (grams >= distinctNgrams)
        countInto(text, bundler);
    else
        streamInto(text, bundler);
    return grams;
}

void
Encoder::ngramRows(const std::string &text, std::size_t start,
                   std::size_t m, const std::uint64_t **factors) const
{
    for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t k = 0; k < n; ++k) {
            factors[j * n + k] = row(
                n - 1 - k, TextAlphabet::symbolOf(text[start + j + k]));
        }
    }
}

void
Encoder::streamInto(const std::string &text, Bundler &bundler) const
{
    const std::size_t grams = text.size() - n + 1;
    const std::size_t most = distance::kMaxPassInputs;
    std::vector<const std::uint64_t *> factors(std::min(most, grams) * n);
    for (std::size_t start = 0; start < grams; start += most) {
        const std::size_t m = std::min(most, grams - start);
        ngramRows(text, start, m, factors.data());
        bundler.addBound(factors.data(), n, m);
    }
}

void
Encoder::countInto(const std::string &text, Bundler &bundler) const
{
    // Count each n-gram under its base-27 code, oldest symbol most
    // significant, straight from the text's bytes. The code rolls
    // along the text: append the newest symbol, count, then subtract
    // the oldest one's digit. encodeInto has checked that the text
    // holds fewer than 2^32 n-grams, so neither a count nor a code
    // (below 27^n, at most the n-gram count) wraps.
    constexpr std::uint32_t base = TextAlphabet::size;
    const auto digit = [&text](std::size_t i) {
        return static_cast<std::uint32_t>(TextAlphabet::symbolOf(text[i]));
    };
    const auto oldestWeight =
        static_cast<std::uint32_t>(distinctNgrams / base);
    std::vector<std::uint32_t> counts(distinctNgrams, 0);
    std::uint32_t code = 0;
    for (std::size_t i = 0; i + 1 < n; ++i)
        code = code * base + digit(i);
    for (std::size_t i = n - 1; i < text.size(); ++i) {
        code = code * base + digit(i);
        ++counts[code];
        code -= digit(i + 1 - n) * oldestWeight;
    }

    // The distinct n-grams, compacted once, in code order: their codes
    // in codes[], their counts moved down in counts[]. Every loop from
    // here on is branch-free: it writes each entry and advances its end
    // by the entry's bit, so codes[] has room for one write past the
    // distinct n-grams.
    const std::size_t distinct = static_cast<std::size_t>(
        counts.size() - std::count(counts.begin(), counts.end(), 0u));
    std::vector<std::uint32_t> codes(distinct + 1);
    std::size_t live = 0;
    for (std::size_t gram = 0; gram < distinctNgrams; ++gram) {
        const std::uint32_t count = counts[gram];
        codes[live] = static_cast<std::uint32_t>(gram);
        counts[live] = count;
        live += count != 0;
    }

    // Bit p of every count is one addBound call: the n-grams whose
    // count has it set, each weighted 2^p. The same walk drops the
    // n-grams with no higher bit, so each bit walks only the n-grams
    // still live. The code's digits give each n-gram's rows, as
    // ngramRows lays them out.
    std::vector<std::uint32_t> chosen(live);
    std::vector<const std::uint64_t *> factors;
    for (unsigned shift = 0; live != 0; ++shift) {
        std::size_t m = 0, kept = 0;
        for (std::size_t i = 0; i < live; ++i) {
            const std::uint32_t gram = codes[i];
            const std::uint32_t count = counts[i];
            chosen[m] = gram;
            m += (count >> shift) & 1;
            codes[kept] = gram;
            counts[kept] = count;
            kept += (count >> shift) > 1;
        }
        live = kept;
        // Bit 0 usually selects the most, so this grows once or twice.
        if (factors.size() < m * n)
            factors.resize(m * n);
        for (std::size_t j = 0; j < m; ++j) {
            std::uint32_t rest = chosen[j];
            for (std::size_t k = n; k-- > 0; rest /= base)
                factors[j * n + k] = row(n - 1 - k, rest % base);
        }
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
    if (grams <= distance::kMaxPassInputs)
        return encodeShort(text, grams, rng);
    Bundler bundler(dimension);
    encodeInto(text, bundler);
    return bundler.majority(rng);
}

Hypervector
Encoder::encodeShort(const std::string &text, std::size_t grams,
                     Rng &rng) const
{
    if (buffers.factors.size() < grams * n)
        buffers.factors.resize(grams * n);
    if (buffers.masks.size() < 2 * words)
        buffers.masks.resize(2 * words);
    const std::uint64_t **factors = buffers.factors.data();
    ngramRows(text, 0, grams, factors);
    std::uint64_t *greater = buffers.masks.data();
    std::uint64_t *ties = greater + words;
    distance::activeEntry().majority(factors, n, grams, words, greater,
                                     ties);
    Bundler::fillTies(greater, ties, words, rng);
    return Hypervector::fromWords(dimension, greater);
}

} // namespace hdham
