#include "core/encoder.hh"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

namespace hdham
{

Encoder::Encoder(const ItemMemory &items, std::size_t n)
    : items(items), n(n), dimension(items.dim())
{
    if (n == 0)
        throw std::invalid_argument("Encoder: n must be positive");
    rotatedSeeds.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
        rotatedSeeds[p].reserve(items.size());
        for (std::size_t s = 0; s < items.size(); ++s)
            rotatedSeeds[p].push_back(items[s].rotated(p));
    }
}

Hypervector
Encoder::encodeNgram(const std::vector<std::size_t> &symbols) const
{
    assert(symbols.size() == n);
    // Oldest symbol gets the most rotation: for a-b-c the result is
    // rho^2(A) ^ rho(B) ^ C.
    Hypervector result = rotatedSeeds[n - 1][symbols[0]];
    for (std::size_t i = 1; i < n; ++i)
        result ^= rotatedSeeds[n - 1 - i][symbols[i]];
    return result;
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

    // Hand the bundler each n-gram as its n rotated seed rows, oldest
    // symbol (most rotation) first, one kernel block at a time; the
    // bundler XORs them in registers.
    const std::size_t grams = ids.size() - n + 1;
    std::vector<const std::uint64_t *> factors(Bundler::kBlock * n);
    for (std::size_t start = 0; start < grams; start += Bundler::kBlock) {
        const std::size_t m = std::min(Bundler::kBlock, grams - start);
        for (std::size_t j = 0; j < m; ++j) {
            for (std::size_t k = 0; k < n; ++k)
                factors[j * n + k] =
                    rotatedSeeds[n - 1 - k][ids[start + j + k]].data();
        }
        bundler.addBound(factors.data(), n, m);
    }
    return grams;
}

Hypervector
Encoder::encode(const std::string &text, Rng &rng) const
{
    if (text.size() < n)
        throw std::invalid_argument("Encoder::encode: text shorter "
                                    "than the n-gram size");
    Bundler bundler(dimension);
    encodeInto(text, bundler);
    return bundler.majority(rng);
}

} // namespace hdham
