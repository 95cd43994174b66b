/**
 * @file
 * Item memory: the fixed table of orthogonal seed hypervectors.
 *
 * Random indexing assigns every basic symbol (the paper uses the 26
 * Latin letters plus space, 27 symbols total) a random seed hypervector
 * with an equal number of randomly placed 0s and 1s. The assignment is
 * fixed for the lifetime of the computation; any two seeds are nearly
 * orthogonal (distance ~ D/2).
 */

#ifndef HDHAM_CORE_ITEM_MEMORY_HH
#define HDHAM_CORE_ITEM_MEMORY_HH

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/hypervector.hh"
#include "core/random.hh"

namespace hdham
{

/**
 * Fixed store of seed hypervectors, one per symbol id in [0, size).
 */
class ItemMemory
{
  public:
    /**
     * Generate @p size balanced random seed hypervectors of dimension
     * @p dim, deterministically from @p seed.
     */
    ItemMemory(std::size_t size, std::size_t dim, std::uint64_t seed);

    /**
     * Rebuild an item memory from explicit seed hypervectors -- the
     * model loader's path (core/model_file.hh): a persisted model
     * carries the exact seeds it was trained with, so reloading
     * never depends on regenerating them from a seed value.
     * @throws std::invalid_argument when @p seeds is empty or the
     * dimensionalities disagree.
     */
    static ItemMemory fromVectors(std::vector<Hypervector> seeds);

    /** Number of symbols. */
    std::size_t size() const { return items.size(); }

    /** Dimensionality of the seeds. */
    std::size_t dim() const { return dimension; }

    /** Seed hypervector of symbol @p id. @pre id < size(). */
    const Hypervector &operator[](std::size_t id) const;

  private:
    /** For fromVectors. */
    explicit ItemMemory(std::size_t dim) : dimension(dim) {}

    std::size_t dimension;
    std::vector<Hypervector> items;
};

/**
 * The paper's text alphabet: 'a'..'z' plus space, 27 symbols.
 *
 * Maps a character to its symbol id; anything outside the alphabet
 * (digits, punctuation, bytes above 0x7f, ...) collapses to space, and
 * uppercase letters fold to lowercase, mirroring the usual
 * preprocessing of the language recognition pipeline. The rule is the
 * C locale's, fixed in a table, so no locale the host process sets
 * can change a symbol id.
 */
class TextAlphabet
{
  public:
    /** Number of symbols: 26 letters + space. */
    static constexpr std::size_t size = 27;

    /** Symbol id of the space character. */
    static constexpr std::size_t spaceId = 26;

    /** Map a character to a symbol id in [0, size). */
    static std::size_t
    symbolOf(char c)
    {
        return symbols[static_cast<unsigned char>(c)];
    }

    /** Map a symbol id back to its canonical character. */
    static char
    charOf(std::size_t id)
    {
        assert(id < size);
        return id == spaceId ? ' ' : static_cast<char>('a' + id);
    }

    /** Normalize a string to the 27-symbol alphabet. */
    static std::string normalize(const std::string &text);

  private:
    /** symbolOf() of every byte. */
    static constexpr std::array<std::uint8_t, 256> symbols = [] {
        std::array<std::uint8_t, 256> table{};
        for (std::size_t c = 0; c < table.size(); ++c) {
            if (c >= 'a' && c <= 'z')
                table[c] = static_cast<std::uint8_t>(c - 'a');
            else if (c >= 'A' && c <= 'Z')
                table[c] = static_cast<std::uint8_t>(c - 'A');
            else
                table[c] = spaceId;
        }
        return table;
    }();
};

} // namespace hdham

#endif // HDHAM_CORE_ITEM_MEMORY_HH
