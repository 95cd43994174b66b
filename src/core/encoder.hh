/**
 * @file
 * N-gram text encoder (Section II-A.1).
 *
 * A text is projected to a hypervector by bundling the hypervectors of
 * all its letter n-grams. The n-gram a-b-c (n = 3) is encoded as
 *
 *     rho(rho(A) ^ B) ^ C  =  rho^2(A) ^ rho(B) ^ C
 *
 * where A, B, C are the seed hypervectors of the letters and rho is the
 * cyclic permutation. Rotation of a seed by a fixed amount is
 * precomputed per (symbol, position) into one row table. Each row
 * starts on a 64-byte boundary and fills whole cache lines, so each
 * 8-word load of a kernel touches one line. An n-gram goes to a
 * kernel as pointers to its n rotated rows, and the kernel XORs them
 * word by word in registers, so no n-gram hypervector is ever stored.
 *
 * A text takes the first of three paths that fits it. All are exact:
 * every count, majority and Rng draw is that of add()ing each
 * n-gram's hypervector to a Bundler in turn.
 *
 *  - Registers: encode() of a text with fewer than 2^8 n-grams (a
 *    held-out sentence, a served or classified request). The active
 *    tier's majority kernel counts all of its n-grams in
 *    distance::kRegisterPlanes = 8 register planes and returns the
 *    greater and tie masks, and Bundler::fillTies breaks the ties. No
 *    Bundler is built and no count is stored. 2^8 - 1 is the most
 *    inputs eight planes hold (distance::kMaxPassInputs), so the
 *    cut-off follows from the kernel, not from a setting.
 *  - Counted: a text with at least 27^n n-grams (a training text, for
 *    trigrams), in one pass over its n-gram counts. The n-gram codes
 *    roll straight from the text's bytes into a table of 32-bit counts
 *    of all 27^n n-grams; the distinct n-grams are compacted once;
 *    then, for each bit p, a branch-free walk selects the n-grams
 *    whose count has bit p set, and one addBound call weights them
 *    2^p (Bundler::addBound's shift), up to 255 per kernel pass. The
 *    majority depends only on how often each distinct n-gram occurs,
 *    and a 120k-character training text holds ~8k distinct trigrams,
 *    so this takes far fewer kernel inputs. At that length the table
 *    is no larger than the text and repeats are certain.
 *  - Streamed: every other text, to the bundler up to 255 n-grams
 *    per addBound call. encode() streams only texts of 2^8 n-grams or
 *    more; encodeInto(), which adds to a caller's Bundler, streams any
 *    text below 27^n n-grams. Such texts hold mostly distinct n-grams,
 *    so counting them first would not pay.
 */

#ifndef HDHAM_CORE_ENCODER_HH
#define HDHAM_CORE_ENCODER_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/bundler.hh"
#include "core/hypervector.hh"
#include "core/item_memory.hh"
#include "core/random.hh"

namespace hdham
{

/**
 * Encodes letter sequences into text hypervectors with the rotate-bind
 * n-gram scheme.
 */
class Encoder
{
  public:
    /**
     * @param items item memory holding one seed per symbol id
     * @param n     n-gram size (the paper uses trigrams, n = 3)
     * @throws std::invalid_argument when n is 0, or when @p items
     * holds fewer than TextAlphabet::size seeds (a text symbol would
     * index past its row table).
     */
    Encoder(const ItemMemory &items, std::size_t n = 3);

    /** N-gram size. */
    std::size_t ngramSize() const { return n; }

    /** Hypervector dimensionality. */
    std::size_t dim() const { return dimension; }

    /**
     * Hypervector of the n-gram whose symbol ids are @p ids (exactly
     * n of them, oldest first).
     */
    Hypervector encodeNgram(const std::vector<std::size_t> &ids) const;

    /**
     * Bundle every n-gram of @p text (normalized to the 27-symbol
     * alphabet) into @p bundler. Returns the number of n-grams added.
     * Texts shorter than n contribute nothing. The counts, and so the
     * majority and its tie draws, are those of add()ing each n-gram's
     * hypervector in turn.
     *
     * Used directly for training, where one Bundler accumulates
     * n-grams across many samples of the same class.
     *
     * @pre bundler.dim() == dim().
     * @throws std::length_error, before adding anything, when the
     * n-grams would take bundler.count() past Bundler::kMaxCount.
     */
    std::size_t
    encodeInto(const std::string &text, Bundler &bundler) const;

    /**
     * Encode a complete text into its text hypervector: bundle all of
     * its n-grams and take the majority. @p rng breaks majority ties.
     * A text of fewer than 2^8 n-grams takes the register path (see
     * the file comment) and allocates only the vector it returns.
     *
     * @pre text contains at least n characters.
     */
    Hypervector encode(const std::string &text, Rng &rng) const;

  private:
    /** Words per cache line of the row table. */
    static constexpr std::size_t kLineWords = 8;
    static constexpr std::size_t kLineBytes =
        kLineWords * sizeof(std::uint64_t);

    /**
     * Starts every block on a cache line, so every copy of an Encoder
     * keeps its rows on line boundaries. It pads a plain operator new
     * by a line rather than calling aligned new: glibc's aligned
     * allocation frees slivers on either side of the block into its
     * caches, so a freed table could not merge back, and an Encoder
     * built per request (a served Classify) grew the heap by a table
     * each time.
     */
    template <typename T>
    struct LineAllocator
    {
        using value_type = T;

        LineAllocator() = default;

        template <typename U>
        LineAllocator(const LineAllocator<U> &)
        {
        }

        T *
        allocate(std::size_t count)
        {
            constexpr std::size_t pad = kLineBytes + sizeof(void *);
            if (count > (SIZE_MAX - pad) / sizeof(T))
                throw std::bad_array_new_length();
            // The block follows the first line boundary with room for
            // the address operator delete needs just before it.
            char *raw = static_cast<char *>(
                ::operator new(count * sizeof(T) + pad));
            char *block = raw + sizeof(void *);
            block += -reinterpret_cast<std::uintptr_t>(block) &
                     (kLineBytes - 1);
            std::memcpy(block - sizeof raw, &raw, sizeof raw);
            return reinterpret_cast<T *>(block);
        }

        void
        deallocate(T *block, std::size_t)
        {
            void *raw = nullptr;
            std::memcpy(&raw, reinterpret_cast<char *>(block) - sizeof raw,
                        sizeof raw);
            ::operator delete(raw);
        }

        friend bool
        operator==(const LineAllocator &, const LineAllocator &)
        {
            return true;
        }
    };

    /**
     * First word of rho^@p rotation(seed of symbol @p symbol): its
     * words() words, then zero padding to the end of its last line.
     */
    const std::uint64_t *
    row(std::size_t rotation, std::size_t symbol) const
    {
        return rows.data() + (rotation * symbols + symbol) * rowWords;
    }

    /**
     * The kernels' factors of the @p m n-grams of @p text from
     * position @p start: n row pointers each, oldest symbol (most
     * rotation) first, into factors[0 .. m * n).
     */
    void ngramRows(const std::string &text, std::size_t start,
                   std::size_t m, const std::uint64_t **factors) const;

    /**
     * encode() of a text of @p grams n-grams, 1 <= grams <=
     * distance::kMaxPassInputs, through the majority kernel.
     */
    Hypervector encodeShort(const std::string &text, std::size_t grams,
                            Rng &rng) const;

    /** Bundle the n-grams of @p text in order, 255 per call. */
    void streamInto(const std::string &text, Bundler &bundler) const;

    /**
     * Bundle the n-grams of @p text by their counts, each distinct
     * n-gram once per set bit of its count.
     */
    void countInto(const std::string &text, Bundler &bundler) const;

    std::size_t n;
    std::size_t dimension;
    /** Words of a hypervector: ceil(dimension / 64). */
    std::size_t words;
    /** Symbols in the item memory: the rows per rotation. */
    std::size_t symbols;
    /** Words from one row to the next: words, rounded up to a line. */
    std::size_t rowWords;
    /**
     * 27^n, the number of distinct n-grams (saturating at SIZE_MAX): a
     * text with at least this many n-grams is counted first.
     */
    std::size_t distinctNgrams;
    /**
     * The row table: row(p, s) = rho^p(seed of symbol s), for p in
     * [0, n), rotation-major. Position p counts from the newest
     * element: the n-gram component at age a (0 = newest) uses
     * rotation amount a.
     */
    std::vector<std::uint64_t, LineAllocator<std::uint64_t>> rows;
};

} // namespace hdham

#endif // HDHAM_CORE_ENCODER_HH
