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
 * precomputed per (symbol, position). encodeInto() passes each n-gram
 * to the Bundler as pointers to its n rotated rows, and the bundler's
 * counting kernel XORs them word by word in registers, so no n-gram
 * hypervector is ever stored.
 *
 * The majority depends only on how often each distinct n-gram occurs.
 * A text with at least 27^n n-grams (a training text, for trigrams) is
 * therefore counted first, in a table of all 27^n n-grams, and each
 * distinct n-gram goes to the bundler once per set bit p of its count,
 * weighted 2^p (Bundler::addBound's shift). That yields the same counts
 * from far fewer kernel inputs: a 120k-character training text holds
 * ~8k distinct trigrams. At that length the table is no larger than
 * the text and repeats are certain. Shorter texts, such as held-out
 * sentences and served requests, hold mostly distinct n-grams and
 * stream straight to the bundler.
 */

#ifndef HDHAM_CORE_ENCODER_HH
#define HDHAM_CORE_ENCODER_HH

#include <cstddef>
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
     */
    Encoder(const ItemMemory &items, std::size_t n = 3);

    /** N-gram size. */
    std::size_t ngramSize() const { return n; }

    /** Hypervector dimensionality. */
    std::size_t dim() const { return dimension; }

    /**
     * Hypervector of the n-gram whose symbol ids are @p symbols
     * (exactly n of them, oldest first).
     */
    Hypervector
    encodeNgram(const std::vector<std::size_t> &symbols) const;

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
     */
    std::size_t
    encodeInto(const std::string &text, Bundler &bundler) const;

    /**
     * Encode a complete text into its text hypervector: bundle all of
     * its n-grams and take the majority. @p rng breaks majority ties.
     *
     * @pre text contains at least n characters.
     */
    Hypervector encode(const std::string &text, Rng &rng) const;

  private:
    /** Bundle the n-grams of symbol ids @p ids one by one. */
    void streamInto(const std::vector<std::size_t> &ids,
                    Bundler &bundler) const;

    /**
     * Bundle the n-grams of @p ids by their counts, each distinct
     * n-gram once per set bit of its count.
     */
    void countInto(const std::vector<std::size_t> &ids,
                   Bundler &bundler) const;

    std::size_t n;
    std::size_t dimension;
    /**
     * 27^n, the number of distinct n-grams (saturating at SIZE_MAX): a
     * text with at least this many n-grams is counted first.
     */
    std::size_t distinctNgrams;
    /**
     * rotatedSeeds[p][s] = rho^p(seed of symbol s), for p in [0, n).
     * Position p counts from the newest element: the n-gram component
     * at age a (0 = newest) uses rotation amount a.
     */
    std::vector<std::vector<Hypervector>> rotatedSeeds;
};

} // namespace hdham

#endif // HDHAM_CORE_ENCODER_HH
