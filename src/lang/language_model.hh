/**
 * @file
 * Order-2 letter Markov source used to synthesize language corpora.
 *
 * The paper trains on the Wortschatz Corpora and tests on the Europarl
 * Parallel Corpus (21 European languages). Neither is redistributable
 * here, so the reproduction synthesizes languages as order-2 Markov
 * chains over the 27-symbol text alphabet. The HD encoder only ever
 * sees letter trigram statistics, which is exactly what an order-2
 * chain controls, so the substitution exercises the identical code
 * path with a tunable task difficulty.
 *
 * Sampling reads two tables per model: each context's cumulative
 * distribution and a 32-slot guide into it. Only a model that samples
 * builds them, once, on its first generate(). The corpus (lang/
 * corpus.hh) mixes 57 models to make its 21 languages, and only those
 * 21 generate text.
 */

#ifndef HDHAM_LANG_LANGUAGE_MODEL_HH
#define HDHAM_LANG_LANGUAGE_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/item_memory.hh"
#include "core/random.hh"

namespace hdham::lang
{

/**
 * A letter source: P(next | two preceding letters) over the 27-symbol
 * alphabet.
 */
class LanguageModel
{
  public:
    /** Alphabet size (26 letters + space). */
    static constexpr std::size_t alphabet = TextAlphabet::size;
    /** Number of order-2 contexts. */
    static constexpr std::size_t contexts = alphabet * alphabet;

    /**
     * Build a random model. Each context's distribution over next
     * symbols is an independent draw whose mass is concentrated on a
     * few symbols (natural languages have skewed trigram statistics),
     * with @p spaceBias extra mass on the space symbol so the output
     * has word structure. @p concentration is the skew exponent:
     * higher values concentrate each context on fewer next-symbols,
     * making languages more distinctive.
     */
    static LanguageModel random(Rng &rng, double spaceBias = 0.15,
                                double concentration = 8.0);

    /**
     * Convex mixture: (1 - w) * @p a + w * @p b, per context.
     * Mixing a base model with language-specific random models yields
     * controllably similar languages (and language families).
     * @pre 0 <= w <= 1.
     */
    static LanguageModel mix(const LanguageModel &a,
                             const LanguageModel &b, double w);

    /** P(next | c1 c2). All 27 values per context sum to 1. */
    double probability(std::size_t c1, std::size_t c2,
                       std::size_t next) const;

    /**
     * Generate @p length characters starting from the "space space"
     * context. The first call builds the sampling tables; concurrent
     * calls on one model are safe.
     */
    std::string generate(std::size_t length, Rng &rng) const;

    /**
     * Total-variation distance to @p other, averaged over contexts.
     * Used by tests and by corpus tuning to quantify how far apart
     * two synthetic languages are.
     */
    double divergence(const LanguageModel &other) const;

  private:
    /** Guide slots per context: a power of two, so b / slots is exact. */
    static constexpr std::size_t guideSlots = 32;

    /** The sampling tables, built from probs on first use. */
    struct Tables
    {
        std::once_flag built;
        /** Cumulative per-context distribution, sampled by inversion. */
        std::vector<double> cumulative;
        /**
         * guide[context * guideSlots + b]: the first next-symbol whose
         * cumulative probability reaches b / guideSlots. A draw u
         * starts its scan at slot floor(u * guideSlots) and lands on
         * the index std::lower_bound would find.
         */
        std::vector<std::uint8_t> guide;
    };

    LanguageModel() = default;

    /** The sampling tables, built on the first call. */
    const Tables &sampling() const;

    /** Fill @p out's tables from probs. */
    void buildTables(Tables &out) const;

    static std::size_t
    contextOf(std::size_t c1, std::size_t c2)
    {
        return c1 * alphabet + c2;
    }

    /** probs[context * alphabet + next]. */
    std::vector<double> probs;
    /**
     * Built by the first sampling() call. A copy of the model shares
     * them, as it shares the probabilities they come from.
     */
    std::shared_ptr<Tables> tables = std::make_shared<Tables>();
};

} // namespace hdham::lang

#endif // HDHAM_LANG_LANGUAGE_MODEL_HH
