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
 * A model holds only its probabilities. Sampling goes through a
 * LanguageModel::Sampler, which builds each context's cumulative
 * distribution and a 128-slot guide into it; the caller keeps it for
 * as long as it draws from that model and then drops it. The corpus
 * (lang/corpus.hh) mixes 57 models to make its 21 languages, and
 * builds one sampler per language for that language's texts.
 */

#ifndef HDHAM_LANG_LANGUAGE_MODEL_HH
#define HDHAM_LANG_LANGUAGE_MODEL_HH

#include <cstddef>
#include <cstdint>
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

    class Sampler;

    /**
     * Build a random model. Each context's distribution over next
     * symbols is an independent draw whose mass is concentrated on a
     * few symbols (natural languages have skewed trigram statistics),
     * with @p spaceBias extra mass on the space symbol so the output
     * has word structure. @p concentration is the skew exponent:
     * higher values concentrate each context on fewer next-symbols,
     * making languages more distinctive.
     * @throws std::invalid_argument, before any draw from @p rng, when
     * @p spaceBias is outside [0, 1] or @p concentration is negative
     * or not finite (NaN included).
     */
    static LanguageModel random(Rng &rng, double spaceBias = 0.15,
                                double concentration = 8.0);

    /**
     * Convex mixture: (1 - w) * @p a + w * @p b, per context.
     * Mixing a base model with language-specific random models yields
     * controllably similar languages (and language families).
     * @throws std::invalid_argument when @p w is outside [0, 1] (NaN
     * included).
     */
    static LanguageModel mix(const LanguageModel &a,
                             const LanguageModel &b, double w);

    /** P(next | c1 c2). All 27 values per context sum to 1. */
    double probability(std::size_t c1, std::size_t c2,
                       std::size_t next) const;

    /**
     * Generate @p length characters starting from the "space space"
     * context: Sampler(*this).generate(length, rng). A caller that
     * generates several texts from one model keeps one Sampler.
     */
    std::string generate(std::size_t length, Rng &rng) const;

    /**
     * Total-variation distance to @p other, averaged over contexts.
     * Used by tests and by corpus tuning to quantify how far apart
     * two synthetic languages are.
     */
    double divergence(const LanguageModel &other) const;

  private:
    LanguageModel() = default;

    static std::size_t
    contextOf(std::size_t c1, std::size_t c2)
    {
        return c1 * alphabet + c2;
    }

    /** probs[context * alphabet + next]. */
    std::vector<double> probs;
};

/**
 * Draws text from one LanguageModel by inversion: each character
 * takes the first next-symbol whose cumulative probability reaches a
 * uniform draw u, the index std::lower_bound finds on the context's
 * cumulative row. A 128-slot guide per context starts the search at
 * slot floor(u * 128), and a slot that lies wholly inside one
 * symbol's cumulative interval answers without reading the row.
 *
 * The sampler copies what it needs, so it may outlive its model. It
 * holds 250 KB of tables; build one per model and drop it when that
 * model's texts are done. generate() is const and may run
 * concurrently on one sampler with separate Rngs.
 */
class LanguageModel::Sampler
{
  public:
    explicit Sampler(const LanguageModel &model);

    /**
     * Generate @p length characters starting from the "space space"
     * context, one rng.nextDouble() per character.
     */
    std::string generate(std::size_t length, Rng &rng) const;

  private:
    /** Guide slots per context: a power of two, so b / slots is exact. */
    static constexpr std::size_t guideSlots = 128;
    /** Set on a guide entry whose whole slot lands on its symbol. */
    static constexpr std::uint8_t exact = 0x80;

    /** Cumulative per-context distribution, last entry forced to 1. */
    std::vector<double> cumulative;
    /**
     * guide[context * guideSlots + b]: g, the first next-symbol whose
     * cumulative probability reaches b / guideSlots, or-ed with exact
     * when cum[g] also reaches (b + 1) / guideSlots. A draw u in slot
     * b lands on g then, since cum[g] > u; otherwise its scan starts
     * at g.
     */
    std::vector<std::uint8_t> guide;
};

} // namespace hdham::lang

#endif // HDHAM_LANG_LANGUAGE_MODEL_HH
