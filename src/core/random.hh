/**
 * @file
 * Deterministic pseudo-random number generation for the HDC library.
 *
 * All randomness in the library flows through Xoshiro256** seeded via
 * SplitMix64 so every experiment is exactly reproducible from a single
 * 64-bit seed. std::mt19937_64 is avoided because its state is large and
 * its stream is not stable across standard-library implementations for
 * the distribution adapters; the generators here are self-contained.
 */

#ifndef HDHAM_CORE_RANDOM_HH
#define HDHAM_CORE_RANDOM_HH

#include <bit>
#include <cstdint>
#include <limits>

namespace hdham
{

/**
 * SplitMix64 generator. Used to expand a single 64-bit seed into the
 * larger state of Xoshiro256**, and as a cheap standalone stream.
 */
class SplitMix64
{
  public:
    /** Construct from a 64-bit seed. */
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Generate the next 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * Xoshiro256** generator: fast, high-quality, 256-bit state.
 *
 * Satisfies the C++ UniformRandomBitGenerator requirements so it can be
 * used with standard distributions where convenient.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

    /** Next raw 64-bit value. */
    result_type operator()() { return next(); }

    /**
     * Next raw 64-bit value. Inline: a majority's tie fill and the
     * corpus generator draw one per tie and per character.
     */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = std::rotl(s[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /**
     * Uniform double in [0, 1). Inline: the corpus generator draws
     * one per character, and A-HAM one per mirror and comparator.
     */
    double
    nextDouble()
    {
        // 53 high bits -> [0, 1) with full double precision.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool nextBool(double p = 0.5);

    /**
     * Standard normal variate (Marsaglia polar method).
     * Deterministic given the seed and call sequence.
     */
    double nextGaussian();

    /**
     * Binomial(n, p) variate. Exact inversion for small means,
     * Gaussian approximation (clamped to [0, n]) for large ones.
     * The inversion (mean at most 30) takes one nextDouble() u and
     * returns 0 without calling std::pow when u <= 1 - n (1 - q) -
     * 2^-40 (q = 1 - p): by Bernoulli's inequality that bound lies
     * below q^n, and the 2^-40 margin covers a pow within 1 ULP
     * (glibc's is), so the draw is the one the full inversion gives.
     */
    std::uint64_t nextBinomial(std::uint64_t n, double p);

    /**
     * Fork an independent child stream. The child is seeded from this
     * stream's output so sibling forks are decorrelated.
     */
    Rng fork();

  private:
    std::uint64_t s[4];
    bool hasSpare = false;
    double spare = 0.0;
};

/**
 * Seed of the @p index -th counter-derived substream of @p seed.
 *
 * Substream k is seeded with the k-th output of SplitMix64(seed), so
 * sibling substreams are decorrelated and a substream depends only on
 * (seed, index) -- never on how many draws other substreams made.
 * This is what makes batched stochastic searches bit-identical to the
 * sequential loop regardless of thread count or batch split: query k
 * always senses through Rng(substreamSeed(seed, k)).
 */
inline std::uint64_t
substreamSeed(std::uint64_t seed, std::uint64_t index)
{
    constexpr std::uint64_t gamma = 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = seed + (index + 1) * gamma;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace hdham

#endif // HDHAM_CORE_RANDOM_HH
