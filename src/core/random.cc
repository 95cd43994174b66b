#include "core/random.hh"

#include <cassert>
#include <cmath>

namespace hdham
{

Rng::Rng(std::uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &word : s)
        word = sm.next();
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    assert(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

double
Rng::nextGaussian()
{
    if (hasSpare) {
        hasSpare = false;
        return spare;
    }
    double u, v, r2;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        r2 = u * u + v * v;
    } while (r2 >= 1.0 || r2 == 0.0);
    const double mag = std::sqrt(-2.0 * std::log(r2) / r2);
    spare = v * mag;
    hasSpare = true;
    return u * mag;
}

std::uint64_t
Rng::nextBinomial(std::uint64_t n, double p)
{
    if (n == 0 || p <= 0.0)
        return 0;
    if (p >= 1.0)
        return n;
    // Exploit symmetry so the inversion loop runs on the small tail.
    if (p > 0.5)
        return n - nextBinomial(n, 1.0 - p);

    const double mean = static_cast<double>(n) * p;
    if (mean <= 30.0) {
        // BINV: sequential inversion of the binomial CDF.
        const double q = 1.0 - p;
        const double trials = static_cast<double>(n);
        double u = nextDouble();
        // The loop below returns 0 exactly when u <= f = pow(q, n),
        // so a u at most a lower bound of f needs no pow. q lies in
        // [0.5, 1], so 1 - q is exact, and Bernoulli's inequality
        // (trials >= 1) gives q^n >= 1 - n (1 - q). glibc's pow is
        // within 1 ULP of q^n and the bound's own rounding is a few
        // ULPs of 1; the 2^-40 margin is over 1,000 times their sum,
        // so every u taken here also has u <= f: the same draw of 0.
        if (u <= 1.0 - trials * (1.0 - q) - 0x1p-40)
            return 0;
        const double s = p / q;
        double f = std::pow(q, trials);
        std::uint64_t k = 0;
        while (u > f && k < n) {
            u -= f;
            ++k;
            f *= s * static_cast<double>(n - k + 1) /
                 static_cast<double>(k);
        }
        return k;
    }
    // Gaussian approximation for large means.
    const double sd = std::sqrt(mean * (1.0 - p));
    const double draw = mean + sd * nextGaussian();
    if (draw <= 0.0)
        return 0;
    const auto k = static_cast<std::uint64_t>(draw + 0.5);
    return k > n ? n : k;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

} // namespace hdham
