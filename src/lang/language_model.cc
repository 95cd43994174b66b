#include "lang/language_model.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace hdham::lang
{

LanguageModel
LanguageModel::random(Rng &rng, double spaceBias,
                      double concentration)
{
    // Negated comparisons, so NaN fails them too.
    if (!(spaceBias >= 0.0 && spaceBias <= 1.0))
        throw std::invalid_argument("LanguageModel::random: spaceBias "
                                    "not in [0, 1]");
    if (!(concentration >= 0.0 && std::isfinite(concentration)))
        throw std::invalid_argument("LanguageModel::random: "
                                    "concentration not finite and "
                                    "non-negative");
    LanguageModel model;
    model.probs.resize(contexts * alphabet);
    for (std::size_t ctx = 0; ctx < contexts; ++ctx) {
        double *row = &model.probs[ctx * alphabet];
        double sum = 0.0;
        for (std::size_t s = 0; s < alphabet; ++s) {
            // Powered uniform draws concentrate the mass on a few
            // symbols per context, like real letter statistics.
            const double u = rng.nextDouble();
            row[s] = std::pow(u, concentration) + 1e-4;
            sum += row[s];
        }
        for (std::size_t s = 0; s < alphabet; ++s)
            row[s] = row[s] / sum * (1.0 - spaceBias);
        row[TextAlphabet::spaceId] += spaceBias;
    }
    return model;
}

LanguageModel
LanguageModel::mix(const LanguageModel &a, const LanguageModel &b,
                   double w)
{
    if (!(w >= 0.0 && w <= 1.0))
        throw std::invalid_argument("LanguageModel::mix: w not in "
                                    "[0, 1]");
    LanguageModel model;
    model.probs.resize(contexts * alphabet);
    for (std::size_t i = 0; i < model.probs.size(); ++i)
        model.probs[i] = (1.0 - w) * a.probs[i] + w * b.probs[i];
    return model;
}

double
LanguageModel::probability(std::size_t c1, std::size_t c2,
                           std::size_t next) const
{
    assert(c1 < alphabet && c2 < alphabet && next < alphabet);
    return probs[contextOf(c1, c2) * alphabet + next];
}

std::string
LanguageModel::generate(std::size_t length, Rng &rng) const
{
    return Sampler(*this).generate(length, rng);
}

double
LanguageModel::divergence(const LanguageModel &other) const
{
    double total = 0.0;
    for (std::size_t ctx = 0; ctx < contexts; ++ctx) {
        double tv = 0.0;
        for (std::size_t s = 0; s < alphabet; ++s) {
            const std::size_t i = ctx * alphabet + s;
            tv += std::abs(probs[i] - other.probs[i]);
        }
        total += 0.5 * tv;
    }
    return total / contexts;
}

LanguageModel::Sampler::Sampler(const LanguageModel &model)
    : cumulative(model.probs.size()), guide(contexts * guideSlots)
{
    for (std::size_t ctx = 0; ctx < contexts; ++ctx) {
        const double *row = &model.probs[ctx * alphabet];
        double *cum = &cumulative[ctx * alphabet];
        double running = 0.0;
        for (std::size_t s = 0; s < alphabet; ++s) {
            running += row[s];
            cum[s] = running;
        }
        // Guard against floating-point drift so sampling never walks
        // off the end of the row.
        cum[alphabet - 1] = 1.0;
        // Slot b goes to g, the first symbol whose cumulative
        // probability reaches b / guideSlots, as std::lower_bound
        // finds it: every mass is below cum[alphabet - 1] = 1, and
        // the sums before it never fall. cum[s] < b / guideSlots
        // exactly when reach = floor(cum[s] * guideSlots) < b, so g
        // is the number of symbols before the last whose reach is
        // below b. The slot is exact, cum[g] >= (b + 1) / guideSlots,
        // unless the reach of g is b, which holds when any symbol's
        // reach is b. Every product here is exact, and so is
        // u * guideSlots in generate(): a draw in slot b lies in
        // [b, b + 1) / guideSlots.
        std::array<std::uint8_t, guideSlots + 1> reached{};
        for (std::size_t s = 0; s < alphabet - 1; ++s) {
            const auto reach =
                static_cast<std::size_t>(cum[s] * guideSlots);
            ++reached[std::min(reach, guideSlots)];
        }
        std::uint8_t *slots = &guide[ctx * guideSlots];
        std::uint8_t below = 0;
        for (std::size_t b = 0; b < guideSlots; ++b) {
            slots[b] = below | (reached[b] ? 0 : exact);
            below += reached[b];
        }
    }
}

std::string
LanguageModel::Sampler::generate(std::size_t length, Rng &rng) const
{
    std::string out(length, ' ');
    // The character stores may alias anything reached through a
    // pointer, so the loop draws from a local copy of the generator
    // and reads the tables through locals, which stay in registers.
    Rng draws = rng;
    const std::uint8_t *guides = guide.data();
    const double *rows = cumulative.data();
    std::size_t c1 = TextAlphabet::spaceId;
    std::size_t c2 = TextAlphabet::spaceId;
    for (char &c : out) {
        const std::size_t ctx = contextOf(c1, c2);
        const double u = draws.nextDouble();
        // u < 1, so u * guideSlots < guideSlots exactly; a 32-bit
        // conversion is one instruction.
        const std::uint8_t slot =
            guides[ctx * guideSlots +
                   static_cast<std::uint32_t>(u * guideSlots)];
        std::size_t sym = slot & ~exact;
        if (!(slot & exact)) {
            const double *cum = &rows[ctx * alphabet];
            while (sym < alphabet - 1 && cum[sym] < u)
                ++sym;
        }
        c = TextAlphabet::charOf(sym);
        c1 = c2;
        c2 = sym;
    }
    rng = draws;
    return out;
}

} // namespace hdham::lang
