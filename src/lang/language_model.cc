#include "lang/language_model.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace hdham::lang
{

LanguageModel
LanguageModel::random(Rng &rng, double spaceBias,
                      double concentration)
{
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
    if (w < 0.0 || w > 1.0)
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
    std::string out;
    out.reserve(length);
    const Tables &t = sampling();
    std::size_t c1 = TextAlphabet::spaceId;
    std::size_t c2 = TextAlphabet::spaceId;
    for (std::size_t i = 0; i < length; ++i) {
        const std::size_t ctx = contextOf(c1, c2);
        const double *cum = &t.cumulative[ctx * alphabet];
        const double u = rng.nextDouble();
        // u < 1, so u * guideSlots < guideSlots exactly.
        std::size_t sym = t.guide[ctx * guideSlots +
                                  static_cast<std::size_t>(u * guideSlots)];
        while (sym < alphabet - 1 && cum[sym] < u)
            ++sym;
        out.push_back(TextAlphabet::charOf(sym));
        c1 = c2;
        c2 = sym;
    }
    return out;
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

const LanguageModel::Tables &
LanguageModel::sampling() const
{
    std::call_once(tables->built, [this] { buildTables(*tables); });
    return *tables;
}

void
LanguageModel::buildTables(Tables &out) const
{
    out.cumulative.resize(probs.size());
    out.guide.resize(contexts * guideSlots);
    for (std::size_t ctx = 0; ctx < contexts; ++ctx) {
        double *cum = &out.cumulative[ctx * alphabet];
        double running = 0.0;
        for (std::size_t s = 0; s < alphabet; ++s) {
            running += probs[ctx * alphabet + s];
            cum[s] = running;
        }
        // Guard against floating-point drift so sampling never walks
        // off the end of the row.
        cum[alphabet - 1] = 1.0;
        // One merged walk over the row: the masses b / guideSlots
        // rise, so each slot's lower_bound index starts from the last
        // one's. Every mass is below cum[alphabet - 1] = 1, so the row
        // is partitioned at each and the walk stops where
        // std::lower_bound would.
        std::size_t sym = 0;
        for (std::size_t b = 0; b < guideSlots; ++b) {
            const double mass = static_cast<double>(b) / guideSlots;
            while (cum[sym] < mass)
                ++sym;
            out.guide[ctx * guideSlots + b] =
                static_cast<std::uint8_t>(sym);
        }
    }
}

} // namespace hdham::lang
