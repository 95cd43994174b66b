/**
 * @file
 * Figure 7: minimum detectable Hamming distance of A-HAM vs
 * dimensionality, single-stage and multistage, including the
 * empirical (Monte-Carlo) counterpart of the closed-form law.
 *
 * Paper anchors: resolution of 1 bit through D = 512 (10-bit LTA,
 * one stage, extended to 512 by multistage); D = 10,000 single
 * stage cannot distinguish below 43 bits; 14 stages with 14-bit
 * LTAs improve that to 14 bits -- below the minimum learned-class
 * margin, so classification is unaffected.
 */

#include "common.hh"

#include <cmath>

#include "circuit/lta.hh"
#include "core/random.hh"

namespace
{

using namespace hdham;
using namespace hdham::circuit;

/**
 * @p total bits split over @p stages, the remainder one bit each on
 * the first stages, so the stage sums add up to @p total.
 */
std::vector<std::size_t>
spread(std::size_t total, std::size_t stages)
{
    std::vector<std::size_t> parts(stages, total / stages);
    for (std::size_t s = 0; s < total % stages; ++s)
        ++parts[s];
    return parts;
}

/**
 * Empirical minimum detectable distance: smallest gap at which the
 * LTA resolves two rows (operating near half full scale, the worst
 * region) at >= 95% confidence.
 */
std::size_t
empiricalMinDet(std::size_t dim, std::size_t stages,
                std::size_t bits, Rng &rng)
{
    const CurrentModel model;
    MultistageCurrentSum summer(model, 1.0, dim / stages);
    LtaConfig cfg;
    cfg.bits = bits;
    cfg.fullScale = static_cast<double>(stages) *
                    model.fullScale(dim / stages);
    const LtaTree tree(cfg);
    const std::size_t base = dim * 2 / 5;
    const std::vector<std::size_t> a = spread(base, stages);
    for (std::size_t gap = 1; gap <= dim; gap = gap * 5 / 4 + 1) {
        const std::vector<std::size_t> b = spread(base + gap, stages);
        int wins = 0;
        const int trials = 200;
        for (int i = 0; i < trials; ++i) {
            const std::vector<double> currents = {
                summer.total(a, rng), summer.total(b, rng)};
            wins += tree.winner(currents, rng) == 0;
        }
        if (wins >= trials * 95 / 100)
            return gap;
    }
    return dim;
}

} // namespace

int
main()
{
    bench::banner("Figure 7",
                  "A-HAM minimum detectable Hamming distance vs D");

    Rng rng(1);
    std::printf("%8s %8s %6s | %14s %14s\n", "D", "stages", "bits",
                "closed form", "empirical");
    for (std::size_t dim :
         {64u, 128u, 256u, 512u, 1000u, 2000u, 4000u, 10000u}) {
        const std::size_t stages = defaultStagesFor(dim);
        const std::size_t bits = defaultLtaBitsFor(dim);
        const std::size_t closed =
            minDetectableDistance(dim, stages, bits);
        const std::size_t empirical =
            empiricalMinDet(dim, stages, bits, rng);
        std::printf("%8zu %8zu %6zu | %14zu %14zu\n", dim, stages,
                    bits, closed, empirical);
    }

    std::printf("\nsingle-stage comparison at D = 10,000:\n");
    std::printf("  1 stage, 10-bit LTA : minDet = %zu (paper: 43), "
                "empirical %zu\n",
                minDetectableDistance(10000, 1, 10),
                empiricalMinDet(10000, 1, 10, rng));
    std::printf("  14 stages, 14-bit   : minDet = %zu (paper: 14)\n",
                minDetectableDistance(10000, 14, 14));

    const auto pipeline = bench::makePipeline(10000);
    const std::size_t margin =
        pipeline->memory().minPairwiseDistance();
    std::printf("\nmisclassification border: minimum learned-class "
                "margin = %zu bits\n"
                "(paper's corpus: 22; the synthetic languages are "
                "more separable -- see EXPERIMENTS.md)\n",
                margin);
    std::printf("minDet(14 stages, 14 bits) = %zu %s the border -> "
                "no accuracy loss from the LTA\n",
                minDetectableDistance(10000, 14, 14),
                minDetectableDistance(10000, 14, 14) < margin
                    ? "below"
                    : "above");
    return 0;
}
