/**
 * @file
 * Table II: average switching activity of D-HAM vs R-HAM for block
 * sizes 1-4 bits, closed form and Monte Carlo.
 *
 * Paper: D-HAM 25% for all sizes; R-HAM 25% / 21.4% / 18.3% / 13.6%.
 * The closed-form thermometer-code model gives 25% / 18.75% /
 * 15.6% / 13.7%: the same trend; the paper's synthesis numbers
 * include sense-amp clock load this model excludes.
 */

#include "common.hh"

#include "core/random.hh"
#include "ham/activity.hh"
#include "ham/switching.hh"

int
main()
{
    using namespace hdham;
    using namespace hdham::ham;
    bench::banner("Table II",
                  "average switching activity, D-HAM vs R-HAM");

    const double paperRham[] = {0.250, 0.214, 0.183, 0.136};
    Rng rng(1);
    std::printf("%10s | %10s | %18s %16s | %10s\n", "block size",
                "D-HAM", "R-HAM (analytic)", "R-HAM (MC)",
                "paper R-HAM");
    for (std::size_t w = 1; w <= 4; ++w) {
        const double mc = rhamSwitchingActivityMc(w, 400000, rng);
        std::printf("%9zub | %9.1f%% | %17.2f%% %15.2f%% | %9.1f%%\n",
                    w, 100.0 * dhamSwitchingActivity(w),
                    100.0 * rhamSwitchingActivity(w), 100.0 * mc,
                    100.0 * paperRham[w - 1]);
    }

    // The paper extracted switching from post-synthesis simulation
    // "by applying the test sentences" -- replay real encoded
    // queries against the trained rows and measure transitions.
    const auto pipeline = hdham::bench::makePipeline(10000);
    std::vector<Hypervector> rows;
    for (std::size_t c = 0; c < pipeline->memory().size(); ++c)
        rows.push_back(pipeline->memory().vectorOf(c));
    std::vector<Hypervector> stream;
    for (std::size_t i = 0; i < 200; ++i)
        stream.push_back(pipeline->queryVectors()[i]);
    std::printf("\nreplaying %zu encoded test sentences against the "
                "%zu learned rows:\n",
                stream.size(), rows.size());
    std::printf("  D-HAM measured activity: %.2f%%\n",
                100.0 * measureDhamActivity(rows, stream).activity());
    std::printf("  R-HAM measured activity: %.2f%% (4-bit blocks)\n",
                100.0 *
                    measureRhamActivity(rows, stream, 4).activity());

    std::printf("\npaper-vs-measured (4-bit block):\n");
    bench::compare("R-HAM switching activity",
                   100 * rhamSwitchingActivity(4), 13.6, "%");
    bench::compare("R-HAM reduction vs D-HAM (4-bit)",
                   100 * (1 - rhamSwitchingActivity(4) /
                                  dhamSwitchingActivity(4)),
                   50.0, "%");
    return 0;
}
