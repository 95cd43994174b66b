/**
 * @file
 * Ablation: continual (online) training curve.
 *
 * HD training is a running majority, so the classifier can learn
 * incrementally: keep the per-class ones-counters, stream new
 * samples in, and reprogram the crossbar once per session (the
 * paper's write-endurance budget). This harness measures accuracy
 * as a function of the fraction of training text seen, on the
 * standard 21-language workload.
 */

#include "common.hh"

#include "core/bundler.hh"
#include "core/snapshot.hh"

int
main()
{
    using namespace hdham;
    using namespace hdham::lang;
    bench::banner("Ablation",
                  "online training curve (D = 10,000, 21 "
                  "languages)");

    const SyntheticCorpus &corpus = bench::corpus();
    const auto pipeline = bench::makePipeline(10000);

    snapshot::SnapshotBuilder builder(10000);
    for (std::size_t lang = 0; lang < corpus.numLanguages(); ++lang)
        builder.addClass(corpus.labelOf(lang));

    Rng rng(1);
    bench::CsvWriter csv("abl_online_learning");
    csv.row("train_fraction", "accuracy", "writes_per_device");
    std::printf("%16s %10s %18s\n", "train fraction", "accuracy",
                "crossbar writes");

    double seen = 0.0;
    std::size_t sessions = 0;
    for (const double upto :
         {0.02, 0.05, 0.10, 0.25, 0.50, 1.00}) {
        // Stream the next slice of every language into the
        // counters (one bundled batch per slice).
        for (std::size_t lang = 0; lang < corpus.numLanguages();
             ++lang) {
            const std::string &text = corpus.trainingText(lang);
            const auto a = static_cast<std::size_t>(
                seen * static_cast<double>(text.size()));
            const auto b = static_cast<std::size_t>(
                upto * static_cast<double>(text.size()));
            Bundler chunk(10000);
            if (pipeline->textEncoder().encodeInto(
                    text.substr(a, b - a), chunk) > 0) {
                builder.addSample(lang, chunk.majority(rng));
            }
        }
        seen = upto;
        ++sessions;

        // Reprogram ("one write per session") and evaluate.
        const auto snapshot = builder.build();
        const auto eval =
            pipeline->evaluate([&](const Hypervector &query) {
                return snapshot->memory().search(query).classId;
            });
        std::printf("%15.0f%% %9.1f%% %18zu\n", 100.0 * upto,
                    100.0 * eval.accuracy(), sessions);
        csv.row(upto, eval.accuracy(), sessions);
    }

    std::printf("\nthe majority-counter formulation keeps learning "
                "without storing any raw sample, and each session "
                "costs exactly one crossbar programming pass.\n");
    return 0;
}
