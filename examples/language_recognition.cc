/**
 * @file
 * The paper's driving application (Section II-A): recognize the
 * language of unseen sentences among 21 European languages.
 *
 * Trains one learned hypervector per language from the synthetic
 * corpus, then classifies the test set with the exact software
 * associative memory and with each hardware HAM design, printing
 * per-design accuracy and the cost estimate of one query search.
 *
 * Run: ./language_recognition [D]   (default D = 10,000)
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/parallel_for.hh"
#include "ham/a_ham.hh"
#include "ham/d_ham.hh"
#include "ham/energy_model.hh"
#include "ham/r_ham.hh"
#include "lang/corpus.hh"
#include "lang/pipeline.hh"

int
main(int argc, char **argv)
{
    using namespace hdham;
    using namespace hdham::lang;
    using namespace hdham::ham;

    const std::size_t dim =
        argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 10000;

    CorpusConfig corpusCfg;
    corpusCfg.trainChars = 100000;
    corpusCfg.testSentences = 100;
    std::printf("generating %zu-language corpus "
                "(%zu train chars, %zu test sentences each)...\n",
                corpusCfg.numLanguages, corpusCfg.trainChars,
                corpusCfg.testSentences);
    const SyntheticCorpus corpus(corpusCfg);

    PipelineConfig pipeCfg;
    pipeCfg.dim = dim;
    std::printf("training and encoding at D = %zu...\n", dim);
    const RecognitionPipeline pipeline(corpus, pipeCfg);

    const std::size_t threads = resolveThreads(0);
    const auto exact = pipeline.evaluateExact(threads);
    std::printf("\nexact software search (%zu threads): %.1f%% "
                "(%zu/%zu), macro-F1 %.3f, min class margin %zu "
                "bits\n\n",
                threads, 100.0 * exact.accuracy(), exact.correct,
                exact.total, exact.macroF1(),
                pipeline.memory().minPairwiseDistance());

    const std::size_t classes = pipeline.memory().size();
    const auto report = [&](Ham &ham, const CostEstimate &cost) {
        ham.loadFrom(pipeline.memory());
        const auto eval = pipeline.evaluateBatch(
            [&](const std::vector<Hypervector> &queries) {
                std::vector<std::size_t> predictions;
                for (const auto &hit :
                     ham.searchBatch(queries, threads))
                    predictions.push_back(hit.classId);
                return predictions;
            });
        std::printf("%-6s accuracy %.1f%% | energy %9.2f pJ | "
                    "delay %7.2f ns | area %5.2f mm^2\n",
                    ham.name().c_str(), 100.0 * eval.accuracy(),
                    cost.energyPj, cost.delayNs, cost.areaMm2);
    };

    DHamConfig dCfg;
    dCfg.dim = dim;
    DHam dham(dCfg);
    report(dham, DHamModel::query(dim, classes));

    RHamConfig rCfg;
    rCfg.dim = dim;
    RHam rham(rCfg);
    report(rham, RHamModel::query(dim, classes));

    AHamConfig aCfg;
    aCfg.dim = dim;
    AHam aham(aCfg);
    report(aham, AHamModel::query(dim, classes));

    // Show a few ranked decisions with their margins.
    std::printf("\nsample decisions (top-2 with margin):\n");
    for (std::size_t i = 0; i < 5; ++i) {
        const std::size_t q = i * 97 % pipeline.queryVectors().size();
        const auto ranked =
            pipeline.memory().searchTopK(pipeline.queryVectors()[q], 2);
        std::printf("  truth=%-11s -> %-11s (d=%zu), then %-11s "
                    "(margin %zu bits)\n",
                    pipeline.memory()
                        .labelOf(pipeline.queryClasses()[q])
                        .c_str(),
                    pipeline.memory()
                        .labelOf(ranked[0].classId)
                        .c_str(),
                    ranked[0].distance,
                    pipeline.memory()
                        .labelOf(ranked[1].classId)
                        .c_str(),
                    ranked[1].distance - ranked[0].distance);
    }
    return 0;
}
