/**
 * @file
 * Train-once / deploy-anywhere: train the 21-language classifier,
 * persist the learned hypervectors and the item memory as an
 * hdham.model.v1 file, map it back through the shared model loader
 * and into a hardware HAM model, and verify the deployed copies
 * classify identically.
 *
 * Run: ./train_and_deploy [model-path]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/model_file.hh"
#include "core/model_loader.hh"
#include "core/parallel_for.hh"
#include "ham/r_ham.hh"
#include "lang/corpus.hh"
#include "lang/pipeline.hh"

int
main(int argc, char **argv)
{
    using namespace hdham;
    using namespace hdham::lang;

    const std::string path =
        argc > 1 ? argv[1] : "/tmp/hdham_languages.hdc";

    // --- training side -------------------------------------------
    CorpusConfig corpusCfg;
    corpusCfg.trainChars = 60000;
    corpusCfg.testSentences = 50;
    const SyntheticCorpus corpus(corpusCfg);
    const RecognitionPipeline pipeline(corpus, {});
    std::printf("trained %zu languages at D = %zu; accuracy %.1f%%\n",
                pipeline.memory().size(), pipeline.memory().dim(),
                100.0 * pipeline.evaluateExact().accuracy());

    modelfile::SaveOptions saveOpts;
    saveOpts.items = &pipeline.itemMemory();
    modelfile::save(path, pipeline.memory(), saveOpts);
    std::printf("saved model to %s\n", path.c_str());

    // --- deployment side ------------------------------------------
    // The rows are served in place from the mapping; the embedded
    // item memory is what an encoder on this side would be built on.
    const auto model = modelload::LoadedModel::open(path);
    const AssociativeMemory &deployed = model.memory();
    std::printf("mapped %zu classes ('%s' ... '%s'), item memory "
                "%s\n",
                deployed.size(), deployed.labelOf(0).c_str(),
                deployed.labelOf(deployed.size() - 1).c_str(),
                model.modelView()->hasItemMemory() ? "embedded"
                                                   : "absent");

    // Batch the agreement check through both memories at once.
    const std::size_t threads = resolveThreads(0);
    const auto deployedHits =
        deployed.searchBatch(pipeline.queryVectors(), threads);
    const auto trainedHits =
        pipeline.memory().searchBatch(pipeline.queryVectors(),
                                      threads);
    std::size_t agreements = 0;
    for (std::size_t q = 0; q < deployedHits.size(); ++q) {
        if (deployedHits[q].classId == trainedHits[q].classId)
            ++agreements;
    }
    std::printf("deployed software AM agrees on %zu/%zu queries\n",
                agreements, pipeline.queries().size());

    // Load into a hardware model and classify a few samples.
    ham::RHamConfig rCfg;
    rCfg.dim = deployed.dim();
    rCfg.overscaledBlocks = rCfg.totalBlocks();
    ham::RHam rham(rCfg);
    rham.loadFrom(deployed);
    std::printf("\noverscaled R-HAM on the deployed model:\n");
    for (std::size_t i = 0; i < 5; ++i) {
        const auto &query =
            pipeline.queries()[i * 131 % pipeline.queries().size()];
        const auto hit = rham.search(query.vector);
        std::printf("  truth=%-11s predicted=%-11s\n",
                    deployed.labelOf(query.trueLang).c_str(),
                    deployed.labelOf(hit.classId).c_str());
    }
    std::remove(path.c_str());
    return 0;
}
