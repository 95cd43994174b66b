/**
 * @file
 * train_lang: one default `hdham train`, in-process. It trains the 21
 * languages on 120k characters each, encodes and classifies the 4,200
 * held-out sentences, and saves the v1 model -- the north-star
 * operation, dominated by bundling.
 *
 * The untraced run repeats the operation through the public calls
 * RecognitionPipeline, evaluateExact and modelfile::save make, one
 * step at a time (one language's bundle + majority, one language's
 * held-out encodes, the scan, the save), with a calibration between
 * steps, and reports the median train's host-normalized time. After
 * the window the pipeline's own train must build a byte-identical
 * model. The traced run rebuilds the same model through the public
 * per-layer calls, checks it is byte-identical, and reports the split.
 */

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/item_memory.hh"
#include "core/metrics.hh"
#include "core/model_file.hh"
#include "lang/corpus.hh"
#include "lang/pipeline.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace hdham;

/** One train: its wall time and what the checks compare. */
struct TrainResult
{
    double wallS = 0.0;
    /** Step-timed only: the host-normalized time (hostNormalized). */
    double normalS = 0.0;
    double accuracy = 0.0;
    std::size_t evaluated = 0;
    std::uint32_t checksum = 0;
    /** Traced only: the layers' summed self time. */
    double layersS = 0.0;
};

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Checksum of a saved model; loading it verifies every section. */
std::uint32_t
modelChecksum(const std::string &path)
{
    return modelfile::ModelView(path).checksum();
}

/** The calls `hdham train` makes, timed as a whole. */
TrainResult
trainOnce(const lang::SyntheticCorpus &corpus, const std::string &path)
{
    TrainResult r;
    const double start = now();
    const lang::RecognitionPipeline pipeline(corpus);
    const lang::Evaluation eval = pipeline.evaluateExact(1);
    modelfile::SaveOptions opts;
    opts.items = &pipeline.itemMemory();
    modelfile::save(path, pipeline.memory(), opts);
    r.wallS = now() - start;
    r.accuracy = eval.accuracy();
    r.evaluated = eval.total;
    r.checksum = modelChecksum(path);
    return r;
}

/**
 * The same train through the calls RecognitionPipeline makes (same Rng
 * stream), one step at a time, each step normalized by the
 * calibrations on either side of it.
 */
TrainResult
trainSteps(const lang::SyntheticCorpus &corpus, const std::string &path)
{
    TrainResult r;
    const lang::PipelineConfig cfg;
    const std::size_t languages = corpus.numLanguages();
    double cal = calibrate(CalibrationLoop::Bundle);
    double mark = now();
    const auto step = [&] {
        const double took = now() - mark;
        const double next = calibrate(CalibrationLoop::Bundle);
        r.wallS += took;
        r.normalS += hostNormalized(took, cal, next);
        cal = next;
        mark = now();
    };

    const ItemMemory items(TextAlphabet::size, cfg.dim, cfg.seed);
    const Encoder encoder(items, cfg.ngram);
    AssociativeMemory am(cfg.dim);
    Rng rng(cfg.seed ^ 0x747261696e696e67ULL); // "training"
    Bundler bundler(cfg.dim);
    am.reserve(languages);
    step();
    for (std::size_t lang = 0; lang < languages; ++lang) {
        bundler.clear();
        encoder.encodeInto(corpus.trainingText(lang), bundler);
        am.store(bundler.majority(rng), corpus.labelOf(lang));
        step();
    }

    std::vector<lang::LabeledQuery> tests;
    tests.reserve(corpus.totalTestSentences());
    for (std::size_t lang = 0; lang < languages; ++lang) {
        for (const std::string &sentence : corpus.testSentences(lang))
            tests.push_back({encoder.encode(sentence, rng), lang});
        step();
    }

    std::vector<Hypervector> queries;
    queries.reserve(tests.size());
    for (const lang::LabeledQuery &test : tests)
        queries.push_back(test.vector);
    std::vector<std::size_t> predictions;
    predictions.reserve(queries.size());
    for (const SearchResult &result : am.searchBatch(queries, 1))
        predictions.push_back(result.classId);
    const lang::Evaluation eval =
        lang::scorePredictions(tests, languages, predictions);
    step();

    modelfile::SaveOptions opts;
    opts.items = &items;
    modelfile::save(path, am, opts);
    step();

    r.accuracy = eval.accuracy();
    r.evaluated = eval.total;
    r.checksum = modelChecksum(path);
    return r;
}

/**
 * The same train through the public per-layer calls, in the order
 * RecognitionPipeline makes them (same Rng stream), timing each layer.
 */
TrainResult
trainTraced(const lang::SyntheticCorpus &corpus, const std::string &path,
            LayerSample &s)
{
    TrainResult r;
    LayerClock clock;
    const lang::PipelineConfig cfg;
    const std::size_t languages = corpus.numLanguages();
    const double start = now();

    const ItemMemory items(TextAlphabet::size, cfg.dim, cfg.seed);
    double t0 = now();
    const Encoder encoder(items, cfg.ngram);
    const double setupS = now() - t0;
    clock.charge("encoder.setup", setupS);
    TracedEncoder traced(encoder, clock);

    AssociativeMemory am(cfg.dim);
    Rng rng(cfg.seed ^ 0x747261696e696e67ULL); // "training"
    Bundler bundler(cfg.dim);
    am.reserve(languages);
    for (std::size_t lang = 0; lang < languages; ++lang) {
        bundler.clear();
        traced.bundle(corpus.trainingText(lang), bundler);
        am.store(traced.majority(bundler, rng), corpus.labelOf(lang));
    }

    std::vector<lang::LabeledQuery> tests;
    std::vector<Hypervector> queries;
    tests.reserve(corpus.totalTestSentences());
    for (std::size_t lang = 0; lang < languages; ++lang) {
        for (const std::string &sentence : corpus.testSentences(lang))
            tests.push_back({traced.encode(sentence, rng), lang});
    }
    for (const lang::LabeledQuery &test : tests)
        queries.push_back(test.vector);

    metrics::QueryMetrics scanned;
    am.attachMetrics(&scanned);
    t0 = now();
    const std::vector<SearchResult> results = am.searchBatch(queries, 1);
    const double scanS = now() - t0;
    clock.charge("scan", scanS);

    t0 = now();
    std::vector<std::size_t> predictions;
    predictions.reserve(results.size());
    for (const SearchResult &result : results)
        predictions.push_back(result.classId);
    const lang::Evaluation eval =
        lang::scorePredictions(tests, languages, predictions);
    clock.charge("decide", now() - t0);

    t0 = now();
    modelfile::SaveOptions opts;
    opts.items = &items;
    modelfile::save(path, am, opts);
    clock.charge("save", now() - t0);
    r.wallS = now() - start;

    r.accuracy = eval.accuracy();
    r.evaluated = eval.total;
    r.checksum = modelChecksum(path);
    r.layersS = clock.total();

    takeEncodeLayers(clock, s);
    s.chars = traced.chars();
    s.ngrams = traced.ngrams();
    s.majorityCalls = traced.majorities();
    s.encoderSetupUs = 1e6 * setupS;
    s.encodeUs = 1e6 *
                 (s.normalizeS + s.bindS + s.bundleS + s.majorityS) /
                 static_cast<double>(traced.majorities());
    s.scanS = scanS;
    s.scanUs = 1e6 * scanS / static_cast<double>(queries.size());
    s.rowsScanned = scanned.rowsScanned.value();
    s.decideS = clock.self("decide");
    s.saveS = clock.self("save");
    return r;
}

void
checkAgainst(Checks &checks, const TrainResult &ref,
             const TrainResult &r, std::size_t heldOut)
{
    checks.expect(r.checksum == ref.checksum,
                  "train_lang: model checksum differs between trains");
    checks.expect(r.accuracy == ref.accuracy,
                  "train_lang: held-out accuracy differs between trains");
    checks.expect(r.evaluated == heldOut,
                  "train_lang: not every held-out sentence evaluated");
}

} // namespace

Report
runTrainLang(const RunArgs &args)
{
    Report report;
    std::unique_ptr<lang::SyntheticCorpus> corpus;
    double setupRawS = 0.0;
    const double setupS = timedSetups(9, [&] {
        corpus.reset();
        corpus = std::make_unique<lang::SyntheticCorpus>(
            corpusFor(args.seed));
    }, CalibrationLoop::Bundle, setupRawS);
    const std::size_t heldOut = corpus->totalTestSentences();
    const std::string path = "train_lang.model";
    const double deadline = now() + args.seconds;

    if (!args.trace) {
        std::vector<TrainResult> runs;
        std::vector<double> walls, normals;
        do {
            runs.push_back(trainSteps(*corpus, path));
            walls.push_back(runs.back().wallS);
            normals.push_back(runs.back().normalS);
        } while (now() + median(walls) <= deadline);
        // The pipeline's own train, after the window, is the reference.
        const TrainResult ref = trainOnce(*corpus, path);
        report.checks.expect(ref.evaluated == heldOut,
                             "train_lang: not every held-out sentence "
                             "evaluated");
        for (const TrainResult &r : runs)
            checkAgainst(report.checks, ref, r, heldOut);

        EndToEnd e;
        e.setupS = setupS;
        e.peakRssMb = peakRssMb();
        const double trainS = median(normals);
        e.latencyMs = 1e3 * trainS;
        e.opsPerS = 1.0 / trainS;
        e.accuracy = ref.accuracy;
        addEndToEnd(report, e);
        report.detail("setup_raw_s", setupRawS, "s");
        report.detail("wall_s", median(walls), "s");
        report.detail("pipeline_wall_s", ref.wallS, "s");
        report.detail("accuracy", e.accuracy, "ratio");
        report.detail("trains", static_cast<double>(runs.size()),
                      "count");
        report.detail("model_checksum", ref.checksum, "crc32c");
        return report;
    }

    // Traced: alternate untraced and traced trains; the traced model
    // must be byte-identical to the untraced one. Like the untraced
    // run, each side reports its quietest train.
    const std::string tracedPath = "train_lang.traced.model";
    double untracedS = 0.0, tracedS = 0.0, layersS = 0.0;
    LayerSample s;
    TrainResult ref;
    do {
        const TrainResult p = trainOnce(*corpus, path);
        if (untracedS == 0.0)
            ref = p;
        if (untracedS == 0.0 || p.wallS < untracedS)
            untracedS = p.wallS;
        checkAgainst(report.checks, ref, p, heldOut);
        LayerSample sample;
        const TrainResult t = trainTraced(*corpus, tracedPath, sample);
        if (tracedS == 0.0 || t.wallS < tracedS) {
            tracedS = t.wallS;
            layersS = t.layersS;
            s = sample;
        }
        checkAgainst(report.checks, ref, t, heldOut);
        report.checks.expect(fileBytes(tracedPath) == fileBytes(path),
                             "train_lang: traced model bytes differ");
    } while (now() + untracedS + tracedS <= deadline);

    s.overheadPct = 100.0 * (tracedS / untracedS - 1.0);
    s.coveredPct = 100.0 * layersS / untracedS;
    addLayers(report, s);
    report.detail("wall_s", untracedS, "s");
    report.detail("traced_wall_s", tracedS, "s");
    report.detail("share.bundle", s.bundleS / untracedS, "ratio");
    report.detail("share.bind", s.bindS / untracedS, "ratio");
    report.detail("share.majority", s.majorityS / untracedS, "ratio");
    report.detail("share.normalize", s.normalizeS / untracedS, "ratio");
    report.detail("share.scan", s.scanS / untracedS, "ratio");
    return report;
}

} // namespace perfbench
