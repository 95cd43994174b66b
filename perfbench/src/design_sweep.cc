/**
 * @file
 * The design sweeps: classify the encoded held-out set through the
 * search paths behind `hdham classify --design am|dham|rham|aham`.
 * The model is trained once, untimed; set-up opens and maps it and
 * encodes the 4,200 held-out sentences, as `hdham classify` does. The
 * sweep itself never calls the encoder or the bundler, so it is where
 * the scan and ham layers do most of the work.
 *
 *  - sweep_scan: am and dham, the exact scan (plain and pruned);
 *  - sweep_ham: aham and rham, the behavioral searches.
 *
 * Each sweep gates one design on latency_ms (a held-out pass) and the
 * other on ops_per_s (its queries per second), so no design's time is
 * diluted by a slower one's.
 *
 * The designs take turns in fixed time slices (at least one pass per
 * slice) so machine noise spreads evenly over them. Like the CLI, each
 * dham/rham/aham pass builds a fresh design from the mapped model;
 * that also makes the stochastic designs' answers repeat pass to pass.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "core/model_file.hh"
#include "core/model_loader.hh"
#include "ham/a_ham.hh"
#include "ham/d_ham.hh"
#include "ham/r_ham.hh"
#include "lang/corpus.hh"
#include "lang/pipeline.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace hdham;

/** Time slice each design gets per round, seconds. */
constexpr double kSliceS = 0.25;

/**
 * rham's pass (~1 s) outlasts a slice and a host-speed swing, so each
 * rham slice is one pass run as `--batch 300`, every batch calibrated
 * on both sides. The design numbers queries across batches, so the
 * answers are those of one batch.
 */
constexpr std::size_t kRhamBatch = 300;

std::unique_ptr<ham::Ham>
makeDesign(const std::string &name, std::size_t dim)
{
    if (name == "dham") {
        ham::DHamConfig cfg;
        cfg.dim = dim;
        return std::make_unique<ham::DHam>(cfg);
    }
    if (name == "rham") {
        ham::RHamConfig cfg;
        cfg.dim = dim;
        return std::make_unique<ham::RHam>(cfg);
    }
    ham::AHamConfig cfg;
    cfg.dim = dim;
    return std::make_unique<ham::AHam>(cfg);
}

/** @p queries in consecutive batches of @p size. */
std::vector<std::vector<Hypervector>>
splitBatches(const std::vector<Hypervector> &queries, std::size_t size)
{
    std::vector<std::vector<Hypervector>> batches;
    for (std::size_t at = 0; at < queries.size(); at += size) {
        batches.emplace_back(
            queries.begin() + static_cast<std::ptrdiff_t>(at),
            queries.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(at + size, queries.size())));
    }
    return batches;
}

/**
 * One `hdham classify --design NAME` pass over the queries in
 * @p batches (one batch, or `--batch N`), from the mapped model;
 * @p sink (may be null) counts the design's events. @p afterBatch,
 * when set, runs after each batch.
 */
std::vector<std::size_t>
classifyPass(const std::string &name, AssociativeMemory &memory,
             const std::vector<std::vector<Hypervector>> &batches,
             metrics::QueryMetrics *sink,
             const std::function<void()> &afterBatch = {})
{
    std::vector<std::size_t> winners;
    if (name == "am") {
        memory.attachMetrics(sink);
        for (const std::vector<Hypervector> &batch : batches) {
            for (const SearchResult &hit : memory.searchBatch(batch, 1))
                winners.push_back(hit.classId);
        }
        memory.attachMetrics(nullptr);
        return winners;
    }
    const std::unique_ptr<ham::Ham> design =
        makeDesign(name, memory.dim());
    design->loadFrom(memory);
    design->setScanPolicy(ScanPolicy{});
    design->attachMetrics(sink);
    for (const std::vector<Hypervector> &batch : batches) {
        for (const ham::HamResult &hit : design->searchBatch(batch, 1))
            winners.push_back(hit.classId);
        if (afterBatch)
            afterBatch();
    }
    return winners;
}

/**
 * One sweep over @p designs: designs[0] gives latency_ms, designs[1]
 * ops_per_s.
 */
Report
runSweep(const RunArgs &args, const std::vector<std::string> &designs)
{
    const CalibrationLoop loop = CalibrationLoop::Scan;
    Report report;
    const std::string path = "sweep.model";

    // The input: `hdham train`'s model, trained and saved once,
    // untimed. Its in-RAM memory is the exact-scan oracle.
    const lang::SyntheticCorpus corpus(corpusFor(args.seed));
    const lang::RecognitionPipeline pipeline(corpus);
    {
        modelfile::SaveOptions opts;
        opts.items = &pipeline.itemMemory();
        modelfile::save(path, pipeline.memory(), opts);
    }
    const std::size_t languages = corpus.numLanguages();

    // Set-up: what `hdham classify --model` does before it searches --
    // open and map the model, rebuild the encoder from the model's item
    // memory, and encode every held-out sentence on one Rng seeded as
    // the CLI seeds it.
    std::unique_ptr<modelload::LoadedModel> model;
    std::vector<lang::LabeledQuery> tests;
    // The held-out set as one batch, the way a pass takes it.
    std::vector<std::vector<Hypervector>> whole(1);
    std::vector<Hypervector> &queries = whole[0];
    double setupRawS = 0.0;
    const double setupS = timedSetups(5, [&] {
        model = std::make_unique<modelload::LoadedModel>(
            modelload::LoadedModel::open(path));
        const ItemMemory items = model->modelView()->itemMemory();
        const lang::PipelineConfig defaults;
        const Encoder encoder(items, defaults.ngram);
        Rng rng(defaults.seed ^ 0x636c6966ULL); // "clif"
        tests.clear();
        queries.clear();
        for (std::size_t lang = 0; lang < languages; ++lang) {
            for (const std::string &sentence : corpus.testSentences(lang)) {
                queries.push_back(encoder.encode(sentence, rng));
                tests.push_back({Hypervector(), lang});
            }
        }
    }, loop, setupRawS);
    AssociativeMemory &memory = model->memory();

    // Oracle: the exact scan of the in-RAM trained memory. am and dham
    // are exact, so each of their passes must reproduce it; rham and
    // aham must reproduce their own first pass.
    std::vector<std::size_t> exact;
    for (const SearchResult &hit : pipeline.memory().searchBatch(queries, 1))
        exact.push_back(hit.classId);
    std::map<std::string, std::vector<std::size_t>> expected;
    expected["am"] = exact;
    expected["dham"] = exact;
    const std::vector<std::vector<Hypervector>> rhamBatches =
        std::count(designs.begin(), designs.end(), "rham") != 0
            ? splitBatches(queries, kRhamBatch)
            : std::vector<std::vector<Hypervector>>{};

    // Pass times per design. am and dham passes (~4 ms) are shorter
    // than a calibration, so each slice's median pass is normalized by
    // the calibrations on either side of the slice.
    std::map<std::string, std::vector<double>> allPasses, normalS;
    std::vector<double> cals = {calibrate(loop)};
    const auto check = [&](const std::string &name,
                           const std::vector<std::size_t> &got) {
        if (expected.count(name) == 0)
            expected[name] = got;
        checkAnswers(report.checks, expected[name], got,
                     "sweep: prediction differs from the oracle pass");
    };
    const double deadline = now() + args.seconds;
    while (now() < deadline) {
        for (const std::string &name : designs) {
            if (name != "am" && name != "dham") {
                // Passes of 35 ms (aham) to 1 s (rham): every batch is
                // calibrated on both sides, each pass is a sample.
                const std::vector<std::vector<Hypervector>> &batches =
                    name == "rham" ? rhamBatches : whole;
                const double sliceEnd = now() + kSliceS;
                do {
                    double raw = 0.0, scaled = 0.0, mark = now();
                    const auto afterBatch = [&] {
                        const double took = now() - mark;
                        cals.push_back(calibrate(loop));
                        raw += took;
                        scaled += hostNormalized(
                            took, cals[cals.size() - 2], cals.back());
                        mark = now();
                    };
                    check(name, classifyPass(name, memory, batches,
                                             nullptr, afterBatch));
                    normalS[name].push_back(scaled);
                    allPasses[name].push_back(raw);
                } while (now() < sliceEnd);
                continue;
            }
            std::vector<double> slice;
            const double sliceEnd = now() + kSliceS;
            do {
                const double t0 = now();
                const std::vector<std::size_t> got =
                    classifyPass(name, memory, whole, nullptr);
                slice.push_back(now() - t0);
                check(name, got);
            } while (now() < sliceEnd);
            cals.push_back(calibrate(loop));
            normalS[name].push_back(hostNormalized(
                median(slice), cals[cals.size() - 2], cals.back()));
            allPasses[name].insert(allPasses[name].end(), slice.begin(),
                                   slice.end());
        }
    }

    // Two counted passes per design, after the timed window: the
    // counts must repeat and the answers must match the window's.
    // A traced run also times counted passes against plain ones, in
    // alternation, for the tracing overhead.
    std::map<std::string, metrics::QueryMetrics> counted;
    std::map<std::string, double> overhead;
    for (const std::string &name : designs) {
        checkAnswers(report.checks, expected[name],
                     classifyPass(name, memory, whole, &counted[name]),
                     "sweep: counted pass differs");
        metrics::QueryMetrics again;
        checkAnswers(report.checks, expected[name],
                     classifyPass(name, memory, whole, &again),
                     "sweep: counted pass differs");
        const metrics::QueryMetrics &first = counted[name];
        report.checks.expect(
            first.rowsScanned.value() == again.rowsScanned.value() &&
                first.rowsPruned.value() == again.rowsPruned.value() &&
                first.blocksSensed.value() ==
                    again.blocksSensed.value() &&
                first.saFires.value() == again.saFires.value() &&
                first.ltaComparisons.value() ==
                    again.ltaComparisons.value() &&
                first.stagesRun.value() == again.stagesRun.value(),
            "sweep: design counts do not repeat");
        if (!args.trace)
            continue;
        std::vector<double> plainS, countedS;
        for (int pair = 0; pair < (name == "rham" ? 1 : 5); ++pair) {
            double t0 = now();
            classifyPass(name, memory, whole, nullptr);
            plainS.push_back(now() - t0);
            metrics::QueryMetrics sink;
            t0 = now();
            classifyPass(name, memory, whole, &sink);
            countedS.push_back(now() - t0);
        }
        overhead[name] = quantile(countedS, 0.0) / quantile(plainS, 0.0);
    }

    std::map<std::string, double> accuracy;
    double decideS = 0.0;
    for (const std::string &name : designs) {
        const double t0 = now();
        accuracy[name] =
            lang::scorePredictions(tests, languages, expected[name])
                .accuracy();
        decideS += now() - t0;
    }

    // medians: host-normalized, for the gated metrics; rawMedians: the
    // wall-clock pass times the detail lines and the traced split use.
    std::vector<double> medians, rawMedians;
    double accSum = 0.0;
    for (const std::string &name : designs) {
        medians.push_back(median(normalS[name]));
        rawMedians.push_back(median(allPasses[name]));
        accSum += accuracy[name];
    }
    const double queriesPerPass = static_cast<double>(queries.size());

    if (!args.trace) {
        EndToEnd e;
        e.setupS = setupS;
        report.detail("setup_raw_s", setupRawS, "s");
        report.detail("host_calibration_ms", 1e3 * median(cals), "ms");
        e.peakRssMb = peakRssMb();
        e.latencyMs = 1e3 * medians[0];
        e.opsPerS = queriesPerPass / medians[1];
        e.accuracy = accSum / static_cast<double>(designs.size());
        addEndToEnd(report, e);
        for (std::size_t d = 0; d < designs.size(); ++d) {
            const std::string &name = designs[d];
            report.detail(name + "_qps", queriesPerPass / rawMedians[d],
                          "1/s");
            report.detail(name + "_pass_median_s", rawMedians[d], "s");
            report.detail(name + "_passes",
                          static_cast<double>(allPasses[name].size()),
                          "count");
            report.detail(name + "_accuracy", accuracy[name], "ratio");
        }
        return report;
    }

    // Traced: the counts come from the counted passes (sink attached);
    // their cost over plain passes is the tracing overhead. A design
    // this sweep does not run leaves its counts at 0.
    LayerSample s;
    double untracedSum = 0.0;
    std::vector<double> ratios;
    for (std::size_t d = 0; d < designs.size(); ++d) {
        const std::string &name = designs[d];
        const metrics::QueryMetrics &q = counted[name];
        (name == "am" || name == "dham" ? s.scanS : s.hamS) += rawMedians[d];
        if (name == "am") {
            s.scanUs = 1e6 * rawMedians[d] / queriesPerPass;
            s.rowsScanned = q.rowsScanned.value();
        } else if (name == "dham") {
            s.dhamRowsPruned = q.rowsPruned.value();
            s.dhamRowsScanned = q.rowsScanned.value();
        } else if (name == "rham") {
            s.rhamBlocksSensed = q.blocksSensed.value();
            s.rhamSaFires = q.saFires.value();
        } else {
            s.ahamLtaComparisons = q.ltaComparisons.value();
            s.ahamStages = q.stagesRun.value();
        }
        ratios.push_back(overhead[name]);
        untracedSum += rawMedians[d];
        report.detail(name + "_pass_s", rawMedians[d], "s");
    }
    s.decideS = decideS;
    s.overheadPct = 100.0 * (geomean(ratios) - 1.0);
    s.coveredPct =
        100.0 * (s.scanS + s.hamS + s.decideS) / untracedSum;
    addLayers(report, s);
    return report;
}

} // namespace

Report
runSweepScan(const RunArgs &args)
{
    return runSweep(args, {"am", "dham"});
}

Report
runSweepHam(const RunArgs &args)
{
    return runSweep(args, {"aham", "rham"});
}

} // namespace perfbench
