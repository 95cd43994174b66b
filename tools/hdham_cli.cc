/**
 * @file
 * hdham command-line tool.
 *
 * Subcommands:
 *   train    --out PATH [--dim N] [--train-chars N] [--sentences N]
 *            [--threads N] [--stats-json PATH] [--trace PATH]
 *            train the 21-language classifier on the synthetic
 *            corpus and persist the learned hypervectors as
 *            hdham.model.v1 (mmap-able; embeds the item memory)
 *   classify --model PATH [--design am|dham|rham|aham] [--threads N]
 *            [--batch N] [--stats-json PATH] [--trace PATH] TEXT...
 *            classify text samples with the chosen HAM design,
 *            batching queries through searchBatch(); a TEXT may not
 *            start with "--"
 *
 * --stats-json dumps a query-path observability snapshot (the
 * hdham.metrics.v1 schema of core/metrics.hh): per-design counters
 * (queries, rows scanned, bits sampled, blocks sensed, ...) and the
 * batch latency histogram with p50/p95/p99.
 *
 * --trace records every span on the query path (core/trace.hh) and
 * writes a Chrome trace-event file (hdham.trace.v1) that loads in
 * Perfetto / chrome://tracing, plus a per-span summary on stdout.
 *
 * --perf wraps the workload in a hardware-counter group
 * (core/perf_counters.hh): cycles, instructions, cache misses,
 * branch misses and page faults land in the metrics snapshot's
 * "perf" object with derived rates (IPC, misses per row), and traced
 * spans carry per-span deltas. Hosts where perf_event_open is denied
 * degrade gracefully: values are tagged unavailable (-1), info
 * "perf" says so, and results are bit-identical.
 *
 * --slow-query-us / --events-out capture queries slower than the
 * threshold -- span tree plus perf delta -- into a bounded
 * hdham.events.v1 JSONL log (core/event_log.hh) with exact drop
 * counts.
 *   save     --model PATH --out PATH
 *            rewrite a model as the current writer lays it out
 *            (row-major, one shard): the migration path for files
 *            in a legacy sliced or sharded layout
 *   load     --model PATH [--no-verify]
 *            mmap an hdham.model.v1 file, validate it and describe
 *            what it serves (the same loader classify uses)
 *   info     --model PATH
 *            describe a saved model
 *   cost     [--dim N] [--classes N]
 *            print the design-space cost table
 *
 * classify/info/load/save open every model through the shared
 * loader (core/model_loader.hh): the hdham.model.v1 file is mmap'ed
 * and -- with --design am -- queried zero-copy in place.
 *
 * Every verb refuses a leftover argument that starts with "--" (a
 * misspelt flag, or one the verb does not take) with exit code 2,
 * before doing any work. Every
 * --stats-json snapshot records the model provenance (model.path,
 * model.format, model.version, model.checksum) in the "info" map.
 *
 * Models trained by this tool embed the item memory, so classify
 * rebuilds the exact encoder (library-default trigrams) from the
 * file itself; it refuses a model that embeds none.
 */

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/distance.hh"
#include "core/event_log.hh"
#include "core/metrics.hh"
#include "core/model_file.hh"
#include "core/model_loader.hh"
#include "core/perf_counters.hh"
#include "core/trace.hh"
#include "ham/a_ham.hh"
#include "ham/d_ham.hh"
#include "ham/design_space.hh"
#include "ham/r_ham.hh"
#include "cli_args.hh"
#include "lang/corpus.hh"
#include "lang/pipeline.hh"
#include "serve_commands.hh"

namespace
{

using namespace hdham;
using namespace hdham::cli;

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  hdham train --out PATH [--dim N] [--train-chars N] "
        "[--sentences N] [--threads N] [--kernel K] "
        "[--perf] [--stats-json PATH] [--trace PATH]\n"
        "  hdham classify --model PATH "
        "[--design am|dham|rham|aham] "
        "[--threads N] [--batch N] [--kernel K] [--perf] "
        "[--slow-query-us US] [--events-out PATH] "
        "[--stats-json PATH] [--trace PATH] TEXT...\n"
        "  hdham save --model PATH --out PATH\n"
        "  hdham load --model PATH [--no-verify]\n"
        "  hdham info --model PATH\n"
        "  hdham cost [--dim N] [--classes N]\n"
        "  hdham serve --model PATH (--socket PATH | --port N) "
        "[--threads N] [--kernel K]\n"
        "              [--no-verify] [--trace]\n"
        "  hdham query (--socket PATH | --port N) "
        "ping|classify TEXT...|update [--assimilate]\n"
        "              [--threshold BITS] LABEL=TEXT..."
        "|swap|stats|trace|shutdown\n"
        "\n"
        "  --design am       serve queries from the software "
        "associative memory itself; a v1 model is then\n"
        "                    queried zero-copy straight from the "
        "mmap'ed file\n"
        "  --threads N       scan workers for batched search (0 = "
        "all hardware threads; default 1)\n"
        "  --batch N         queries per searchBatch() call (0 = "
        "all at once; default 0)\n"
        "  --kernel K        kernel tier for both the Hamming "
        "distance and bundling: scalar, sse2, neon,\n"
        "                    avx2, avx512 or auto (default: "
        "HDHAM_KERNEL env, else the widest tier this\n"
        "                    CPU supports; results and model "
        "bytes are bit-identical for every kernel)\n"
        "  --perf            measure the workload with hardware "
        "counters (perf_event_open): the metrics snapshot\n"
        "                    gains a \"perf\" object (cycles, "
        "instructions, cache/branch misses, page faults,\n"
        "                    IPC, misses per row) and traced spans "
        "carry per-span deltas; denied or non-Linux hosts\n"
        "                    degrade to tagged -1 values with "
        "results unchanged\n"
        "  --slow-query-us US\n"
        "                    capture queries at least US "
        "microseconds slow into the --events-out log (0 =\n"
        "                    every query; default 1000)\n"
        "  --events-out PATH write captured slow queries as "
        "hdham.events.v1 JSON Lines (span tree + perf\n"
        "                    delta per query, bounded, exact drop "
        "counts)\n"
        "  --stats-json PATH write a query-path metrics snapshot "
        "(hdham.metrics.v1 JSON)\n"
        "  --trace PATH      write a Chrome trace-event file "
        "(hdham.trace.v1 JSON, loads in Perfetto) and print a\n"
        "                    per-span timing summary\n"
        "\n"
        "  An argument that starts with -- must be a flag the verb "
        "takes: anything else (a misspelt\n"
        "  flag, or a classify TEXT starting with --) exits 2 before "
        "any work starts.\n"
        "  `hdham save` rewrites a model in a legacy sliced or "
        "sharded layout as row-major.\n");
    return 2;
}

/**
 * Write one JSON artifact through @p body and report the path on
 * stdout. Shared by the --stats-json and --trace writers so the
 * open/flush/error handling lives in one place.
 */
void
writeArtifact(const char *what, const std::string &path,
              const std::function<void(std::ostream &)> &body)
{
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error(std::string(what) +
                                 ": cannot open " + path);
    }
    body(out);
    out.flush();
    if (!out) {
        throw std::runtime_error(std::string(what) +
                                 ": write failed: " + path);
    }
    std::printf("%s written to %s\n", what, path.c_str());
}

/**
 * Common tail of every --stats-json run: the model/run gauges every
 * subcommand reports, then the write. Callers attach their per-design
 * counters (and any extra gauges) before handing the registry over.
 */
void
writeStatsJson(metrics::Registry &registry, const std::string &path,
               std::size_t dim, std::size_t classes,
               std::size_t threads)
{
    registry.setGauge("model.dim", static_cast<double>(dim));
    registry.setGauge("model.classes", static_cast<double>(classes));
    registry.setGauge("run.threads", static_cast<double>(threads));
    registry.setInfo("kernel", distance::activeKernelName());
    registry.setInfo("kernels_available",
                     distance::availableKernelList());
    writeArtifact("metrics", path, [&](std::ostream &out) {
        registry.writeJson(out);
    });
}

/**
 * Deactivate the tracer, write the Chrome trace file, and print the
 * per-span summary. Call after the traced workload has finished (all
 * batch scans joined).
 */
void
writeTrace(trace::Tracer &tracer, const std::string &path)
{
    trace::setActive(nullptr);
    writeArtifact("trace", path, [&](std::ostream &out) {
        tracer.writeChromeJson(out);
    });
    tracer.writeSummary(std::cout);
}

int
cmdTrain(std::vector<std::string> args)
{
    const std::string out = option(args, "--out", "");
    if (out.empty()) {
        std::fprintf(stderr, "train: --out is required\n");
        return 2;
    }
    lang::CorpusConfig corpusCfg;
    corpusCfg.trainChars = numericOption(args, "--train-chars",
                                         corpusCfg.trainChars);
    corpusCfg.testSentences = numericOption(args, "--sentences",
                                            corpusCfg.testSentences);
    lang::PipelineConfig pipeCfg;
    pipeCfg.dim = numericOption(args, "--dim", pipeCfg.dim);
    const std::size_t threads = numericOption(args, "--threads", 1);
    const std::string statsPath = option(args, "--stats-json", "");
    const std::string tracePath = option(args, "--trace", "");
    const bool perfOn = boolOption(args, "--perf");
    if (!kernelOption(args, "train"))
        return 2;
    rejectUnknownFlags(args);

    std::printf("training %zu languages at D = %zu...\n",
                corpusCfg.numLanguages, pipeCfg.dim);
    // Activate tracing before the corpus is generated, so the
    // corpus.generate, lang.train, lang.encode and save spans are all
    // captured.
    trace::Tracer tracer;
    tracer.setCapturePerf(perfOn);
    if (!tracePath.empty())
        trace::setActive(&tracer);
    const lang::SyntheticCorpus corpus(corpusCfg);

    // The counter workload starts here: training plus evaluation.
    std::optional<perf::ProcessCounters> workload;
    if (perfOn)
        workload.emplace();

    lang::RecognitionPipeline pipeline(corpus, pipeCfg);

    metrics::QueryMetrics memoryMetrics;
    metrics::ClassificationMetrics evalMetrics;
    if (!statsPath.empty())
        pipeline.attachMetrics(&evalMetrics, &memoryMetrics);

    const auto eval = pipeline.evaluateExact(threads);
    std::printf("held-out accuracy: %.1f%% (%zu/%zu)\n",
                100.0 * eval.accuracy(), eval.correct, eval.total);

    modelfile::SaveOptions saveOpts;
    saveOpts.items = &pipeline.itemMemory();
    modelfile::save(out, pipeline.memory(), saveOpts);
    std::printf("model written to %s (hdham.model.v1)\n",
                out.c_str());

    if (!tracePath.empty())
        writeTrace(tracer, tracePath);

    if (!statsPath.empty()) {
        metrics::Registry registry;
        registry.attachQuery("am", memoryMetrics);
        registry.attachClassification("lang", evalMetrics);
        if (perfOn) {
            perf::exportTo(registry, workload->delta(),
                           memoryMetrics.rowsScanned.value());
        } else {
            registry.setInfo("perf", "off");
        }
        writeStatsJson(registry, statsPath, pipeCfg.dim,
                       pipeline.memory().size(), threads);
    }
    return 0;
}

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
    if (name == "aham") {
        ham::AHamConfig cfg;
        cfg.dim = dim;
        return std::make_unique<ham::AHam>(cfg);
    }
    return nullptr;
}

int
cmdClassify(std::vector<std::string> args)
{
    const std::string path = option(args, "--model", "");
    const std::string design = option(args, "--design", "dham");
    const std::size_t threads = numericOption(args, "--threads", 1);
    const std::size_t batch = numericOption(args, "--batch", 0);
    const std::string statsPath = option(args, "--stats-json", "");
    const std::string tracePath = option(args, "--trace", "");
    const bool perfOn = boolOption(args, "--perf");
    const std::string eventsPath = option(args, "--events-out", "");
    const std::string slowArg = option(args, "--slow-query-us", "");
    if (!slowArg.empty() && eventsPath.empty()) {
        std::fprintf(stderr,
                     "classify: --slow-query-us needs --events-out "
                     "(nowhere to write captured queries)\n");
        return 2;
    }
    // 0 is a valid threshold (capture every query), so "flag absent"
    // is distinguished from the value, not defaulted numerically.
    const double slowQueryUs =
        slowArg.empty() ? 1000.0
                        : parseNumber<double>("--slow-query-us", slowArg);
    if (!kernelOption(args, "classify"))
        return 2;
    rejectUnknownFlags(args);
    if (path.empty() || args.empty()) {
        std::fprintf(stderr, "classify: need --model and at least "
                             "one TEXT argument\n");
        return 2;
    }
    modelload::LoadedModel model =
        modelload::LoadedModel::open(path);
    AssociativeMemory &memory = model.memory();
    const modelfile::ModelView &view = *model.modelView();
    if (!view.hasItemMemory())
        throw std::runtime_error(path + " embeds no item memory, which "
                                        "classify needs to encode text");

    // --design am serves from the associative memory itself: the
    // model is queried zero-copy straight from the mapping.
    std::unique_ptr<ham::Ham> hardware;
    if (design != "am") {
        hardware = makeDesign(design, memory.dim());
        if (!hardware) {
            std::fprintf(stderr, "classify: unknown design '%s'\n",
                         design.c_str());
            return 2;
        }
        hardware->loadFrom(memory);
    }

    metrics::QueryMetrics designMetrics;
    if (!statsPath.empty()) {
        if (hardware)
            hardware->attachMetrics(&designMetrics);
        else
            memory.attachMetrics(&designMetrics);
    }

    trace::Tracer tracer;
    tracer.setCapturePerf(perfOn);
    if (!tracePath.empty())
        trace::setActive(&tracer);

    // The --perf workload covers encoding and the batched search;
    // parallelFor workers fork after this point, so the inherited
    // counters aggregate their work too.
    std::optional<perf::ProcessCounters> workload;
    if (perfOn)
        workload.emplace();

    // Rebuild the encoder from the item memory the model embeds.
    const lang::PipelineConfig defaults;
    const ItemMemory items = view.itemMemory();
    const Encoder encoder(items, defaults.ngram);
    Rng rng(defaults.seed ^ 0x636c6966ULL);

    // Encode every usable sample up front, then classify through the
    // batch path in --batch sized chunks (0 = one shot).
    std::vector<Hypervector> queries;
    std::vector<std::size_t> queryOf(args.size(),
                                     args.size()); // skip marker
    {
        TRACE_SPAN("classify.encode");
        for (std::size_t i = 0; i < args.size(); ++i) {
            if (args[i].size() < defaults.ngram)
                continue;
            queryOf[i] = queries.size();
            queries.push_back(encoder.encode(args[i], rng));
        }
    }

    // Arm slow-query capture for the duration of the batch loop; the
    // batch executor consults it per chunk and serves each query
    // under a span collector.
    events::EventLog eventLog(65536);
    if (!eventsPath.empty())
        events::setSlowQueryCapture({&eventLog, slowQueryUs, perfOn});

    std::vector<std::size_t> winners;
    winners.reserve(queries.size());
    const std::size_t chunk = batch == 0 ? queries.size() : batch;
    for (std::size_t start = 0; start < queries.size();
         start += chunk) {
        const std::size_t end =
            std::min(start + chunk, queries.size());
        const std::vector<Hypervector> slice(
            queries.begin() + static_cast<long>(start),
            queries.begin() + static_cast<long>(end));
        if (hardware) {
            for (const auto &hit :
                 hardware->searchBatch(slice, threads))
                winners.push_back(hit.classId);
        } else {
            for (const auto &hit : memory.searchBatch(slice, threads))
                winners.push_back(hit.classId);
        }
    }

    if (!eventsPath.empty()) {
        events::clearSlowQueryCapture();
        writeArtifact("events", eventsPath, [&](std::ostream &out) {
            eventLog.writeJsonl(out);
        });
        std::printf("slow queries   : %zu captured, %llu dropped "
                    "(threshold %.0f us)\n",
                    eventLog.size(),
                    static_cast<unsigned long long>(
                        eventLog.dropped()),
                    slowQueryUs);
    }

    {
        TRACE_SPAN("classify.decide");
        for (std::size_t i = 0; i < args.size(); ++i) {
            if (queryOf[i] == args.size()) {
                std::printf("%-14s <- \"%s\" (too short)\n", "?",
                            args[i].c_str());
                continue;
            }
            std::printf("%-14s <- \"%.60s\"\n",
                        memory.labelOf(winners[queryOf[i]]).c_str(),
                        args[i].c_str());
        }
    }

    if (!tracePath.empty())
        writeTrace(tracer, tracePath);

    if (!statsPath.empty()) {
        metrics::Registry registry;
        registry.attachQuery(design, designMetrics);
        registry.setGauge("run.batch", static_cast<double>(chunk));
        if (perfOn) {
            perf::exportTo(registry, workload->delta(),
                           designMetrics.rowsScanned.value());
        } else {
            registry.setInfo("perf", "off");
        }
        // How much of the mapped model the scan actually pulled into
        // memory -- the mmap cold-start story in two gauges.
        modelload::recordResidency(registry, view);
        model.recordInfo(registry);
        writeStatsJson(registry, statsPath, memory.dim(),
                       memory.size(), threads);
    }
    return 0;
}

/**
 * `hdham save`: rewrite a model as the writer lays it out (row-major,
 * one shard), which migrates a file in a legacy sliced or sharded
 * layout. Side memories embedded in the input are carried over.
 */
int
cmdSave(std::vector<std::string> args)
{
    const std::string in = option(args, "--model", "");
    const std::string out = option(args, "--out", "");
    rejectUnknownFlags(args);
    if (in.empty() || out.empty()) {
        std::fprintf(stderr,
                     "save: --model and --out are required\n");
        return 2;
    }

    // The snapshot carries the input's side memories across; the
    // writer streams the rows straight from the mapping (or, for a
    // legacy layout, from the row-major copy the open made).
    const std::unique_ptr<snapshot::MemorySnapshot> snap =
        modelload::LoadedModel::open(in).intoSnapshot();
    modelfile::SaveOptions saveOpts;
    if (snap->hasItemMemory())
        saveOpts.items = &snap->itemMemory();
    if (snap->hasLevelMemory())
        saveOpts.levels = &snap->levelMemory();

    // Stream to a sibling temp file and rename it into place once
    // the writer is done. Writing --out directly would, when it
    // names the same file as --model, truncate the mapping the
    // streaming writer is still reading from (SIGBUS: MAP_PRIVATE
    // does not survive truncation of the backing file); the rename
    // also keeps a failed save from leaving a half-written model at
    // the destination.
    const std::string tmp =
        out + ".tmp." + std::to_string(::getpid());
    try {
        modelfile::save(tmp, snap->memory(), saveOpts);
        if (std::rename(tmp.c_str(), out.c_str()) != 0) {
            const int err = errno;
            std::remove(tmp.c_str());
            std::fprintf(stderr,
                         "save: cannot move %s into place: %s\n",
                         out.c_str(), std::strerror(err));
            return 1;
        }
    } catch (...) {
        std::remove(tmp.c_str());
        throw;
    }

    const modelfile::ModelView written(out);
    std::printf("model written to %s (hdham.model.v1, %zu classes, "
                "D = %zu, checksum %08x)\n",
                out.c_str(), written.classes(), written.dim(),
                written.checksum());
    return 0;
}

/**
 * `hdham load`: mmap and validate an hdham.model.v1 file with the
 * same loader classify uses, then describe what it serves.
 */
int
cmdLoad(std::vector<std::string> args)
{
    const std::string path = option(args, "--model", "");
    if (path.empty()) {
        std::fprintf(stderr, "load: --model is required\n");
        return 2;
    }
    modelfile::ModelView::Options opts;
    opts.verifyChecksums = !boolOption(args, "--no-verify");
    rejectUnknownFlags(args);
    // The shared open path (core/model_loader.hh): the exact loader
    // classify and hdham_server use.
    const modelload::LoadedModel model =
        modelload::LoadedModel::open(path, opts);
    const modelfile::ModelView &view = *model.modelView();
    const AssociativeMemory &memory = model.memory();
    std::printf("format         : hdham.model.v%u (mmap)\n",
                view.version());
    std::printf("file size      : %zu bytes\n", view.fileSize());
    std::printf("checksum       : %08x%s\n", view.checksum(),
                opts.verifyChecksums ? " (verified)"
                                     : " (not verified)");
    std::printf("dimensionality : %zu\n", memory.dim());
    std::printf("classes        : %zu\n", memory.size());
    const modelfile::FileLayout &layout = view.fileLayout();
    std::printf("layout         : %s, %zu shard%s",
                layout.sliced ? "sliced" : "row", layout.shards,
                layout.shards == 1 ? "" : "s");
    if (layout.sliced)
        std::printf(", slice prefix %zu bits", layout.slicePrefix);
    std::printf("\n");
    std::printf("item memory    : %s\n",
                view.hasItemMemory() ? "embedded" : "absent");
    std::printf("level memory   : %s\n",
                view.hasLevelMemory() ? "embedded" : "absent");
    // Loading touched only the header and the checksum pass, so this
    // shows how much of the file validation left resident.
    const perf::Residency res =
        perf::residency(view.mapBase(), view.fileSize());
    if (res.residentBytes >= 0) {
        std::printf("resident       : %lld of %lld mapped bytes\n",
                    static_cast<long long>(res.residentBytes),
                    static_cast<long long>(res.mappedBytes));
    }
    return 0;
}

int
cmdInfo(std::vector<std::string> args)
{
    const std::string path = option(args, "--model", "");
    rejectUnknownFlags(args);
    if (path.empty()) {
        std::fprintf(stderr, "info: --model is required\n");
        return 2;
    }
    const modelload::LoadedModel model =
        modelload::LoadedModel::open(path);
    const AssociativeMemory &memory = model.memory();
    std::printf("format         : hdham.model.v1 (mmap)\n");
    std::printf("dimensionality : %zu\n", memory.dim());
    std::printf("classes        : %zu\n", memory.size());
    if (memory.size() >= 2) {
        std::printf("min class margin: %zu bits\n",
                    memory.minPairwiseDistance());
    }
    for (std::size_t id = 0; id < memory.size(); ++id) {
        std::printf("  [%2zu] %-14s (%zu ones)\n", id,
                    memory.labelOf(id).c_str(),
                    memory.vectorOf(id).popcount());
    }
    return 0;
}

int
cmdCost(std::vector<std::string> args)
{
    const std::size_t dim = numericOption(args, "--dim", 10000);
    const std::size_t classes =
        numericOption(args, "--classes", 21);
    rejectUnknownFlags(args);
    std::printf("design space at D = %zu, C = %zu:\n", dim, classes);
    std::printf("%8s %10s | %-26s %10s %9s %10s\n", "design",
                "target", "knobs", "energy/pJ", "delay/ns", "EDP");
    for (const ham::DesignPoint &point :
         ham::fullDesignSpace(dim, classes)) {
        std::printf("%8s %10s | %-26s %10.2f %9.2f %10.3g\n",
                    ham::designName(point.design),
                    ham::targetName(point.target),
                    point.description.c_str(), point.cost.energyPj,
                    point.cost.delayNs, point.cost.edp());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (command == "train")
            return cmdTrain(std::move(args));
        if (command == "classify")
            return cmdClassify(std::move(args));
        if (command == "save")
            return cmdSave(std::move(args));
        if (command == "load")
            return cmdLoad(std::move(args));
        if (command == "info")
            return cmdInfo(std::move(args));
        if (command == "cost")
            return cmdCost(std::move(args));
        if (command == "serve")
            return serve::runServeCommand(std::move(args));
        if (command == "query")
            return serve::runQueryCommand(std::move(args));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hdham %s: %s\n", command.c_str(),
                     e.what());
        return dynamic_cast<const UsageError *>(&e) ? 2 : 1;
    }
    return usage();
}
