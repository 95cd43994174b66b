/**
 * @file
 * Batched-search throughput microbenchmarks (google-benchmark):
 * queries/second of the software associative memory and of each
 * behavioral HAM design when a batch of queries is scanned with
 * 1, 2, 4 and 8 worker threads.
 *
 * Wall-clock time is what matters for a parallel scan, so every
 * benchmark uses UseRealTime(). Emit machine-readable results with
 * --benchmark_format=json, as for micro_software_am.
 *
 * --stats-json PATH additionally attaches a metrics sink per engine
 * and dumps the aggregated query-path observability snapshot -- the
 * same hdham.metrics.v1 schema the hdham CLI emits -- after the
 * benchmarks finish. Without the flag no sink is attached, so the
 * numbers measure the metrics-disabled path.
 *
 * --kernel NAME pins the kernel tier, Hamming and bundling (any
 * registered tier name -- scalar, sse2, neon, avx2, avx512 -- or
 * auto) before any benchmark runs; the kernel actually used plus the
 * full compiled/available backend lists are reported in the stats
 * snapshot's "info" object either way, so a baseline records which
 * kernel matrix produced it.
 *
 * --perf measures the whole benchmark run with hardware counters
 * (core/perf_counters.hh): a summary line on stdout (cycles,
 * instructions, IPC, cache misses) and -- with --stats-json -- the
 * "perf" object in the snapshot. Hosts where perf_event_open is
 * denied print `perf: unavailable` and exit 0 with identical
 * benchmark results.
 *
 * --slow-query-us US / --events-out PATH capture queries at least US
 * microseconds slow (default 1000; 0 = every query) as
 * hdham.events.v1 JSON Lines, span tree and perf delta included.
 *
 * --swap-every N makes BM_SnapshotServe publish a rebuilt snapshot
 * every N query batches (default 64; 0 disables swapping), so the
 * serving-path numbers include live epoch swaps. The benchmark
 * reports the writer-side swap latency and the worst reader-side
 * acquire stall as counters; bench_gate records them in the
 * baseline as informational fields.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"
#include "core/assoc_memory.hh"
#include "core/distance.hh"
#include "core/event_log.hh"
#include "core/hypervector.hh"
#include "core/metrics.hh"
#include "core/model_file.hh"
#include "core/packed_rows.hh"
#include "core/perf_counters.hh"
#include "core/random.hh"
#include "core/snapshot.hh"
#include "ham/a_ham.hh"
#include "ham/d_ham.hh"
#include "ham/r_ham.hh"

namespace
{

using namespace hdham;

constexpr std::size_t kDim = 10000;
constexpr std::size_t kClasses = 100;
constexpr std::size_t kBatch = 256;

/** Shared sinks, attached only when --stats-json was requested. */
metrics::QueryMetrics *gAmMetrics = nullptr;
metrics::QueryMetrics *gDHamMetrics = nullptr;
metrics::QueryMetrics *gRHamMetrics = nullptr;
metrics::QueryMetrics *gAHamMetrics = nullptr;
metrics::QueryMetrics *gServeMetrics = nullptr;

/** Batches between snapshot publishes in BM_SnapshotServe (0=off). */
std::size_t gSwapEvery = 64;

void
BM_SoftwareBatchSearch(benchmark::State &state)
{
    const auto threads = static_cast<std::size_t>(state.range(0));
    Rng rng(11);
    AssociativeMemory am(kDim);
    am.attachMetrics(gAmMetrics);
    bench::storeRandomClasses(am, kDim, kClasses, rng);
    const auto queries = bench::makeQueries(kDim, kBatch, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(am.searchBatch(queries, threads));
    state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SoftwareBatchSearch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/**
 * Model persistence: cold-start latency (open a saved model until it
 * can serve) and steady-state serve throughput from the mapped file.
 * The hdham.model.v1 mmap view pays one checksum pass (or just
 * header validation with verification off) and no per-row work,
 * which is the point of the format.
 */
struct ModelBenchFixture
{
    ModelBenchFixture() : v1Path(bench::tempPath("bench_model_v1.hdc"))
    {
        Rng rng(19);
        AssociativeMemory am(kDim);
        const auto prototypes =
            bench::storeRandomClasses(am, kDim, kClasses, rng);
        queries =
            bench::makeSkewedQueries(prototypes, kBatch, 0.05, rng);
        modelfile::save(v1Path, am);
    }
    std::string v1Path;
    std::vector<Hypervector> queries;
};

const ModelBenchFixture &
modelBenchFixture()
{
    static ModelBenchFixture fixture;
    return fixture;
}

void
BM_ModelColdStartMmap(benchmark::State &state)
{
    const auto &fx = modelBenchFixture();
    const bool verify = state.range(0) != 0;
    modelfile::ModelView::Options opts;
    opts.verifyChecksums = verify;
    for (auto _ : state) {
        modelfile::ModelView view(fx.v1Path, opts);
        benchmark::DoNotOptimize(
            view.memory().search(fx.queries.front()));
    }
    state.SetLabel(verify ? "verify" : "no-verify");
}
BENCHMARK(BM_ModelColdStartMmap)->Arg(1)->Arg(0);

void
BM_MappedBatchSearch(benchmark::State &state)
{
    const auto threads = static_cast<std::size_t>(state.range(0));
    const auto &fx = modelBenchFixture();
    modelfile::ModelView view(fx.v1Path);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            view.memory().searchBatch(fx.queries, threads));
    state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_MappedBatchSearch)->Arg(1)->Arg(4)->UseRealTime();

/**
 * The serving read path: every batch pins a snapshot from a
 * SnapshotSource, scans through the pinned memory and drops the pin
 * -- exactly what the resident server does per request. With
 * --swap-every N (default 64) the same loop also plays writer: every
 * N batches it folds one more training sample into a rotating class
 * through the SnapshotBuilder and publishes the rebuilt snapshot, so
 * the measured q/s includes live epoch swaps instead of a frozen
 * store.
 *
 * Counters tell the two sides apart: swaps plus build/swap latency
 * are the writer's bill (the rebuild runs out-of-line, the swap is
 * the atomic hand-off inside publish), acquire_us_max is the worst
 * reader-visible stall -- the pin is one atomic acquire, so it must
 * stay microseconds flat no matter how expensive the rebuilds are.
 */
void
BM_SnapshotServe(benchmark::State &state)
{
    using Clock = std::chrono::steady_clock;
    const auto threads = static_cast<std::size_t>(state.range(0));
    Rng rng(23);
    snapshot::SnapshotBuilder builder(kDim);
    std::vector<Hypervector> prototypes;
    prototypes.reserve(kClasses);
    for (std::size_t c = 0; c < kClasses; ++c) {
        const std::size_t id =
            builder.addClass("class" + std::to_string(c));
        Hypervector hv = Hypervector::random(kDim, rng);
        builder.addSample(id, hv);
        prototypes.push_back(std::move(hv));
    }
    builder.attachMetrics(gServeMetrics);
    snapshot::SnapshotSource source;
    builder.publish(source);
    const auto queries =
        bench::makeSkewedQueries(prototypes, kBatch, 0.05, rng);

    std::uint64_t batches = 0;
    std::uint64_t swaps = 0;
    double buildUsSum = 0.0;
    double swapUsSum = 0.0;
    double swapUsMax = 0.0;
    double acquireUsMax = 0.0;
    for (auto _ : state) {
        const Clock::time_point pinStart = Clock::now();
        const snapshot::SnapshotRef pin = source.acquire();
        const double acquireUs =
            std::chrono::duration<double, std::micro>(
                Clock::now() - pinStart)
                .count();
        acquireUsMax = std::max(acquireUsMax, acquireUs);
        benchmark::DoNotOptimize(
            pin->memory().searchBatch(queries, threads));
        ++batches;
        if (gSwapEvery != 0 && batches % gSwapEvery == 0) {
            builder.addSample(
                static_cast<std::size_t>(swaps) % kClasses,
                Hypervector::random(kDim, rng));
            builder.publish(source);
            const auto stats = builder.lastPublish();
            ++swaps;
            buildUsSum += stats.buildUs;
            swapUsSum += stats.swapUs;
            swapUsMax = std::max(swapUsMax, stats.swapUs);
        }
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.counters["swaps"] =
        benchmark::Counter(static_cast<double>(swaps));
    if (swaps > 0) {
        state.counters["build_us_mean"] = benchmark::Counter(
            buildUsSum / static_cast<double>(swaps));
        state.counters["swap_us_mean"] = benchmark::Counter(
            swapUsSum / static_cast<double>(swaps));
        state.counters["swap_us_max"] = benchmark::Counter(swapUsMax);
    }
    state.counters["acquire_us_max"] =
        benchmark::Counter(acquireUsMax);
}
BENCHMARK(BM_SnapshotServe)->Arg(1)->Arg(4)->UseRealTime();

/**
 * Class-axis scaling: the exact scan at C = 10k / 100k / 1M rows,
 * each query 5% from a stored prototype. Reduced dimensionality
 * (1,024) keeps the 1M store at 128 MB.
 */
constexpr std::size_t kScaleDim = 1024;
constexpr std::size_t kScaleBatch = 8;

struct ClassScaleFixture
{
    explicit ClassScaleFixture(std::size_t dim) : rows(dim) {}
    PackedRows rows;
    std::vector<Hypervector> queries;
};

/**
 * Store fixtures are expensive (a 1M-row build), so each class count
 * is built once per process and reused across iterations.
 */
const ClassScaleFixture &
classScaleFixture(std::size_t classes)
{
    static std::map<std::size_t, std::unique_ptr<ClassScaleFixture>>
        cache;
    auto &slot = cache[classes];
    if (!slot) {
        slot = std::make_unique<ClassScaleFixture>(kScaleDim);
        Rng rng(17);
        slot->rows.reserve(classes);
        std::vector<Hypervector> prototypes;
        prototypes.reserve(kScaleBatch);
        for (std::size_t c = 0; c < classes; ++c) {
            Hypervector hv = Hypervector::random(kScaleDim, rng);
            if (prototypes.size() < kScaleBatch)
                prototypes.push_back(hv);
            slot->rows.append(hv);
        }
        slot->queries = bench::makeSkewedQueries(
            prototypes, kScaleBatch, 0.05, rng);
    }
    return *slot;
}

void
BM_ClassScaleRowMajor(benchmark::State &state)
{
    const auto classes = static_cast<std::size_t>(state.range(0));
    const ClassScaleFixture &fx = classScaleFixture(classes);
    for (auto _ : state) {
        for (const Hypervector &query : fx.queries)
            benchmark::DoNotOptimize(fx.rows.nearest(query, kScaleDim));
    }
    state.SetItemsProcessed(state.iterations() * kScaleBatch);
}
BENCHMARK(BM_ClassScaleRowMajor)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->UseRealTime();

template <typename HamT, typename ConfigT>
void
hamBatchBenchmark(benchmark::State &state, const ConfigT &config,
                  metrics::QueryMetrics *sink)
{
    const auto threads = static_cast<std::size_t>(state.range(0));
    Rng rng(12);
    HamT ham(config);
    ham.attachMetrics(sink);
    bench::storeRandomClasses(ham, config.dim, 21, rng);
    const auto queries =
        bench::makeQueries(config.dim, kBatch, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(ham.searchBatch(queries, threads));
    state.SetItemsProcessed(state.iterations() * kBatch);
}

void
BM_DHamBatchSearch(benchmark::State &state)
{
    ham::DHamConfig cfg;
    cfg.dim = kDim;
    hamBatchBenchmark<ham::DHam>(state, cfg, gDHamMetrics);
}
BENCHMARK(BM_DHamBatchSearch)->Arg(1)->Arg(4)->UseRealTime();

void
BM_RHamBatchSearch(benchmark::State &state)
{
    ham::RHamConfig cfg;
    cfg.dim = kDim;
    cfg.overscaledBlocks = cfg.totalBlocks();
    hamBatchBenchmark<ham::RHam>(state, cfg, gRHamMetrics);
}
BENCHMARK(BM_RHamBatchSearch)->Arg(1)->Arg(4)->UseRealTime();

void
BM_AHamBatchSearch(benchmark::State &state)
{
    ham::AHamConfig cfg;
    cfg.dim = kDim;
    hamBatchBenchmark<ham::AHam>(state, cfg, gAHamMetrics);
}
BENCHMARK(BM_AHamBatchSearch)->Arg(1)->Arg(4)->UseRealTime();

/**
 * One human-readable line for the measured run: every counter (or
 * "perf: unavailable" when none could be read) plus derived IPC.
 * Written to stderr so --benchmark_format=json output stays a clean
 * JSON document on stdout.
 */
void
printPerfSummary(const perf::Sample &measured)
{
    if (!measured.anyAvailable()) {
        std::fprintf(stderr, "perf: unavailable (%s)\n",
                     perf::statusName(perf::status()));
        return;
    }
    std::fprintf(stderr, "perf:");
    for (std::size_t id = 0; id < perf::kCounterCount; ++id) {
        if (measured.available(id)) {
            std::fprintf(stderr, " %s=%lld", perf::counterName(id),
                         static_cast<long long>(measured[id]));
        } else {
            std::fprintf(stderr, " %s=unavailable",
                         perf::counterName(id));
        }
    }
    if (measured.available(perf::kCycles) &&
        measured.available(perf::kInstructions) &&
        measured[perf::kCycles] > 0) {
        std::fprintf(
            stderr, " ipc=%.3f",
            static_cast<double>(measured[perf::kInstructions]) /
                static_cast<double>(measured[perf::kCycles]));
    }
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // Pull our own flags out before google-benchmark sees the args.
    std::string statsPath;
    std::string eventsPath;
    std::string slowArg;
    bool perfOn = false;
    std::vector<char *> passthrough;
    passthrough.reserve(static_cast<std::size_t>(argc) + 1);
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats-json") == 0 &&
            i + 1 < argc) {
            statsPath = argv[++i];
            continue;
        }
        if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
            distance::setKernelByName(argv[++i]);
            continue;
        }
        if (std::strcmp(argv[i], "--perf") == 0) {
            perfOn = true;
            continue;
        }
        if (std::strcmp(argv[i], "--events-out") == 0 &&
            i + 1 < argc) {
            eventsPath = argv[++i];
            continue;
        }
        if (std::strcmp(argv[i], "--slow-query-us") == 0 &&
            i + 1 < argc) {
            slowArg = argv[++i];
            continue;
        }
        if (std::strcmp(argv[i], "--swap-every") == 0 &&
            i + 1 < argc) {
            gSwapEvery = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
            continue;
        }
        if (std::strncmp(argv[i], "--swap-every=", 13) == 0) {
            gSwapEvery = static_cast<std::size_t>(
                std::strtoull(argv[i] + 13, nullptr, 10));
            continue;
        }
        passthrough.push_back(argv[i]);
    }
    passthrough.push_back(nullptr);
    int passthroughArgc =
        static_cast<int>(passthrough.size()) - 1;

    metrics::QueryMetrics am, dham, rham, aham, serve;
    if (!statsPath.empty()) {
        gAmMetrics = &am;
        gDHamMetrics = &dham;
        gRHamMetrics = &rham;
        gAHamMetrics = &aham;
        gServeMetrics = &serve;
    }

    benchmark::Initialize(&passthroughArgc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(passthroughArgc,
                                               passthrough.data()))
        return 1;

    // Arm slow-query capture and the run-wide counters around the
    // benchmark loop itself; worker threads fork inside it, so the
    // inherited counters fold their work into the totals.
    events::EventLog eventLog(65536);
    const double slowQueryUs =
        slowArg.empty() ? 1000.0
                        : std::strtod(slowArg.c_str(), nullptr);
    if (!eventsPath.empty())
        events::setSlowQueryCapture({&eventLog, slowQueryUs, perfOn});
    std::optional<perf::ProcessCounters> workload;
    if (perfOn)
        workload.emplace();

    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const perf::Sample measured =
        perfOn ? workload->delta() : perf::Sample();
    if (perfOn)
        printPerfSummary(measured);
    if (!eventsPath.empty()) {
        events::clearSlowQueryCapture();
        eventLog.saveJsonl(eventsPath);
        std::fprintf(stderr,
                     "events written to %s (%zu captured, %llu "
                     "dropped)\n",
                     eventsPath.c_str(), eventLog.size(),
                     static_cast<unsigned long long>(
                         eventLog.dropped()));
    }

    if (!statsPath.empty()) {
        metrics::Registry registry;
        registry.attachQuery("am", am);
        registry.attachQuery("dham", dham);
        registry.attachQuery("rham", rham);
        registry.attachQuery("aham", aham);
        registry.attachQuery("am_serve", serve);
        registry.setGauge("run.swap_every",
                          static_cast<double>(gSwapEvery));
        registry.setGauge("run.batch",
                          static_cast<double>(kBatch));
        registry.setGauge("model.dim", static_cast<double>(kDim));
        registry.setInfo("kernel", distance::activeKernelName());
        registry.setInfo("kernels_compiled",
                         distance::compiledKernelList());
        registry.setInfo("kernels_available",
                         distance::availableKernelList());
        if (perfOn) {
            // Rows scanned across every instrumented engine -- the
            // denominator for the per-row miss rates.
            const std::uint64_t rows =
                am.rowsScanned.value() + dham.rowsScanned.value() +
                rham.rowsScanned.value() + aham.rowsScanned.value() +
                serve.rowsScanned.value();
            perf::exportTo(registry, measured, rows);
        } else {
            registry.setInfo("perf", "off");
        }
        registry.saveJson(statsPath);
    }
    return 0;
}
