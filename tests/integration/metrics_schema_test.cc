/**
 * @file
 * Golden tests for the hdham.metrics.v1 snapshot: the exported key
 * set is a frozen contract (dashboards and the CLI's --stats-json
 * consumers parse it), and every counter identity is deterministic
 * for a fixed seed and workload, so exact values are asserted.
 *
 * If a change intentionally alters the schema, bump the version
 * string and re-record the key set here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/hypervector.hh"
#include "core/metrics.hh"
#include "core/random.hh"
#include "ham/a_ham.hh"
#include "ham/d_ham.hh"
#include "ham/r_ham.hh"
#include "lang/corpus.hh"
#include "lang/pipeline.hh"

namespace
{

using namespace hdham;

/** Small, fast corpus: 4 languages, short sentences. */
lang::CorpusConfig
smallCorpus()
{
    lang::CorpusConfig cfg;
    cfg.numLanguages = 4;
    cfg.familySize = 2;
    cfg.trainChars = 4000;
    cfg.testSentences = 10;
    return cfg;
}

lang::PipelineConfig
smallPipeline()
{
    lang::PipelineConfig cfg;
    cfg.dim = 1024;
    return cfg;
}

/** The frozen per-engine counter suffixes of hdham.metrics.v1. */
const std::vector<std::string> &
queryCounterSuffixes()
{
    static const std::vector<std::string> suffixes = {
        ".queries",          ".batches",
        ".rows_scanned",     ".bits_sampled",
        ".blocks_sensed",    ".sa_fires",
        ".overscale_errors", ".stages_run",
        ".lta_comparisons",  ".saturation_events",
        ".rows_pruned",
    };
    return suffixes;
}

TEST(MetricsSchemaTest, QueryKeySetIsFrozen)
{
    metrics::QueryMetrics sink;
    metrics::Registry registry;
    registry.attachQuery("am", sink);
    const metrics::Snapshot snap = registry.snapshot();

    std::set<std::string> expected;
    for (const std::string &suffix : queryCounterSuffixes())
        expected.insert("am" + suffix);
    std::set<std::string> actual;
    for (const auto &[key, value] : snap.counters)
        actual.insert(key);
    EXPECT_EQ(actual, expected);

    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms.begin()->first,
              "am.batch_latency_us");

    // Every snapshot is stamped and carries the process gauges.
    EXPECT_GT(snap.snapshotUnixNs, 0u);
    EXPECT_EQ(snap.gauges.count("process.rss_bytes"), 1u);
    EXPECT_EQ(snap.gauges.count("process.peak_rss_bytes"), 1u);
    // No perf run was requested, so the perf object stays empty.
    EXPECT_TRUE(snap.perf.empty());
}

TEST(MetricsSchemaTest, JsonTopLevelShapeIsFrozen)
{
    metrics::QueryMetrics sink;
    metrics::Registry registry;
    registry.attachQuery("am", sink);
    registry.setInfo("kernel", "scalar");
    const std::string json = registry.toJson();
    // The seven top-level members, in order (snapshot_unix_ns and
    // perf are additive in hdham.metrics.v1).
    const std::size_t schemaAt =
        json.find("\"schema\": \"hdham.metrics.v1\"");
    const std::size_t stampAt = json.find("\"snapshot_unix_ns\":");
    const std::size_t countersAt = json.find("\"counters\":");
    const std::size_t gaugesAt = json.find("\"gauges\":");
    const std::size_t histogramsAt = json.find("\"histograms\":");
    const std::size_t infoAt = json.find("\"info\":");
    const std::size_t perfAt = json.find("\"perf\":");
    ASSERT_NE(schemaAt, std::string::npos);
    ASSERT_NE(stampAt, std::string::npos);
    ASSERT_NE(countersAt, std::string::npos);
    ASSERT_NE(gaugesAt, std::string::npos);
    ASSERT_NE(histogramsAt, std::string::npos);
    ASSERT_NE(infoAt, std::string::npos);
    ASSERT_NE(perfAt, std::string::npos);
    EXPECT_LT(schemaAt, stampAt);
    EXPECT_LT(stampAt, countersAt);
    EXPECT_LT(countersAt, gaugesAt);
    EXPECT_LT(gaugesAt, histogramsAt);
    EXPECT_LT(histogramsAt, infoAt);
    EXPECT_LT(infoAt, perfAt);
    EXPECT_NE(json.find("\"kernel\": \"scalar\""),
              std::string::npos);
    // The process gauges ride along in every snapshot.
    EXPECT_NE(json.find("\"process.rss_bytes\""), std::string::npos);
    EXPECT_NE(json.find("\"process.peak_rss_bytes\""),
              std::string::npos);
    // Histogram summaries carry the full percentile set, including
    // both spellings of the saturation bucket.
    for (const char *field :
         {"\"count\"", "\"sum_us\"", "\"min_us\"", "\"max_us\"",
          "\"p50_us\"", "\"p95_us\"", "\"p99_us\"", "\"overflow\"",
          "\"overflow_count\"", "\"buckets\""}) {
        EXPECT_NE(json.find(field), std::string::npos) << field;
    }
}

TEST(MetricsSchemaTest, PipelineCountersAreDeterministic)
{
    const lang::SyntheticCorpus corpus(smallCorpus());
    lang::RecognitionPipeline pipeline(corpus, smallPipeline());
    metrics::QueryMetrics memorySink;
    metrics::ClassificationMetrics evalSink;
    pipeline.attachMetrics(&evalSink, &memorySink);
    const lang::Evaluation eval = pipeline.evaluateExact(2);

    const std::size_t sentences = corpus.totalTestSentences();
    const std::size_t classes = corpus.numLanguages();
    EXPECT_EQ(sentences, 40u);
    // Exact counter identities for the software memory.
    EXPECT_EQ(memorySink.queries.value(), sentences);
    EXPECT_EQ(memorySink.rowsScanned.value(), sentences * classes);
    EXPECT_EQ(memorySink.batches.value(), 1u);
    // The classification sink mirrors the evaluation exactly.
    EXPECT_EQ(evalSink.samples(), eval.total);
    EXPECT_EQ(evalSink.correct(), eval.correct);
    EXPECT_EQ(evalSink.classes(), classes);

    // Per-class keys carry the corpus labels.
    metrics::Registry registry;
    registry.attachClassification("lang", evalSink);
    const metrics::Snapshot snap = registry.snapshot();
    for (std::size_t lang = 0; lang < classes; ++lang) {
        const std::string key =
            "lang.class." + corpus.labelOf(lang) + ".samples";
        ASSERT_TRUE(snap.counters.count(key)) << key;
        EXPECT_EQ(snap.counters.at(key), 10u) << key;
    }
}

TEST(MetricsSchemaTest, DesignCountersObeyExactIdentities)
{
    const lang::SyntheticCorpus corpus(smallCorpus());
    const lang::RecognitionPipeline pipeline(corpus,
                                             smallPipeline());
    const std::size_t classes = pipeline.memory().size();
    const std::vector<Hypervector> &queries =
        pipeline.queryVectors();
    const std::size_t n = queries.size();

    ham::DHamConfig dcfg;
    dcfg.dim = smallPipeline().dim;
    ham::DHam dham(dcfg);
    ham::RHamConfig rcfg;
    rcfg.dim = smallPipeline().dim;
    rcfg.overscaledBlocks = rcfg.totalBlocks() / 4;
    ham::RHam rham(rcfg);
    ham::AHamConfig acfg;
    acfg.dim = smallPipeline().dim;
    ham::AHam aham(acfg);
    dham.loadFrom(pipeline.memory());
    rham.loadFrom(pipeline.memory());
    aham.loadFrom(pipeline.memory());

    metrics::QueryMetrics d, r, a;
    dham.attachMetrics(&d);
    rham.attachMetrics(&r);
    aham.attachMetrics(&a);
    dham.searchBatch(queries, 2);
    rham.searchBatch(queries, 2);
    aham.searchBatch(queries, 2);

    // D-HAM: one full-width distance per row, every component read.
    EXPECT_EQ(d.queries.value(), n);
    EXPECT_EQ(d.rowsScanned.value(), n * classes);
    EXPECT_EQ(d.bitsSampled.value(), n * dcfg.effectiveDim());
    EXPECT_EQ(d.blocksSensed.value(), 0u);
    EXPECT_EQ(d.stagesRun.value(), 0u);

    // R-HAM: every active block of every row sensed once per query;
    // each sense fires at least zero SAs, at most blockBits.
    EXPECT_EQ(r.queries.value(), n);
    EXPECT_EQ(r.blocksSensed.value(),
              n * classes * rcfg.activeBlocks());
    EXPECT_LE(r.saFires.value(),
              r.blocksSensed.value() * rcfg.blockBits);
    EXPECT_EQ(r.bitsSampled.value(), 0u);

    // A-HAM: a fixed stage schedule and a C-1 comparator tree.
    EXPECT_EQ(a.queries.value(), n);
    EXPECT_EQ(a.stagesRun.value(), n * acfg.effectiveStages());
    EXPECT_EQ(a.ltaComparisons.value(), n * (classes - 1));
    EXPECT_EQ(a.saFires.value(), 0u);
}

TEST(MetricsSchemaTest, StochasticCountersPinnedForFixedSeed)
{
    // Two identical runs (same seed, same workload) must produce
    // identical counters -- including the stochastic R-HAM ones.
    std::vector<std::uint64_t> saFires, overscaleErrors;
    for (int run = 0; run < 2; ++run) {
        Rng rng(2017);
        ham::RHamConfig cfg;
        cfg.dim = 1024;
        cfg.overscaledBlocks = cfg.totalBlocks();
        ham::RHam rham(cfg);
        for (int c = 0; c < 8; ++c)
            rham.store(Hypervector::random(cfg.dim, rng));
        std::vector<Hypervector> queries;
        for (int q = 0; q < 32; ++q)
            queries.push_back(Hypervector::random(cfg.dim, rng));

        metrics::QueryMetrics sink;
        rham.attachMetrics(&sink);
        rham.searchBatch(queries, 2);
        saFires.push_back(sink.saFires.value());
        overscaleErrors.push_back(sink.overscaleErrors.value());
    }
    EXPECT_EQ(saFires[0], saFires[1]);
    EXPECT_EQ(overscaleErrors[0], overscaleErrors[1]);
    // Fully overscaled sensing at these distances must misfire some
    // blocks; a zero here means the instrumentation went dead.
    EXPECT_GT(saFires[0], 0u);
    EXPECT_GT(overscaleErrors[0], 0u);
}

} // namespace
