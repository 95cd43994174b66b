/**
 * @file
 * Unit tests for the query-path observability primitives: counters,
 * gauges, the thread-safe latency histogram, classification metrics
 * and the registry's JSON snapshot.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/json.hh"
#include "core/metrics.hh"

namespace
{

namespace metrics = hdham::metrics;

TEST(CounterTest, StartsAtZeroAndAccumulates)
{
    metrics::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, LastWriteWins)
{
    metrics::Gauge g;
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    g.set(3.25);
    g.set(-1.5);
    EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST(LatencyHistogramTest, EmptySummaryIsAllZero)
{
    metrics::LatencyHistogram h;
    const metrics::HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.sum, 0.0);
    EXPECT_DOUBLE_EQ(s.p50, 0.0);
    EXPECT_DOUBLE_EQ(s.p99, 0.0);
    EXPECT_EQ(s.overflow, 0u);
    EXPECT_EQ(s.buckets.size(), metrics::LatencyHistogram::kBuckets);
}

TEST(LatencyHistogramTest, SingleSampleHasExactPercentiles)
{
    metrics::LatencyHistogram h;
    h.record(100.0);
    const metrics::HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.sum, 100.0);
    EXPECT_DOUBLE_EQ(s.min, 100.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    // Interpolation clamps to [min, max], so every percentile of a
    // single sample is that sample.
    EXPECT_DOUBLE_EQ(s.p50, 100.0);
    EXPECT_DOUBLE_EQ(s.p95, 100.0);
    EXPECT_DOUBLE_EQ(s.p99, 100.0);
}

TEST(LatencyHistogramTest, SingleSampleIsEveryQuantile)
{
    // One sample in the first bucket (lower edge 0), one inside a
    // wide interior bucket (32, 64] and one in the overflow bucket:
    // each is its own min, max and every percentile.
    for (const double x : {0.25, 42.0, 3.0e12}) {
        metrics::LatencyHistogram h;
        h.record(x);
        const metrics::HistogramSummary s = h.summary();
        EXPECT_DOUBLE_EQ(s.min, x);
        EXPECT_DOUBLE_EQ(s.p50, x);
        EXPECT_DOUBLE_EQ(s.p95, x);
        EXPECT_DOUBLE_EQ(s.p99, x);
        EXPECT_DOUBLE_EQ(s.max, x);
    }
}

TEST(LatencyHistogramTest, PowersOfTwoBucketing)
{
    metrics::LatencyHistogram h;
    h.record(1.0);    // bucket 0 (x <= 1)
    h.record(1.5);    // bucket 1 (1 < x <= 2)
    h.record(1000.0); // bucket 10 (512 < x <= 1024)
    const metrics::HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.buckets[0].second, 1u);
    EXPECT_EQ(s.buckets[1].second, 1u);
    EXPECT_EQ(s.buckets[10].second, 1u);
    EXPECT_DOUBLE_EQ(s.buckets[10].first, 1024.0);
    EXPECT_EQ(s.overflow, 0u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST(LatencyHistogramTest, OverflowLandsInOverflowBucket)
{
    metrics::LatencyHistogram h;
    const double beyond =
        metrics::LatencyHistogram::bucketBound(
            metrics::LatencyHistogram::kBuckets - 1) *
        4.0;
    h.record(10.0);
    h.record(beyond);
    const metrics::HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.overflow, 1u);
    // A rank in the overflow bucket reports the exact max.
    EXPECT_DOUBLE_EQ(s.p99, beyond);
    EXPECT_DOUBLE_EQ(s.max, beyond);
}

TEST(LatencyHistogramTest, OverflowBucketCountsAndReportsMax)
{
    metrics::LatencyHistogram h;
    const double last = metrics::LatencyHistogram::bucketBound(
        metrics::LatencyHistogram::kBuckets - 1);
    h.record(0.5);
    h.record(2.0 * last);
    h.record(4.0 * last);
    const metrics::HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.overflow, 2u);
    EXPECT_EQ(s.buckets[0].second, 1u);
    EXPECT_DOUBLE_EQ(s.sum, 0.5 + 6.0 * last);
    EXPECT_DOUBLE_EQ(s.max, 4.0 * last);
    // The ranks at and above 1/3 fall in the overflow bucket -> the
    // exact max.
    EXPECT_DOUBLE_EQ(s.p50, 4.0 * last);
    EXPECT_DOUBLE_EQ(s.p95, 4.0 * last);
}

TEST(LatencyHistogramTest, OverflowOnlyReportsMax)
{
    // Every observation above the last bound: each quantile reports
    // the exact max (the only honest value available), and the
    // extrema stay exact.
    metrics::LatencyHistogram h;
    const double last = metrics::LatencyHistogram::bucketBound(
        metrics::LatencyHistogram::kBuckets - 1);
    for (const double x : {3.0 * last, 2.0 * last, 5.0 * last})
        h.record(x);
    const metrics::HistogramSummary s = h.summary();
    EXPECT_EQ(s.overflow, 3u);
    EXPECT_DOUBLE_EQ(s.min, 2.0 * last);
    EXPECT_DOUBLE_EQ(s.max, 5.0 * last);
    EXPECT_DOUBLE_EQ(s.p50, 5.0 * last);
    EXPECT_DOUBLE_EQ(s.p95, 5.0 * last);
    EXPECT_DOUBLE_EQ(s.p99, 5.0 * last);
}

TEST(LatencyHistogramTest, AllEqualSamplesStayExact)
{
    metrics::LatencyHistogram h;
    for (int i = 0; i < 1000; ++i)
        h.record(55.0);
    // Clamping to the exact [min, max] beats raw interpolation when
    // the whole distribution is one point.
    const metrics::HistogramSummary s = h.summary();
    EXPECT_DOUBLE_EQ(s.min, 55.0);
    EXPECT_DOUBLE_EQ(s.p50, 55.0);
    EXPECT_DOUBLE_EQ(s.p95, 55.0);
    EXPECT_DOUBLE_EQ(s.p99, 55.0);
    EXPECT_DOUBLE_EQ(s.max, 55.0);
}

TEST(LatencyHistogramTest, ExtremaStayExact)
{
    metrics::LatencyHistogram h;
    for (const double x : {17.0, 3.0, 999.0, 101.0})
        h.record(x);
    const metrics::HistogramSummary s = h.summary();
    EXPECT_DOUBLE_EQ(s.min, 3.0);
    EXPECT_DOUBLE_EQ(s.max, 999.0);
    for (const double p : {s.p50, s.p95, s.p99}) {
        EXPECT_GE(p, 3.0);
        EXPECT_LE(p, 999.0);
    }
}

TEST(LatencyHistogramTest, BoundaryValueLandsInLowerBucket)
{
    metrics::LatencyHistogram h;
    h.record(2.0); // exactly on a bound: bucket i holds x <= 2^i
    const metrics::HistogramSummary s = h.summary();
    EXPECT_EQ(s.buckets[1].second, 1u);
    EXPECT_EQ(s.buckets[2].second, 0u);
}

TEST(LatencyHistogramTest, QuantilesTrackKnownDistribution)
{
    // 1..1000: interpolated quantiles stay within their bucket's
    // width of the exact answer.
    metrics::LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    const metrics::HistogramSummary s = h.summary();
    EXPECT_NEAR(s.p50, 500.0, 256.0);
    EXPECT_NEAR(s.p95, 950.0, 512.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST(ClassificationMetricsTest, AccumulatesConfusions)
{
    metrics::ClassificationMetrics m;
    EXPECT_EQ(m.samples(), 0u);
    EXPECT_EQ(m.classes(), 0u);
    const std::vector<std::vector<std::size_t>> confusion = {
        {3, 1},
        {0, 4},
    };
    m.recordConfusion(confusion, {"cat", "dog"});
    m.recordConfusion(confusion, {"cat", "dog"});
    EXPECT_EQ(m.samples(), 16u);
    EXPECT_EQ(m.correct(), 14u);
    EXPECT_EQ(m.classes(), 2u);
}

TEST(ClassificationMetricsTest, RejectsShapeChanges)
{
    metrics::ClassificationMetrics m;
    m.recordConfusion({{1, 0}, {0, 1}});
    EXPECT_THROW(m.recordConfusion({{1}}), std::invalid_argument);
    EXPECT_THROW(m.recordConfusion({{1, 0}, {0, 1}}, {"only-one"}),
                 std::invalid_argument);
    // Non-square matrices are rejected outright.
    metrics::ClassificationMetrics fresh;
    EXPECT_THROW(fresh.recordConfusion({{1, 0}}),
                 std::invalid_argument);
}

TEST(RegistryTest, SnapshotExportsStableKeySet)
{
    metrics::QueryMetrics q;
    q.queries.add(7);
    metrics::Registry registry;
    registry.attachQuery("dham", q);
    registry.setGauge("model.dim", 1000.0);

    const metrics::Snapshot snap = registry.snapshot();
    // Every QueryMetrics counter is always exported, driven or not.
    for (const char *key :
         {"dham.queries", "dham.batches", "dham.rows_scanned",
          "dham.bits_sampled", "dham.blocks_sensed", "dham.sa_fires",
          "dham.overscale_errors", "dham.stages_run",
          "dham.lta_comparisons", "dham.saturation_events"}) {
        EXPECT_TRUE(snap.counters.count(key)) << key;
    }
    EXPECT_EQ(snap.counters.at("dham.queries"), 7u);
    EXPECT_EQ(snap.counters.at("dham.sa_fires"), 0u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("model.dim"), 1000.0);
    EXPECT_TRUE(snap.histograms.count("dham.batch_latency_us"));
}

TEST(RegistryTest, ClassificationKeysUseLabels)
{
    metrics::ClassificationMetrics m;
    m.recordConfusion({{2, 0}, {1, 3}}, {"en", "de"});
    metrics::Registry registry;
    registry.attachClassification("lang", m);
    const metrics::Snapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("lang.samples"), 6u);
    EXPECT_EQ(snap.counters.at("lang.correct"), 5u);
    EXPECT_EQ(snap.counters.at("lang.class.en.samples"), 2u);
    EXPECT_EQ(snap.counters.at("lang.class.en.correct"), 2u);
    EXPECT_EQ(snap.counters.at("lang.class.en.predicted"), 3u);
    EXPECT_EQ(snap.counters.at("lang.class.de.samples"), 4u);
}

TEST(RegistryTest, JsonDocumentShape)
{
    metrics::QueryMetrics q;
    q.queries.add(3);
    q.batchLatencyUs.record(5.0);
    metrics::Registry registry;
    registry.attachQuery("am", q);
    registry.setGauge("run.threads", 2.0);

    const std::string json = registry.toJson();
    EXPECT_NE(json.find("\"schema\": \"hdham.metrics.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"am.queries\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"run.threads\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"am.batch_latency_us\""),
              std::string::npos);
    EXPECT_NE(json.find("\"p95_us\""), std::string::npos);
    // Counters print as exact integers, not scientific notation.
    EXPECT_EQ(json.find("e+"), std::string::npos);
}

TEST(RegistryTest, JsonEscapesStrings)
{
    metrics::ClassificationMetrics m;
    m.recordConfusion({{1}}, {"we\"ird\\label\n"});
    metrics::Registry registry;
    registry.attachClassification("x", m);
    const std::string json = registry.toJson();
    EXPECT_NE(json.find("we\\\"ird\\\\label\\n"), std::string::npos);
}

TEST(RegistryTest, SaveJsonRejectsBadPath)
{
    metrics::Registry registry;
    EXPECT_THROW(registry.saveJson("/nonexistent/dir/out.json"),
                 std::runtime_error);
}

TEST(RegistryTest, SaveJsonRoundTrips)
{
    metrics::QueryMetrics q;
    q.queries.add(1);
    metrics::Registry registry;
    registry.attachQuery("am", q);
    const std::string path =
        ::testing::TempDir() + "hdham_metrics.json";
    registry.saveJson(path);

    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    // Each render is a fresh snapshot, so the live members
    // (snapshot_unix_ns, process RSS gauges) may move between the
    // two documents; everything attached must round-trip exactly.
    const hdham::json::Value saved = hdham::json::parse(buffer.str());
    const hdham::json::Value direct =
        hdham::json::parse(registry.toJson());
    EXPECT_EQ(saved.at("schema").asString(),
              direct.at("schema").asString());
    ASSERT_TRUE(saved.has("snapshot_unix_ns"));
    EXPECT_GT(saved.at("snapshot_unix_ns").asNumber(), 0.0);
    for (const auto &[key, value] :
         direct.at("counters").members()) {
        EXPECT_DOUBLE_EQ(saved.at("counters").at(key).asNumber(),
                         value.asNumber())
            << key;
    }
    EXPECT_DOUBLE_EQ(saved.at("counters").at("am.queries").asNumber(),
                     1.0);
    for (const char *gauge :
         {"process.rss_bytes", "process.peak_rss_bytes"}) {
        ASSERT_TRUE(saved.at("gauges").has(gauge)) << gauge;
    }
    std::remove(path.c_str());
}

} // namespace
