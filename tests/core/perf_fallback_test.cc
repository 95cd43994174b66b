/**
 * @file
 * The graceful-degradation contract of the perf layer, pinned: with
 * perf_event_open forced to fail, a fully instrumented query run --
 * tracer with perf capture, slow-query capture with perf deltas,
 * process counters -- produces bit-identical search results,
 * identical metrics counters and an identical trace span structure
 * to a plain run. Broken counters may cost a branch; they may never
 * change an answer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/assoc_memory.hh"
#include "core/event_log.hh"
#include "core/hypervector.hh"
#include "core/metrics.hh"
#include "core/perf_counters.hh"
#include "core/random.hh"
#include "core/trace.hh"

namespace
{

using namespace hdham;

/** Restores the forced-failure switch even when a test fails. */
struct ForcedUnavailable
{
    ForcedUnavailable() { perf::testing::forceUnavailable(true); }
    ~ForcedUnavailable() { perf::testing::forceUnavailable(false); }
};

struct Workload
{
    AssociativeMemory am{1024};
    std::vector<Hypervector> queries;
};

Workload
makeWorkload()
{
    Workload w;
    Rng rng(2017);
    for (int c = 0; c < 12; ++c)
        w.am.store(Hypervector::random(1024, rng));
    for (int q = 0; q < 24; ++q)
        w.queries.push_back(Hypervector::random(1024, rng));
    return w;
}

/** One fully instrumented run; returns results + observability. */
struct RunOutcome
{
    std::vector<SearchResult> results;
    std::map<std::string, std::uint64_t> counters;
    /** (span name, depth) of every traced event, sorted. */
    std::vector<std::pair<std::string, std::uint32_t>> spanShape;
    std::size_t capturedQueries = 0;
    bool anyPerfInTrace = false;
    bool anyPerfInEvents = false;
};

RunOutcome
instrumentedRun(Workload &w, bool withPerfCapture,
                std::size_t threads)
{
    RunOutcome out;
    metrics::QueryMetrics sink;
    w.am.attachMetrics(&sink);

    trace::Tracer tracer;
    tracer.setCapturePerf(withPerfCapture);
    trace::setActive(&tracer);

    events::EventLog log(256);
    events::setSlowQueryCapture({&log, 0.0, withPerfCapture});

    perf::ProcessCounters workload;
    out.results = w.am.searchBatch(w.queries, threads);
    out.anyPerfInEvents = workload.delta().anyAvailable() &&
                          perf::status() != perf::Status::On;

    events::clearSlowQueryCapture();
    trace::setActive(nullptr);
    w.am.attachMetrics(nullptr);

    metrics::Registry registry;
    registry.attachQuery("am", sink);
    out.counters = registry.snapshot().counters;

    for (const auto &[track, e] : tracer.events()) {
        out.spanShape.emplace_back(e.name, e.depth);
        out.anyPerfInTrace |= e.perfDelta.anyAvailable();
    }
    std::sort(out.spanShape.begin(), out.spanShape.end());

    out.capturedQueries = log.size();
    for (const events::QueryEvent &e : log.events()) {
        out.anyPerfInEvents |= e.perfDelta.anyAvailable();
        for (const trace::Event &s : e.spans)
            out.anyPerfInEvents |= s.perfDelta.anyAvailable();
    }
    return out;
}

TEST(PerfFallbackTest, BrokenCountersNeverChangeAnswers)
{
    Workload w = makeWorkload();
    for (const std::size_t threads :
         {std::size_t(1), std::size_t(4)}) {
        // Baseline: no perf capture anywhere, counters untouched.
        const RunOutcome plain = instrumentedRun(w, false, threads);
        // Same workload with perf capture requested everywhere but
        // every perf_event_open forced to fail.
        RunOutcome broken;
        {
            const ForcedUnavailable forced;
            EXPECT_EQ(perf::status(), perf::Status::Unavailable);
            broken = instrumentedRun(w, true, threads);
        }

        // Results bit-identical.
        ASSERT_EQ(broken.results.size(), plain.results.size());
        for (std::size_t i = 0; i < plain.results.size(); ++i) {
            EXPECT_EQ(broken.results[i].classId,
                      plain.results[i].classId);
            EXPECT_EQ(broken.results[i].bestDistance,
                      plain.results[i].bestDistance);
        }
        // Metrics counters identical.
        EXPECT_EQ(broken.counters, plain.counters);
        // Trace structure identical: same spans at the same depths.
        EXPECT_EQ(broken.spanShape, plain.spanShape);
        // Slow-query capture saw every query either way.
        EXPECT_EQ(plain.capturedQueries, w.queries.size());
        EXPECT_EQ(broken.capturedQueries, w.queries.size());
        // And the broken run leaked no counter values anywhere.
        EXPECT_FALSE(broken.anyPerfInTrace);
        EXPECT_FALSE(broken.anyPerfInEvents);
    }
}

TEST(PerfFallbackTest, ForcedFailureReadsAsFullyTagged)
{
    const ForcedUnavailable forced;
    EXPECT_FALSE(perf::available());
    EXPECT_FALSE(perf::threadSample().anyAvailable());
    perf::ProcessCounters workload;
    EXPECT_FALSE(workload.read().anyAvailable());
    EXPECT_FALSE(workload.delta().anyAvailable());
}

/**
 * The exported trace must be byte-compatible with a no-perf trace
 * when counters are unavailable: the frozen hdham.trace.v1 args
 * ({self_us, depth}) gain no keys.
 */
TEST(PerfFallbackTest, TraceArgsStayFrozenWithoutCounters)
{
    const Workload w = makeWorkload();
    const ForcedUnavailable forced;
    trace::Tracer tracer;
    tracer.setCapturePerf(true);
    trace::setActive(&tracer);
    w.am.searchBatch(w.queries, 2);
    trace::setActive(nullptr);

    std::ostringstream json;
    tracer.writeChromeJson(json);
    const std::string text = json.str();
    EXPECT_NE(text.find("\"self_us\""), std::string::npos);
    EXPECT_NE(text.find("\"depth\""), std::string::npos);
    for (std::size_t id = 0; id < perf::kCounterCount; ++id) {
        EXPECT_EQ(text.find(std::string("\"") +
                            perf::counterName(id) + "\""),
                  std::string::npos)
            << perf::counterName(id);
    }
}

/**
 * When the host does support counters, perf capture must still not
 * perturb answers or logical counters -- only add tagged data. This
 * runs un-forced, so on denied hosts it degenerates into a second
 * copy of the forced test (which is the point: it passes anywhere).
 */
TEST(PerfFallbackTest, LiveCountersOnlyAddData)
{
    Workload w = makeWorkload();
    const RunOutcome plain = instrumentedRun(w, false, 2);
    const RunOutcome live = instrumentedRun(w, true, 2);
    ASSERT_EQ(live.results.size(), plain.results.size());
    for (std::size_t i = 0; i < plain.results.size(); ++i) {
        EXPECT_EQ(live.results[i].classId, plain.results[i].classId);
        EXPECT_EQ(live.results[i].bestDistance,
                  plain.results[i].bestDistance);
    }
    EXPECT_EQ(live.counters, plain.counters);
    EXPECT_EQ(live.spanShape, plain.spanShape);
}

} // namespace
