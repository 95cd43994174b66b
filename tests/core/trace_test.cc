/**
 * @file
 * Unit tests for the span tracing subsystem (core/trace.hh):
 * disabled-path inertness, nesting and self-time accounting, batch
 * scope propagation and restoration, exact overflow drop counting,
 * one track per thread, a thread's first span costing no
 * capacity-sized setup, summary aggregation and its pinned
 * quantiles, and that a traced D-HAM search returns the same answers
 * and does the same scan work as an untraced one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hh"
#include "core/parallel_for.hh"
#include "core/random.hh"
#include "core/trace.hh"
#include "ham/d_ham.hh"

namespace
{

using namespace hdham;

/** setActive(nullptr) on scope exit, even on assertion failure. */
class ActiveTracer
{
  public:
    explicit ActiveTracer(trace::Tracer &tracer)
    {
        trace::setActive(&tracer);
    }
    ~ActiveTracer() { trace::setActive(nullptr); }
};

TEST(TraceTest, DisabledByDefault)
{
    ASSERT_EQ(trace::activeTracer(), nullptr);
    EXPECT_FALSE(trace::enabled());
    {
        TRACE_SPAN("ignored");
        TRACE_BATCH("also ignored");
    }
    // A fresh tracer never saw those spans.
    trace::Tracer tracer;
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.droppedEvents(), 0u);
    EXPECT_EQ(tracer.threadsSeen(), 0u);
}

TEST(TraceTest, RecordsNestingDepthAndOrder)
{
    trace::Tracer tracer;
    {
        ActiveTracer active(tracer);
        TRACE_SPAN("outer");
        {
            TRACE_SPAN("inner");
            TRACE_SPAN("innermost");
        }
    }
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 3u);
    // Completion order: innermost closes first, outer last.
    EXPECT_STREQ(events[0].second.name, "innermost");
    EXPECT_STREQ(events[1].second.name, "inner");
    EXPECT_STREQ(events[2].second.name, "outer");
    EXPECT_EQ(events[0].second.depth, 2u);
    EXPECT_EQ(events[1].second.depth, 1u);
    EXPECT_EQ(events[2].second.depth, 0u);
    // All on the same thread track.
    EXPECT_EQ(events[0].first, events[1].first);
    EXPECT_EQ(events[1].first, events[2].first);
}

TEST(TraceTest, SelfTimeIsDurationMinusDirectChildren)
{
    trace::Tracer tracer;
    {
        ActiveTracer active(tracer);
        TRACE_SPAN("parent");
        {
            TRACE_SPAN("child_a");
        }
        {
            TRACE_SPAN("child_b");
            TRACE_SPAN("grandchild");
        }
    }
    // Completion order: child_a's block closes before child_b's,
    // and the grandchild closes before its parent child_b.
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    const trace::Event &childA = events[0].second;
    const trace::Event &grandchild = events[1].second;
    const trace::Event &childB = events[2].second;
    const trace::Event &parent = events[3].second;
    ASSERT_STREQ(childA.name, "child_a");
    ASSERT_STREQ(grandchild.name, "grandchild");
    ASSERT_STREQ(childB.name, "child_b");
    ASSERT_STREQ(parent.name, "parent");

    // A leaf owns all of its time.
    EXPECT_DOUBLE_EQ(childA.selfUs, childA.durUs);
    // Only *direct* children subtract: the grandchild reduces
    // child_b's self time, not the parent's.
    EXPECT_DOUBLE_EQ(childB.selfUs, childB.durUs - grandchild.durUs);
    EXPECT_DOUBLE_EQ(parent.selfUs,
                     parent.durUs - (childA.durUs + childB.durUs));
    // Containment: children start no earlier and end no later.
    EXPECT_GE(childA.startUs, parent.startUs);
    EXPECT_LE(childB.startUs + childB.durUs,
              parent.startUs + parent.durUs);
}

TEST(TraceTest, BatchScopeSetsAndRestoresScope)
{
    trace::Tracer tracer;
    {
        ActiveTracer active(tracer);
        EXPECT_EQ(trace::currentContext().scope, 0u);
        {
            TRACE_BATCH("outer batch");
            const std::uint64_t outerScope =
                trace::currentContext().scope;
            EXPECT_GE(outerScope, 1u);
            {
                TRACE_SPAN("in outer");
            }
            {
                TRACE_BATCH("inner batch");
                EXPECT_NE(trace::currentContext().scope, outerScope);
                TRACE_SPAN("in inner");
            }
            // Inner batch ended: the outer scope is live again.
            EXPECT_EQ(trace::currentContext().scope, outerScope);
            TRACE_SPAN("back in outer");
        }
        EXPECT_EQ(trace::currentContext().scope, 0u);
    }

    std::uint64_t outerScope = 0;
    std::uint64_t innerScope = 0;
    for (const auto &[track, event] : tracer.events()) {
        const std::string name = event.name;
        if (name == "in outer" || name == "back in outer") {
            if (outerScope == 0)
                outerScope = event.scope;
            EXPECT_EQ(event.scope, outerScope) << name;
        } else if (name == "in inner") {
            innerScope = event.scope;
        }
    }
    EXPECT_NE(outerScope, 0u);
    EXPECT_NE(innerScope, 0u);
    EXPECT_NE(outerScope, innerScope);
}

TEST(TraceTest, ContextGuardRestoresPreviousScope)
{
    trace::Tracer tracer;
    ActiveTracer active(tracer);
    EXPECT_EQ(trace::currentContext().scope, 0u);
    {
        const trace::ContextGuard guard(trace::Context{42});
        EXPECT_EQ(trace::currentContext().scope, 42u);
        {
            const trace::ContextGuard nested(trace::Context{7});
            EXPECT_EQ(trace::currentContext().scope, 7u);
        }
        EXPECT_EQ(trace::currentContext().scope, 42u);
    }
    EXPECT_EQ(trace::currentContext().scope, 0u);
}

TEST(TraceTest, OverflowDropsCountedExactly)
{
    trace::Tracer tracer(8);
    {
        ActiveTracer active(tracer);
        for (int i = 0; i < 20; ++i) {
            TRACE_SPAN("flood");
        }
    }
    EXPECT_EQ(tracer.eventCount(), 8u);
    EXPECT_EQ(tracer.droppedEvents(), 12u);
    // The stored events are the first eight completions.
    for (const auto &[track, event] : tracer.events())
        EXPECT_STREQ(event.name, "flood");
}

TEST(TraceTest, EachThreadGetsItsOwnBuffer)
{
    trace::Tracer tracer;
    {
        ActiveTracer active(tracer);
        parallelFor(4, 4, [](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                TRACE_SPAN("chunk");
            }
        });
    }
    EXPECT_EQ(tracer.eventCount(), 4u);
    EXPECT_EQ(tracer.threadsSeen(), 4u);
    EXPECT_EQ(tracer.droppedEvents(), 0u);
}

TEST(TraceTest, FirstSpanOnAThreadDoesNotBillBufferSetup)
{
    // The tracer's store grows as events arrive: a thread's first
    // span must not build storage sized by the capacity, which would
    // land in the enclosing span's self time when the first span
    // closes. The capacity makes such a build take milliseconds; the
    // test times an equal-sized build itself.
    constexpr std::size_t kCapacity = std::size_t(1) << 18;
    const auto buildStart = std::chrono::steady_clock::now();
    {
        std::vector<trace::Event> probe(kCapacity);
        // Keep the build: the compiler must assume the words are read.
        asm volatile("" : : "g"(probe.data()) : "memory");
    }
    const double buildUs =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - buildStart)
            .count();

    trace::Tracer tracer(kCapacity);
    {
        ActiveTracer active(tracer);
        std::thread([] {
            TRACE_SPAN("outer");
            TRACE_SPAN("inner");
        }).join();
    }
    const std::vector<trace::SpanStats> stats = tracer.summary();
    const auto outer =
        std::find_if(stats.begin(), stats.end(),
                     [](const trace::SpanStats &s) {
                         return s.name == "outer";
                     });
    ASSERT_NE(outer, stats.end());
    EXPECT_LT(outer->selfUs, buildUs / 4)
        << "buffer build " << buildUs << " us";
}

TEST(TraceTest, SequentialTracersDoNotShareBuffers)
{
    // Each tracer has its own store: a second tracer on the same
    // thread must see none of the first one's events.
    trace::Tracer first;
    {
        ActiveTracer active(first);
        TRACE_SPAN("first");
    }
    ASSERT_EQ(first.eventCount(), 1u);

    trace::Tracer second;
    {
        ActiveTracer active(second);
        TRACE_SPAN("second");
        TRACE_SPAN("second again");
    }
    EXPECT_EQ(first.eventCount(), 1u);
    ASSERT_EQ(second.eventCount(), 2u);
    for (const auto &[track, event] : second.events())
        EXPECT_TRUE(std::string(event.name).rfind("second", 0) == 0);
}

TEST(TraceTest, SummaryAggregatesPerName)
{
    trace::Tracer tracer;
    {
        ActiveTracer active(tracer);
        for (int i = 0; i < 3; ++i) {
            TRACE_SPAN("repeat");
        }
        TRACE_SPAN("once");
    }
    const auto stats = tracer.summary();
    ASSERT_EQ(stats.size(), 2u);
    // Sorted by name.
    EXPECT_EQ(stats[0].name, "once");
    EXPECT_EQ(stats[1].name, "repeat");
    EXPECT_EQ(stats[0].count, 1u);
    EXPECT_EQ(stats[1].count, 3u);
    for (const auto &s : stats) {
        EXPECT_GE(s.totalUs, s.selfUs);
        EXPECT_GE(s.p95Us, 0.0);
        EXPECT_LE(s.p50Us, s.p95Us + 1e-9);
    }
}

TEST(TraceTest, SummaryQuantilesArePinned)
{
    // Recorded durations in every class the summary's power-of-two
    // buckets (2^i us, i = 0..39, plus overflow) tell apart: below
    // the first bound, exactly on bounds, between bounds, and past
    // the last bound. Every figure below is pinned: the summary's
    // quantile rule must not move.
    trace::Tracer tracer;
    const auto add = [&tracer](const char *name, double durUs,
                               double selfUs) {
        trace::Event e;
        e.name = name;
        e.durUs = durUs;
        e.selfUs = selfUs;
        tracer.record(e);
    };
    for (const double d : {0.125, 0.25, 0.5, 0.75, 0.9375})
        add("below_1us", d, d);
    for (const double d : {1.0, 2.0, 2.0, 4.0, 8.0, 64.0, 1024.0,
                           1024.0, 65536.0})
        add("on_bound", d, d / 2.0);
    for (int k = 1; k <= 60; ++k)
        add("between", 0.37 * k * k, 0.1 * k);
    const double last = std::ldexp(1.0, 39);
    for (const double d : {10.0, 20.0, 300.0, 5000.0, 70000.0, 9e6,
                           last, last + 1.0, 3.0 * last,
                           std::ldexp(1.0, 41)})
        add("past_2e39", d, 1.0);
    add("single", 37.5, 12.25);
    for (int i = 0; i < 20; ++i)
        add("all_equal", 55.0, 5.5);

    struct Pinned
    {
        const char *name;
        std::uint64_t count;
        double totalUs, selfUs, p50Us, p95Us;
    };
    const Pinned pinned[] = {
        {"all_equal", 20, 1100.0, 110.0, 55.0, 55.0},
        {"below_1us", 5, 2.5625, 2.5625, 0.5625, 0.9375},
        {"between", 60, 27309.7, 183.0, 358.4, 1332.0},
        {"on_bound", 9, 67665.0, 33832.5, 6.0, 49152.0},
        {"past_2e39", 10, 4947811400323.0, 10.0, 12582912.0,
         2199023255552.0},
        {"single", 1, 37.5, 12.25, 37.5, 37.5},
    };
    const auto stats = tracer.summary();
    ASSERT_EQ(stats.size(), std::size(pinned));
    for (std::size_t i = 0; i < stats.size(); ++i) {
        SCOPED_TRACE(pinned[i].name);
        EXPECT_EQ(stats[i].name, pinned[i].name);
        EXPECT_EQ(stats[i].count, pinned[i].count);
        EXPECT_DOUBLE_EQ(stats[i].totalUs, pinned[i].totalUs);
        EXPECT_DOUBLE_EQ(stats[i].selfUs, pinned[i].selfUs);
        EXPECT_DOUBLE_EQ(stats[i].p50Us, pinned[i].p50Us);
        EXPECT_DOUBLE_EQ(stats[i].p95Us, pinned[i].p95Us);
    }

    std::ostringstream printed;
    tracer.writeSummary(printed);
    EXPECT_EQ(printed.str(),
              "span summary (events=105, dropped=0, threads=1)\n"
              "  span                            count     total_us "
              "     self_us     p50_us     p95_us\n"
              "  past_2e39                          10 "
              "4947811400323.0         10.0 12582912.0 "
              "2199023255552.0\n"
              "  on_bound                            9      67665.0 "
              "     33832.5        6.0    49152.0\n"
              "  between                            60      27309.7 "
              "       183.0      358.4     1332.0\n"
              "  all_equal                          20       1100.0 "
              "       110.0       55.0       55.0\n"
              "  single                              1         37.5 "
              "        12.2       37.5       37.5\n"
              "  below_1us                           5          2.6 "
              "         2.6        0.6        0.9\n");
}

TEST(TraceTest, TracedDHamSearchMatchesUntraced)
{
    // Tracing must change neither the answers nor the scan's work:
    // both runs count the same queries, rows and sampled bits.
    ham::DHamConfig cfg;
    cfg.dim = 512;
    ham::DHam untracedHam(cfg);
    ham::DHam tracedHam(cfg);
    metrics::QueryMetrics untracedMetrics;
    metrics::QueryMetrics tracedMetrics;
    untracedHam.attachMetrics(&untracedMetrics);
    tracedHam.attachMetrics(&tracedMetrics);
    Rng rng(99);
    for (int c = 0; c < 16; ++c) {
        const Hypervector hv = Hypervector::random(cfg.dim, rng);
        untracedHam.store(hv);
        tracedHam.store(hv);
    }
    std::vector<Hypervector> queries;
    for (int q = 0; q < 32; ++q)
        queries.push_back(Hypervector::random(cfg.dim, rng));

    const auto expected = untracedHam.searchBatch(queries, 2);

    trace::Tracer tracer;
    std::vector<ham::HamResult> got;
    {
        ActiveTracer active(tracer);
        got = tracedHam.searchBatch(queries, 2);
    }
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t q = 0; q < got.size(); ++q) {
        EXPECT_EQ(got[q].classId, expected[q].classId) << q;
        EXPECT_EQ(got[q].reportedDistance,
                  expected[q].reportedDistance)
            << q;
    }
    EXPECT_EQ(untracedMetrics.rowsScanned.value(), 32u * 16u);
    EXPECT_EQ(tracedMetrics.queries.value(),
              untracedMetrics.queries.value());
    EXPECT_EQ(tracedMetrics.rowsScanned.value(),
              untracedMetrics.rowsScanned.value());
    EXPECT_EQ(tracedMetrics.bitsSampled.value(),
              untracedMetrics.bitsSampled.value());
    // The traced run recorded its chunk spans.
    bool sawChunk = false;
    for (const auto &[track, event] : tracer.events())
        sawChunk |= std::string(event.name) == "d_ham.chunk";
    EXPECT_TRUE(sawChunk);
}

} // namespace
