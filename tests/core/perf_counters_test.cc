/**
 * @file
 * Unit tests for the hardware-counter layer (core/perf_counters):
 * tagged-unavailable propagation, the forced-failure switch, the
 * metrics export contract, and the process memory / residency
 * probes.
 *
 * The suite must pass on every host class -- full perf support,
 * partial (software events only, the common container case), or none
 * (stub build) -- so assertions about real counter values are gated
 * on availability, never assumed.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/metrics.hh"
#include "core/perf_counters.hh"

namespace
{

namespace perf = hdham::perf;
namespace metrics = hdham::metrics;

/** Restores the forced-failure switch even when a test fails. */
struct ForcedUnavailable
{
    ForcedUnavailable() { perf::testing::forceUnavailable(true); }
    ~ForcedUnavailable() { perf::testing::forceUnavailable(false); }
};

TEST(PerfSampleTest, DefaultIsFullyUnavailable)
{
    const perf::Sample s;
    for (std::size_t id = 0; id < perf::kCounterCount; ++id) {
        EXPECT_FALSE(s.available(id)) << id;
        EXPECT_EQ(s[id], perf::kUnavailable) << id;
    }
    EXPECT_FALSE(s.anyAvailable());
}

TEST(PerfSampleTest, CounterNamesAreStable)
{
    // These strings are schema: metrics "perf" keys, trace args and
    // event-log fields all use them.
    EXPECT_STREQ(perf::counterName(perf::kCycles), "cycles");
    EXPECT_STREQ(perf::counterName(perf::kInstructions),
                 "instructions");
    EXPECT_STREQ(perf::counterName(perf::kLlcMisses), "llc_misses");
    EXPECT_STREQ(perf::counterName(perf::kL1dMisses), "l1d_misses");
    EXPECT_STREQ(perf::counterName(perf::kBranchMisses),
                 "branch_misses");
    EXPECT_STREQ(perf::counterName(perf::kPageFaults),
                 "page_faults");
    EXPECT_STREQ(perf::counterName(perf::kCounterCount), "unknown");
}

TEST(PerfSampleTest, DeltaPropagatesUnavailability)
{
    perf::Sample before, after;
    before.v[perf::kCycles] = 100;
    after.v[perf::kCycles] = 150;
    // Instructions available only after, page faults only before.
    after.v[perf::kInstructions] = 70;
    before.v[perf::kPageFaults] = 3;
    const perf::Sample d = perf::delta(before, after);
    EXPECT_EQ(d[perf::kCycles], 50);
    EXPECT_EQ(d[perf::kInstructions], perf::kUnavailable);
    EXPECT_EQ(d[perf::kPageFaults], perf::kUnavailable);
    EXPECT_EQ(d[perf::kLlcMisses], perf::kUnavailable);
    EXPECT_TRUE(d.anyAvailable());
}

TEST(PerfStatusTest, StatusNamesAreStable)
{
    EXPECT_STREQ(perf::statusName(perf::Status::On), "on");
    EXPECT_STREQ(perf::statusName(perf::Status::Unavailable),
                 "unavailable");
}

TEST(PerfStatusTest, ForcedFailureWinsOverEverything)
{
    const ForcedUnavailable forced;
    EXPECT_EQ(perf::status(), perf::Status::Unavailable);
    EXPECT_FALSE(perf::available());
    const perf::Sample s = perf::threadSample();
    EXPECT_FALSE(s.anyAvailable());
}

TEST(PerfCountersTest, ThreadSampleMatchesStatus)
{
    const perf::Sample s = perf::threadSample();
    if (perf::status() == perf::Status::On) {
        // At least one event source opened; its reads are counts.
        EXPECT_TRUE(s.anyAvailable());
        for (std::size_t id = 0; id < perf::kCounterCount; ++id) {
            if (s.available(id)) {
                EXPECT_GE(s[id], 0) << perf::counterName(id);
            }
        }
    } else {
        EXPECT_FALSE(s.anyAvailable());
    }
}

TEST(PerfCountersTest, ScopedDeltaIsNonNegative)
{
    perf::ScopedDelta scoped;
    // Touch some memory so software counters have work to count.
    std::vector<int> sink(1 << 16, 1);
    long total = 0;
    for (const int v : sink)
        total += v;
    EXPECT_EQ(total, 1 << 16);
    const perf::Sample d = scoped.delta();
    for (std::size_t id = 0; id < perf::kCounterCount; ++id) {
        if (d.available(id)) {
            EXPECT_GE(d[id], 0) << perf::counterName(id);
        }
    }
    if (perf::status() != perf::Status::On) {
        EXPECT_FALSE(d.anyAvailable());
    }
}

TEST(PerfCountersTest, ProcessCountersDeltaIsNonNegative)
{
    perf::ProcessCounters workload;
    std::vector<int> sink(1 << 16, 2);
    long total = 0;
    for (const int v : sink)
        total += v;
    EXPECT_EQ(total, 2 << 16);
    const perf::Sample d = workload.delta();
    for (std::size_t id = 0; id < perf::kCounterCount; ++id) {
        if (d.available(id)) {
            EXPECT_GE(d[id], 0) << perf::counterName(id);
        }
    }
    if (perf::status() != perf::Status::On) {
        EXPECT_FALSE(d.anyAvailable());
    }
}

TEST(PerfExportTest, ExportsEveryCounterAndDerivedRates)
{
    perf::Sample measured;
    measured.v[perf::kCycles] = 1000;
    measured.v[perf::kInstructions] = 2000;
    measured.v[perf::kLlcMisses] = 10;
    measured.v[perf::kL1dMisses] = 20;
    // branch_misses stays unavailable; the tag must be exported.
    measured.v[perf::kPageFaults] = 5;

    metrics::Registry registry;
    perf::exportTo(registry, measured, 100);
    const metrics::Snapshot snap = registry.snapshot();

    EXPECT_DOUBLE_EQ(snap.perf.at("cycles"), 1000.0);
    EXPECT_DOUBLE_EQ(snap.perf.at("instructions"), 2000.0);
    EXPECT_DOUBLE_EQ(snap.perf.at("llc_misses"), 10.0);
    EXPECT_DOUBLE_EQ(snap.perf.at("l1d_misses"), 20.0);
    EXPECT_DOUBLE_EQ(snap.perf.at("branch_misses"), -1.0);
    EXPECT_DOUBLE_EQ(snap.perf.at("page_faults"), 5.0);
    EXPECT_DOUBLE_EQ(snap.perf.at("available"), 1.0);
    EXPECT_DOUBLE_EQ(snap.perf.at("ipc"), 2.0);
    EXPECT_DOUBLE_EQ(snap.perf.at("llc_miss_per_row"), 0.1);
    EXPECT_DOUBLE_EQ(snap.perf.at("l1d_miss_per_row"), 0.2);
    EXPECT_DOUBLE_EQ(snap.perf.at("llc_miss_per_kinst"), 5.0);
    EXPECT_EQ(snap.info.at("perf"),
              perf::statusName(perf::status()));
}

TEST(PerfExportTest, UnavailableSampleExportsOnlyTags)
{
    metrics::Registry registry;
    perf::exportTo(registry, perf::Sample{}, 100);
    const metrics::Snapshot snap = registry.snapshot();
    for (std::size_t id = 0; id < perf::kCounterCount; ++id) {
        EXPECT_DOUBLE_EQ(snap.perf.at(perf::counterName(id)), -1.0);
    }
    EXPECT_DOUBLE_EQ(snap.perf.at("available"), 0.0);
    // No derived rate can be computed from tagged inputs.
    EXPECT_EQ(snap.perf.count("ipc"), 0u);
    EXPECT_EQ(snap.perf.count("llc_miss_per_row"), 0u);
    EXPECT_EQ(snap.perf.count("llc_miss_per_kinst"), 0u);
}

TEST(PerfMemoryTest, MemoryStatsReportRealUsage)
{
    const perf::MemoryStats stats = perf::memoryStats();
#if defined(__linux__)
    ASSERT_GT(stats.rssBytes, 0);
    ASSERT_GT(stats.peakRssBytes, 0);
    EXPECT_GE(stats.peakRssBytes, stats.rssBytes);
#else
    if (stats.rssBytes >= 0)
        EXPECT_GT(stats.rssBytes, 0);
#endif
}

TEST(PerfMemoryTest, ResidencyOfTouchedHeapIsResident)
{
    // Heap pages are part of the process mapping, so mincore can
    // answer for them; a just-written buffer must be resident.
    std::vector<unsigned char> buffer(1 << 16, 0xAB);
    const perf::Residency r =
        perf::residency(buffer.data(), buffer.size());
    if (r.mappedBytes < 0)
        GTEST_SKIP() << "mincore unsupported on this host";
    EXPECT_GE(r.mappedBytes,
              static_cast<std::int64_t>(buffer.size()));
    EXPECT_GT(r.residentBytes, 0);
    EXPECT_LE(r.residentBytes, r.mappedBytes);
}

TEST(PerfMemoryTest, ResidencyRejectsDegenerateRanges)
{
    const perf::Residency none = perf::residency(nullptr, 4096);
    EXPECT_EQ(none.residentBytes, perf::kUnavailable);
    int x = 0;
    const perf::Residency empty = perf::residency(&x, 0);
    EXPECT_EQ(empty.residentBytes, perf::kUnavailable);
}

} // namespace
