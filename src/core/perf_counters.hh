/**
 * @file
 * Hardware-counter introspection for the query path.
 *
 * The paper argues about where cycles and energy go inside the
 * associative scan; the metrics subsystem counts *logical* work
 * (rows, bits, comparator firings) and the trace subsystem shows
 * *wall time*. This layer adds the third axis: what the hardware did
 * -- cycles, instructions, cache misses, branch misses, page faults
 * -- via Linux perf_event_open, plus process memory facts (RSS, peak
 * RSS, mincore page residency of an mmap'd model).
 *
 * Design rules:
 *
 *  - Graceful degradation is the contract, not an afterthought.
 *    perf_event_open is frequently unavailable: containers without
 *    CAP_PERFMON, perf_event_paranoid lockdowns, VMs with no PMU,
 *    non-Linux hosts. Every reader returns a tagged kUnavailable
 *    (-1) value in that case and *nothing else changes* -- query
 *    results, metrics counters and trace structure are bit-identical
 *    with counters on or broken (pinned by the forced-fallback test
 *    under `ctest -L check-perf`).
 *  - Counters degrade individually. A VM often exposes software
 *    events (page faults) while refusing hardware ones (cycles), so
 *    each counter opens its own descriptor and fails alone; a Sample
 *    carries per-counter availability rather than one global bit.
 *  - The unavailable path is one branch: availability is resolved
 *    once per process (forced test failure, or a probe open) and
 *    cached; when not On, threadSample() returns a fully-unavailable
 *    Sample without any syscall. Counters are read only where a
 *    caller asks for them (`--perf`); leaving that off is how a run
 *    keeps them off.
 *  - Thread scope vs. workload scope are different questions.
 *    threadSample() reads counters bound to the calling thread
 *    (right for span deltas: the span's work runs on that thread).
 *    ProcessCounters opens inheritable counters, so threads forked
 *    *after* construction (parallelFor workers) are aggregated into
 *    one total (right for whole-run --perf accounting).
 *
 * Non-Linux builds compile a stub backend in perf_counters.cc with
 * the same API where status() is Unavailable and memory facts fall
 * back to getrusage where possible.
 */

#ifndef HDHAM_CORE_PERF_COUNTERS_HH
#define HDHAM_CORE_PERF_COUNTERS_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace hdham::metrics
{
class Registry;
}

namespace hdham::perf
{

/** Tag for "this counter could not be read". */
inline constexpr std::int64_t kUnavailable = -1;

/** Fixed counter set, in export order. */
enum CounterId : std::size_t
{
    kCycles = 0,
    kInstructions,
    kLlcMisses,
    kL1dMisses,
    kBranchMisses,
    kPageFaults,
    kCounterCount
};

/**
 * Stable snake_case name of counter @p id ("cycles", "instructions",
 * "llc_misses", "l1d_misses", "branch_misses", "page_faults") --
 * the keys used in metrics "perf" objects, trace args and event-log
 * records.
 */
const char *counterName(std::size_t id);

/**
 * One reading (or delta) of the counter set. Values are event
 * counts; kUnavailable marks a counter that could not be opened or
 * read, and unavailability propagates through delta().
 */
struct Sample
{
    std::array<std::int64_t, kCounterCount> v{};

    Sample() { v.fill(kUnavailable); }

    /** True when counter @p id carries a real count. */
    bool available(std::size_t id) const { return v[id] >= 0; }

    /** True when at least one counter carries a real count. */
    bool anyAvailable() const
    {
        for (std::size_t i = 0; i < kCounterCount; ++i)
            if (v[i] >= 0)
                return true;
        return false;
    }

    std::int64_t operator[](std::size_t id) const { return v[id]; }
};

/**
 * after - before, per counter; a counter unavailable on either side
 * stays kUnavailable in the result.
 */
Sample delta(const Sample &before, const Sample &after);

/** Process-wide counter availability. */
enum class Status
{
    /** Counters open; at least one event source works. */
    On,
    /** perf_event_open refused every event (or stub build). */
    Unavailable
};

/**
 * Resolved availability. The forced test failure is consulted on
 * every call (so tests can toggle it); the probe itself runs once
 * per process and is cached.
 */
Status status();

/**
 * "on" / "unavailable" -- the metrics info tag. A run that asks for
 * no counters tags itself "off" instead.
 */
const char *statusName(Status s);

/** status() == Status::On. */
inline bool
available()
{
    return status() == Status::On;
}

/**
 * Current values of this thread's counters, opening them on first
 * use (thread-scoped, not inherited). When status() is not On,
 * returns a fully-unavailable Sample without touching the kernel.
 */
Sample threadSample();

/**
 * RAII scoped delta over the calling thread's counters: construct at
 * the start of the region, call delta() at (or after) the end. Reads
 * are thread-scoped, so the region's work must run on this thread.
 */
class ScopedDelta
{
  public:
    ScopedDelta() : begin(threadSample()) {}

    /** Counts accumulated since construction. */
    Sample delta() const { return perf::delta(begin, threadSample()); }

  private:
    Sample begin;
};

/**
 * Workload-scoped counters: opens an inheritable counter set on the
 * calling thread, so threads forked after construction (parallelFor
 * workers fork per call) are aggregated into the totals. read() and
 * delta() must be called after those workers have joined -- the
 * kernel folds a child's counts into the parent when the child
 * exits. Descriptors close on destruction.
 */
class ProcessCounters
{
  public:
    ProcessCounters();
    ~ProcessCounters();

    ProcessCounters(const ProcessCounters &) = delete;
    ProcessCounters &operator=(const ProcessCounters &) = delete;

    /** Current totals (self + exited inheritors). */
    Sample read() const;

    /** Counts accumulated since construction. */
    Sample delta() const;

  private:
    std::array<int, kCounterCount> fds;
    Sample begin;
};

/**
 * Export a measured delta into @p registry's "perf" object: every
 * counter (kUnavailable values included, so consumers see the tag),
 * an "available" flag, and the derived rates the paper's analysis
 * wants -- "ipc" (instructions / cycles), "llc_miss_per_row" and
 * "l1d_miss_per_row" (misses / @p rowsScanned, when rows were
 * counted), "llc_miss_per_kinst" (misses per 1000 instructions).
 * Rates are only emitted when their inputs are available and
 * nonzero. Also sets info "perf" to statusName(status()).
 */
void exportTo(metrics::Registry &registry, const Sample &measured,
              std::uint64_t rowsScanned);

/** Process memory facts; kUnavailable where the OS has no answer. */
struct MemoryStats
{
    /** Current resident set size in bytes. */
    std::int64_t rssBytes = kUnavailable;
    /** Peak resident set size in bytes. */
    std::int64_t peakRssBytes = kUnavailable;
};

/** Read /proc/self/status (Linux) or getrusage (elsewhere). */
MemoryStats memoryStats();

/** Page residency of one mapping, from mincore(). */
struct Residency
{
    /** Bytes of the range backed by resident pages. */
    std::int64_t residentBytes = kUnavailable;
    /** Bytes asked about (the range rounded up to whole pages). */
    std::int64_t mappedBytes = kUnavailable;
};

/**
 * How much of [addr, addr + bytes) is resident in memory right now.
 * @p addr need not be page-aligned (it is rounded down). Returns
 * kUnavailable fields when mincore is unsupported or fails.
 */
Residency residency(const void *addr, std::size_t bytes);

namespace testing
{

/**
 * Force every counter open/read to behave as if perf_event_open
 * failed: status() reports Unavailable and every Sample is fully
 * tagged, regardless of what the host supports. Checked live, so a
 * test can wrap a workload; counters already open on other threads
 * stop being read while forced. Not for production code.
 */
void forceUnavailable(bool force);

} // namespace testing

} // namespace hdham::perf

#endif // HDHAM_CORE_PERF_COUNTERS_HH
