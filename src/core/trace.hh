/**
 * @file
 * Per-query span tracing for the serving path.
 *
 * The paper's headline numbers are latency numbers: every design
 * trades accuracy against search time and EDP. The metrics subsystem
 * (core/metrics.hh) counts *what* a query did; this subsystem shows
 * *where the time went* inside it -- encode vs. scan vs. sense vs.
 * LTA reduction -- as nested spans a human can open in Perfetto or
 * chrome://tracing.
 *
 * Design rules (shared with the metrics sinks):
 *
 *  - Disabled tracing costs a single branch per span site: the Span
 *    constructor loads one relaxed atomic pointer and returns when no
 *    tracer is active. No clock read, no allocation, no lock.
 *  - Traced memory is bounded by the spans kept, not by the threads
 *    that ran: the Tracer owns one event store, and a closing span
 *    appends to it under the tracer's mutex, tagged with its thread's
 *    track number. The store grows block by block as events arrive,
 *    never moves a stored event, and holds at most the tracer's
 *    capacity; later events are dropped and counted exactly.
 *  - Every read (counts, events, summary, export) takes the same
 *    mutex, so a tracer can be read while traced work goes on.
 *
 * Spans nest per thread: a thread_local stack pointer links each span
 * to its parent, which yields depth and exact self time (duration
 * minus the children's durations). Batch scopes (TRACE_BATCH) assign
 * a fresh track id that parallelFor propagates into its workers, so
 * worker chunk spans group under the batch that spawned them.
 *
 * Export formats:
 *  - Chrome trace-event JSON (schema tag hdham.trace.v1): complete
 *    "X" events with pid = batch scope, tid = per-thread track.
 *    Loads in Perfetto / chrome://tracing.
 *  - A compact per-span-name summary: count, total/self
 *    microseconds, p50/p95 via metrics::LatencyHistogram.
 */

#ifndef HDHAM_CORE_TRACE_HH
#define HDHAM_CORE_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/perf_counters.hh"

namespace hdham::trace
{

/** Monotonic clock shared by every span. */
using Clock = std::chrono::steady_clock;

class Tracer;
class Span;
class SpanCollector;

namespace detail
{

/** The active tracer; null means tracing is disabled. */
inline std::atomic<Tracer *> g_active{nullptr};

/** Innermost live span of this thread (nesting + self time). */
inline thread_local Span *tlCurrent = nullptr;

/**
 * Batch/query scope of this thread (0 = untracked). parallelFor
 * copies the caller's scope into its workers.
 */
inline thread_local std::uint64_t tlScope = 0;

/** This thread's span collector (slow-query capture), or null. */
inline thread_local SpanCollector *tlCollector = nullptr;

} // namespace detail

/** The active tracer, or nullptr when tracing is disabled. */
inline Tracer *
activeTracer()
{
    return detail::g_active.load(std::memory_order_relaxed);
}

/** True when a tracer is collecting spans. */
inline bool
enabled()
{
    return activeTracer() != nullptr;
}

/**
 * Install @p tracer as the process-wide active tracer (nullptr
 * disables tracing). The tracer must outlive every span started
 * while it is active.
 */
inline void
setActive(Tracer *tracer)
{
    detail::g_active.store(tracer, std::memory_order_relaxed);
}

/** One completed span, as a tracer stores it. */
struct Event
{
    /** Span name; must point at storage outliving the tracer
     *  (string literals, in practice). */
    const char *name = nullptr;
    /** Start, microseconds since the tracer epoch. */
    double startUs = 0.0;
    /** Wall duration in microseconds. */
    double durUs = 0.0;
    /** durUs minus the summed durations of direct children. */
    double selfUs = 0.0;
    /** Batch scope the span ran under (0 = untracked). */
    std::uint64_t scope = 0;
    /** Nesting depth within its thread (0 = outermost). */
    std::uint32_t depth = 0;
    /**
     * Hardware-counter delta over the span, when perf capture was
     * requested (Tracer::setCapturePerf / SpanCollector). Defaults
     * to fully unavailable; counters that could not be read stay
     * tagged perf::kUnavailable. Additive to hdham.trace.v1 -- the
     * Chrome export only emits args for available counters.
     */
    perf::Sample perfDelta;
};

/** Aggregate statistics of one span name across all threads. */
struct SpanStats
{
    std::string name;
    std::uint64_t count = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;
    double p50Us = 0.0;
    double p95Us = 0.0;
};

/**
 * Stores the spans of every thread in one bounded store and exports
 * them. Create one, setActive(&tracer), run the workload, then read
 * or export; a read taken while spans still close sees those that
 * closed before it.
 */
class Tracer
{
  public:
    /** @param capacity events retained, across all threads. */
    explicit Tracer(std::size_t capacity = 1 << 16);

    /** Deactivates itself if still the active tracer. */
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Time zero of every startUs in this tracer's events. */
    Clock::time_point epoch() const { return start; }

    /**
     * Capture a hardware-counter delta (core/perf_counters) for
     * every span recorded into this tracer. Set before activation.
     * When counters are unavailable the deltas stay tagged and the
     * exported trace is structurally identical to a no-perf one.
     */
    void setCapturePerf(bool on) { capturePerf = on; }

    /** True when spans should read hardware counters. */
    bool capturesPerf() const { return capturePerf; }

    /**
     * Store one completed span, paired with the calling thread's
     * track, or count it dropped when the store is full. Called by
     * Span when a span closes.
     */
    void record(const Event &e);

    /**
     * Open a new batch scope named @p name; returns its id (>= 1).
     * Used by BatchScope; ids order the "process" tracks in the
     * Chrome export. Once the store is full no event of the scope
     * can be stored, so its name is not kept either.
     */
    std::uint64_t newScope(const char *name);

    /** Events stored (at most the capacity). */
    std::size_t eventCount() const;

    /** Events dropped because the store was full (exact). */
    std::uint64_t droppedEvents() const;

    /** Number of distinct threads with at least one stored span. */
    std::size_t threadsSeen() const;

    /**
     * Copy of every stored event in completion order, each paired
     * with its thread's track id.
     */
    std::vector<std::pair<std::uint32_t, Event>> events() const;

    /**
     * Per-span-name aggregation (count, total/self microseconds,
     * p50/p95 of a metrics::LatencyHistogram of the durations),
     * sorted by name.
     */
    std::vector<SpanStats> summary() const;

    /** Human-readable summary table, widest spans first. */
    void writeSummary(std::ostream &out) const;

    /**
     * Chrome trace-event JSON (schema hdham.trace.v1): "X" events
     * with pid = batch scope, tid = thread track, args carrying
     * self_us and depth, plus process_name/thread_name metadata.
     * Holds the store's mutex throughout, so the document is one
     * consistent picture; spans closing meanwhile wait for it.
     */
    void writeChromeJson(std::ostream &out) const;

    /**
     * writeChromeJson to @p path.
     * @throws std::runtime_error when the file cannot be written.
     */
    void saveChromeJson(const std::string &path) const;

  private:
    std::size_t maxEvents;
    Clock::time_point start;
    bool capturePerf = false;

    /** Guards every member below. */
    mutable std::mutex mu;
    /**
     * (thread track, event) in completion order. A deque grows in
     * blocks as events arrive and never moves the ones stored.
     */
    std::deque<std::pair<std::uint32_t, Event>> stored;
    std::uint64_t dropped = 0;
    /** (scope id, name) in creation order. */
    std::vector<std::pair<std::uint64_t, std::string>> scopeNames;
    std::uint64_t scopeCount = 0;
};

/**
 * Per-thread span sink for slow-query capture: while one is alive,
 * every span completed on its thread is also copied here (start
 * times relative to the collector's own epoch), whether or not a
 * Tracer is active. Bounded, single-threaded, drops counted exactly.
 * Collectors stack: constructing installs this one and restores the
 * previous on destruction, so a per-query collector inside a traced
 * batch sees only its query's spans.
 */
class SpanCollector
{
  public:
    /**
     * @param capacity    spans retained (a query's span tree is a
     *                    handful; overflow is counted, not resized).
     * @param capturePerf also read hardware-counter deltas per span.
     */
    explicit SpanCollector(std::size_t capacity = 64,
                           bool capturePerf = false)
        : saved(detail::tlCollector), cap(capacity == 0 ? 1 : capacity),
          perfOn(capturePerf), begin(Clock::now())
    {
        detail::tlCollector = this;
    }

    ~SpanCollector() { detail::tlCollector = saved; }

    SpanCollector(const SpanCollector &) = delete;
    SpanCollector &operator=(const SpanCollector &) = delete;

    /** Spans completed while installed, in completion order. */
    const std::vector<Event> &events() const { return collected; }

    /** Spans dropped to the capacity bound (exact). */
    std::uint64_t dropped() const { return drops; }

    /** Time zero of the collected events' startUs. */
    Clock::time_point epoch() const { return begin; }

    /** True when spans should read hardware counters. */
    bool capturesPerf() const { return perfOn; }

  private:
    friend class Span;

    void record(const Event &e)
    {
        if (collected.size() >= cap) {
            ++drops;
            return;
        }
        collected.push_back(e);
    }

    SpanCollector *saved;
    std::size_t cap;
    bool perfOn;
    Clock::time_point begin;
    std::vector<Event> collected;
    std::uint64_t drops = 0;
};

/**
 * RAII span. Constructing with neither an active tracer nor a
 * thread collector costs one relaxed atomic load, one thread-local
 * load and a branch; otherwise it reads the clock and links into
 * the thread's span stack, and destruction records the completed
 * event into whichever sinks are live. @p name must be a string
 * literal (or otherwise outlive the tracer).
 */
class Span
{
  public:
    explicit Span(const char *spanName)
        : tracer(detail::g_active.load(std::memory_order_relaxed)),
          collector(detail::tlCollector)
    {
        if (!tracer && !collector)
            return;
        name = spanName;
        parent = detail::tlCurrent;
        depth = parent ? parent->depth + 1 : 0;
        detail::tlCurrent = this;
        if ((tracer && tracer->capturesPerf()) ||
            (collector && collector->capturesPerf()))
            perfBegin = perf::threadSample();
        begin = Clock::now();
    }

    ~Span()
    {
        if (tracer || collector)
            finish();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    /** Out-of-line slow path: pop the stack, record the event. */
    void finish();

    Tracer *tracer;
    SpanCollector *collector;
    const char *name = nullptr;
    Span *parent = nullptr;
    Clock::time_point begin{};
    double childUs = 0.0;
    std::uint32_t depth = 0;
    perf::Sample perfBegin;
};

/**
 * RAII batch scope: assigns a fresh track-group id (the Chrome
 * export's pid) for the duration of a batch and opens a span named
 * @p name inside it. parallelFor propagates the scope into worker
 * threads, so their chunk spans group under this batch. No-op when
 * tracing is disabled.
 */
class BatchScope
{
  public:
    explicit BatchScope(const char *name);
    ~BatchScope();

    BatchScope(const BatchScope &) = delete;
    BatchScope &operator=(const BatchScope &) = delete;

  private:
    Tracer *tracer = nullptr;
    std::uint64_t saved = 0;
    std::optional<Span> span;
};

/** Trace context a fork-join utility carries into its workers. */
struct Context
{
    std::uint64_t scope = 0;
};

/** The calling thread's current context (for propagation). */
inline Context
currentContext()
{
    return Context{detail::tlScope};
}

/** Installs @p ctx on this thread for the guard's lifetime. */
class ContextGuard
{
  public:
    explicit ContextGuard(Context ctx) : saved(detail::tlScope)
    {
        detail::tlScope = ctx.scope;
    }

    ~ContextGuard() { detail::tlScope = saved; }

    ContextGuard(const ContextGuard &) = delete;
    ContextGuard &operator=(const ContextGuard &) = delete;

  private:
    std::uint64_t saved;
};

} // namespace hdham::trace

#define HDHAM_TRACE_CONCAT2(a, b) a##b
#define HDHAM_TRACE_CONCAT(a, b) HDHAM_TRACE_CONCAT2(a, b)

/** Open an RAII span for the rest of the enclosing block. */
#define TRACE_SPAN(name)                                              \
    const ::hdham::trace::Span HDHAM_TRACE_CONCAT(traceSpan_,         \
                                                  __LINE__)           \
    {                                                                 \
        name                                                          \
    }

/** Open an RAII batch scope (fresh track group) with a span. */
#define TRACE_BATCH(name)                                             \
    const ::hdham::trace::BatchScope HDHAM_TRACE_CONCAT(traceBatch_,  \
                                                        __LINE__)     \
    {                                                                 \
        name                                                          \
    }

#endif // HDHAM_CORE_TRACE_HH
