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
 *  - The hot path never blocks: spans are recorded into per-thread
 *    bounded buffers owned by the Tracer. A full buffer drops the
 *    event and counts the drop exactly; recording never waits.
 *  - Buffers are single-writer: only the owning thread appends.
 *    Export happens after the traced work is joined (parallelFor
 *    joins its workers before returning), so reads are ordered by
 *    the joins plus an acquire on the buffer size.
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
#include <memory>
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
 * while it is active; deactivate before exporting.
 */
inline void
setActive(Tracer *tracer)
{
    detail::g_active.store(tracer, std::memory_order_relaxed);
}

/** One completed span, as stored in a thread buffer. */
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
 * Fixed-capacity single-writer event buffer. Only the owning thread
 * pushes; overflowing events are dropped and counted exactly.
 */
class ThreadBuffer
{
  public:
    ThreadBuffer(std::size_t capacity, std::uint32_t track);

    /** Stable per-thread track id (registration order). */
    std::uint32_t track() const { return trackId; }

    /** Events stored (acquire; pairs with push's release). */
    std::size_t size() const
    {
        return used.load(std::memory_order_acquire);
    }

    /** Event @p i. @pre i < size(). */
    const Event &at(std::size_t i) const { return ring[i]; }

    /** Events dropped because the buffer was full. */
    std::uint64_t dropped() const
    {
        return drops.load(std::memory_order_relaxed);
    }

    /**
     * Append @p e; returns false (and counts the drop) when full.
     * Must only be called by the owning thread.
     */
    bool push(const Event &e);

  private:
    std::vector<Event> ring;
    std::atomic<std::size_t> used{0};
    std::atomic<std::uint64_t> drops{0};
    std::uint32_t trackId;
};

/**
 * Owns the per-thread span buffers and exports them. Create one,
 * setActive(&tracer), run the workload, setActive(nullptr), then
 * export. Thread registration takes a mutex once per thread; span
 * recording is lock-free thereafter.
 */
class Tracer
{
  public:
    /** @param capacityPerThread events retained per thread buffer. */
    explicit Tracer(std::size_t capacityPerThread = 1 << 16);

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
     * Record one completed span into the calling thread's buffer.
     * Called by Span, which registered the buffer when the thread
     * opened its first span; wait-free after that.
     */
    void record(const Event &e);

    /**
     * Open a new batch scope named @p name; returns its id (>= 1).
     * Used by BatchScope; ids order the "process" tracks in the
     * Chrome export.
     */
    std::uint64_t newScope(const char *name);

    /** Total events stored across all thread buffers. */
    std::size_t eventCount() const;

    /** Total events dropped to full buffers (exact). */
    std::uint64_t droppedEvents() const;

    /** Number of distinct threads that recorded at least one span. */
    std::size_t threadsSeen() const;

    /**
     * Copy of every stored event, buffers in registration order,
     * events in completion order within a buffer. Each event is
     * paired with its thread track id.
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
     * Call only after the traced work is complete and joined.
     */
    void writeChromeJson(std::ostream &out) const;

    /**
     * writeChromeJson to @p path.
     * @throws std::runtime_error when the file cannot be written.
     */
    void saveChromeJson(const std::string &path) const;

  private:
    friend class Span;
    friend class BatchScope;

    /**
     * This thread's buffer, registering (and allocating) it on first
     * use. Span calls it on open, before reading its start time.
     */
    ThreadBuffer &threadBuffer();

    std::size_t capacity;
    /** Unique per-tracer id keying the thread-local buffer cache. */
    std::uint64_t uid;
    Clock::time_point start;
    bool capturePerf = false;

    mutable std::mutex mu;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    /** (scope id, name) in creation order. */
    std::vector<std::pair<std::uint64_t, std::string>> scopeNames;
    std::atomic<std::uint64_t> scopeCounter{0};
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
        // Build this thread's buffer before the clock starts, so its
        // setup lands in no span's time instead of in the enclosing
        // span's self time when the first span closes.
        if (tracer)
            tracer->threadBuffer();
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
