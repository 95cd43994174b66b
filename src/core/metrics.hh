/**
 * @file
 * Query-path observability: counters, gauges and latency histograms
 * for the associative-memory engines, snapshotted to structured JSON.
 *
 * The paper's design-space study reports per-query operation counts
 * (bits sampled, blocks sensed, comparator firings) next to accuracy
 * and latency; this subsystem makes the same quantities observable on
 * the serving path instead of requiring an ablation rerun.
 *
 * Design rules:
 *
 *  - Collection is opt-in per engine: every instrumented object holds
 *    a sink pointer that defaults to null, and all instrumentation is
 *    behind a single pointer test, so the disabled path costs one
 *    predictable branch per batch/query.
 *  - Hot loops never touch an atomic per row: batch scans tally into
 *    plain per-worker locals and merge once per chunk with relaxed
 *    atomic adds, which keeps concurrent counts exact (not sampled,
 *    not approximate) for any thread count.
 *  - Snapshots are stable: a QueryMetrics sink always exports the
 *    same key set regardless of which design fed it, so the JSON
 *    schema (hdham.metrics.v1) is a testable contract.
 */

#ifndef HDHAM_CORE_METRICS_HH
#define HDHAM_CORE_METRICS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace hdham::metrics
{

/** Monotonic clock used for batch latency measurements. */
using Clock = std::chrono::steady_clock;

/** Microseconds elapsed since @p start. */
inline double
elapsedMicros(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     start)
        .count();
}

/** Monotonic event counter; relaxed atomic adds, exact totals. */
class Counter
{
  public:
    /** Add @p n events. */
    void add(std::uint64_t n = 1)
    {
        v.fetch_add(n, std::memory_order_relaxed);
    }

    /** Current total. */
    std::uint64_t value() const
    {
        return v.load(std::memory_order_relaxed);
    }

    /** Reset to zero (between workloads, not mid-collection). */
    void reset() { v.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double x) { v.store(x, std::memory_order_relaxed); }
    double value() const
    {
        return v.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> v{0.0};
};

/** Point-in-time summary of a latency histogram. */
struct HistogramSummary
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    std::uint64_t overflow = 0;
    /** (upper bound, hits) per finite bucket. */
    std::vector<std::pair<double, std::uint64_t>> buckets;
};

/**
 * Thread-safe fixed-bucket latency histogram in microseconds:
 * power-of-two bucket bounds 1 us .. 2^39 us (~6 days) plus an
 * overflow bucket, exact min/max, and p50/p95/p99 interpolated within
 * the containing bucket and clamped to [min, max]. The query-path
 * metrics and the tracer's per-span summary both record into it.
 *
 * record() is wait-free (relaxed atomics); it is called once per
 * batch, not per query, so its cost is invisible next to the scan.
 */
class LatencyHistogram
{
  public:
    /** Number of finite buckets. */
    static constexpr std::size_t kBuckets = 40;

    /** Upper bound (microseconds) of bucket @p i: 2^i. */
    static double bucketBound(std::size_t i)
    {
        return static_cast<double>(1ULL << i);
    }

    /** Record one latency observation, in microseconds. */
    void record(double micros);

    /** Consistent-enough snapshot for reporting. */
    HistogramSummary summary() const;

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> hits{};
    std::atomic<std::uint64_t> over{0};
    std::atomic<std::uint64_t> n{0};
    std::atomic<double> total{0.0};
    std::atomic<double> lo{std::numeric_limits<double>::infinity()};
    std::atomic<double> hi{-std::numeric_limits<double>::infinity()};
};

/**
 * Per-engine query-path metrics. One sink per engine instance (or a
 * shared one, when aggregate numbers are wanted -- counters merge
 * exactly). Every counter is always exported so the snapshot key set
 * is identical for all designs; counters a design does not drive stay
 * zero.
 */
struct QueryMetrics
{
    /** Queries served, single-shot and batched. */
    Counter queries;
    /** searchBatch() calls. */
    Counter batches;
    /** Stored rows visited across all queries. */
    Counter rowsScanned;
    /** D-HAM: query components entering the distance computation. */
    Counter bitsSampled;
    /** R-HAM: crossbar blocks sensed (active blocks x rows). */
    Counter blocksSensed;
    /** R-HAM: staggered sense-amplifier firings (sum of sensed
     *  thermometer levels). */
    Counter saFires;
    /** R-HAM: overscaled/deep-overscaled blocks sensed at a level
     *  different from their true block distance. */
    Counter overscaleErrors;
    /** A-HAM: search stages executed (stages x queries). */
    Counter stagesRun;
    /** A-HAM: LTA comparator decisions (C - 1 per query). */
    Counter ltaComparisons;
    /** A-HAM: stage partial distances deep enough into the current
     *  compression curve that per-bit sensitivity fell below half
     *  (d > dSat * (sqrt(2) - 1)). */
    Counter saturationEvents;
    /** Pruned scans: rows rejected without a full-width distance
     *  computation (early-abandoned by the bounded kernel or
     *  filtered on their cascade prefix distance). */
    Counter rowsPruned;
    /** Pruned scans: words of full-width distance work those
     *  rejections avoided. Kernel-dependent (strip placement);
     *  exactly reproducible only under a pinned kernel. */
    Counter wordsSkipped;
    /** Pruned scans: rows that survived the cascade prefix filter
     *  and entered the refine stage. */
    Counter cascadeSurvivors;
    /** Wall time per searchBatch() call. */
    LatencyHistogram batchLatencyUs;
};

/**
 * Classification-quality metrics fed by the pipelines: aggregate and
 * per-class confusion counts. Merging a whole Evaluation at once
 * keeps the lock off the per-sample path.
 */
class ClassificationMetrics
{
  public:
    /**
     * Merge one evaluation's confusion matrix
     * (confusion[truth][prediction]) with optional class labels
     * (empty, or one per class; classes without a label export as
     * "class<i>"). Re-recording with a different class count or
     * labels throws std::invalid_argument.
     */
    void recordConfusion(
        const std::vector<std::vector<std::size_t>> &confusion,
        const std::vector<std::string> &labels = {});

    /** Samples scored so far. */
    std::uint64_t samples() const;

    /** Correctly classified samples so far. */
    std::uint64_t correct() const;

    /** Number of classes seen (0 before the first record). */
    std::size_t classes() const;

  private:
    friend class Registry;

    mutable std::mutex mu;
    std::uint64_t total = 0;
    std::uint64_t hits = 0;
    std::vector<std::string> classLabels;
    std::vector<std::uint64_t> classSamples;   // row sums (truth)
    std::vector<std::uint64_t> classCorrect;   // diagonal
    std::vector<std::uint64_t> classPredicted; // column sums
};

/** Flat, ordered snapshot of every attached metric. */
struct Snapshot
{
    /** Wall-clock capture time, nanoseconds since the Unix epoch;
     *  additive to hdham.metrics.v1 ("snapshot_unix_ns"). */
    std::uint64_t snapshotUnixNs = 0;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSummary> histograms;
    /** Free-form string facts (selected distance kernel, build
     *  flavor); additive to hdham.metrics.v1. */
    std::map<std::string, std::string> info;
    /** Hardware-counter facts and derived rates (core/perf_counters
     *  exportTo); values of -1 are tagged "unavailable". Additive to
     *  hdham.metrics.v1 ("perf"); empty when no perf run was
     *  requested. */
    std::map<std::string, double> perf;
};

/** Render a snapshot as the hdham.metrics.v1 JSON document. */
void writeJson(std::ostream &out, const Snapshot &snapshot);

/**
 * Names metric sinks and snapshots them together. The registry keeps
 * non-owning pointers: every attached sink must outlive it.
 */
class Registry
{
  public:
    /** Attach an engine sink; its metrics export as "<name>.*". */
    void attachQuery(const std::string &name,
                     const QueryMetrics &m);

    /** Attach a pipeline sink; exports as "<name>.*". */
    void attachClassification(const std::string &name,
                              const ClassificationMetrics &m);

    /** Set a free-standing gauge (run configuration and the like). */
    void setGauge(const std::string &name, double value);

    /**
     * Set a free-standing string fact (e.g. the selected distance
     * kernel); exported under the snapshot's "info" object.
     */
    void setInfo(const std::string &name, const std::string &value);

    /**
     * Set one hardware-counter fact or derived rate, exported under
     * the snapshot's "perf" object (usually via perf::exportTo).
     * Use -1 as the tagged "unavailable" value.
     */
    void setPerf(const std::string &name, double value);

    /**
     * Point-in-time snapshot of everything attached, stamped with
     * the wall clock and the process RSS / peak-RSS gauges
     * ("process.rss_bytes" / "process.peak_rss_bytes", -1 when the
     * OS has no answer).
     */
    Snapshot snapshot() const;

    /** writeJson(snapshot()) convenience. */
    void writeJson(std::ostream &out) const;

    /** JSON document as a string. */
    std::string toJson() const;

    /**
     * Write the JSON document to @p path.
     * @throws std::runtime_error when the file cannot be written.
     */
    void saveJson(const std::string &path) const;

  private:
    std::vector<std::pair<std::string, const QueryMetrics *>> query;
    std::vector<std::pair<std::string, const ClassificationMetrics *>>
        classification;
    std::map<std::string, double> gauges;
    std::map<std::string, std::string> infos;
    std::map<std::string, double> perfFacts;
};

} // namespace hdham::metrics

#endif // HDHAM_CORE_METRICS_HH
