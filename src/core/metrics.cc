#include "core/metrics.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/json.hh"
#include "core/perf_counters.hh"

namespace hdham::metrics
{

namespace
{

/** Relaxed-CAS add for atomic doubles. */
void
atomicAdd(std::atomic<double> &target, double delta)
{
    double expected = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(expected, expected + delta,
                                         std::memory_order_relaxed))
        ;
}

/** Relaxed-CAS minimum for atomic doubles. */
void
atomicMin(std::atomic<double> &target, double x)
{
    double expected = target.load(std::memory_order_relaxed);
    while (x < expected &&
           !target.compare_exchange_weak(expected, x,
                                         std::memory_order_relaxed))
        ;
}

/** Relaxed-CAS maximum for atomic doubles. */
void
atomicMax(std::atomic<double> &target, double x)
{
    double expected = target.load(std::memory_order_relaxed);
    while (x > expected &&
           !target.compare_exchange_weak(expected, x,
                                         std::memory_order_relaxed))
        ;
}

/**
 * Interpolated quantile @p q in (0, 1) of a summary with observations.
 * The nearest-rank target is located by cumulative bucket count and
 * placed linearly within its bucket -- the exact minimum stands in for
 * the first bucket's lower edge -- then clamped to the exact
 * [min, max]. A rank in the overflow bucket reports the exact max, the
 * only honest value there.
 */
double
bucketQuantile(const HistogramSummary &s, double q)
{
    std::uint64_t total = s.overflow;
    for (const auto &bucket : s.buckets)
        total += bucket.second;
    // A snapshot racing the first record() can see the count before
    // the bucket hit.
    if (total == 0)
        return s.max;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total - 1) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
        const std::uint64_t hits = s.buckets[i].second;
        if (rank >= seen + hits) {
            seen += hits;
            continue;
        }
        const double lower = i == 0 ? s.min : s.buckets[i - 1].first;
        const double upper = s.buckets[i].first;
        const double within =
            hits == 1 ? 0.5
                      : static_cast<double>(rank - seen) /
                            static_cast<double>(hits - 1);
        return std::clamp(lower + (upper - lower) * within, s.min,
                          s.max);
    }
    return s.max;
}

// String escaping and deterministic number rendering live in
// core/json.hh, shared with the trace exporter and bench_gate.
using json::writeEscaped;
using json::writeNumber;

void
writeHistogram(std::ostream &out, const HistogramSummary &h,
               const std::string &indent)
{
    out << "{\n";
    const std::string inner = indent + "  ";
    out << inner << "\"count\": " << h.count << ",\n";
    out << inner << "\"sum_us\": ";
    writeNumber(out, h.sum);
    out << ",\n";
    out << inner << "\"min_us\": ";
    writeNumber(out, h.min);
    out << ",\n";
    out << inner << "\"max_us\": ";
    writeNumber(out, h.max);
    out << ",\n";
    out << inner << "\"p50_us\": ";
    writeNumber(out, h.p50);
    out << ",\n";
    out << inner << "\"p95_us\": ";
    writeNumber(out, h.p95);
    out << ",\n";
    out << inner << "\"p99_us\": ";
    writeNumber(out, h.p99);
    out << ",\n";
    out << inner << "\"overflow\": " << h.overflow << ",\n";
    // "overflow_count" is the documented name for the saturation
    // bucket; "overflow" predates it and stays byte-stable.
    out << inner << "\"overflow_count\": " << h.overflow << ",\n";
    out << inner << "\"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        out << (i == 0 ? "" : ", ") << '[';
        writeNumber(out, h.buckets[i].first);
        out << ", " << h.buckets[i].second << ']';
    }
    out << "]\n" << indent << "}";
}

} // namespace

void
LatencyHistogram::record(double micros)
{
    std::size_t b = 0;
    while (b < kBuckets && micros > bucketBound(b))
        ++b;
    if (b == kBuckets)
        over.fetch_add(1, std::memory_order_relaxed);
    else
        hits[b].fetch_add(1, std::memory_order_relaxed);
    n.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(total, micros);
    atomicMin(lo, micros);
    atomicMax(hi, micros);
}

HistogramSummary
LatencyHistogram::summary() const
{
    HistogramSummary s;
    s.buckets.reserve(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i)
        s.buckets.emplace_back(bucketBound(i),
                               hits[i].load(std::memory_order_relaxed));
    s.overflow = over.load(std::memory_order_relaxed);
    s.count = n.load(std::memory_order_relaxed);
    if (s.count == 0)
        return s;
    s.sum = total.load(std::memory_order_relaxed);
    s.min = lo.load(std::memory_order_relaxed);
    s.max = hi.load(std::memory_order_relaxed);
    s.p50 = bucketQuantile(s, 0.50);
    s.p95 = bucketQuantile(s, 0.95);
    s.p99 = bucketQuantile(s, 0.99);
    return s;
}

void
ClassificationMetrics::recordConfusion(
    const std::vector<std::vector<std::size_t>> &confusion,
    const std::vector<std::string> &labels)
{
    const std::size_t n = confusion.size();
    if (!labels.empty() && labels.size() != n)
        throw std::invalid_argument("ClassificationMetrics: label "
                                    "count mismatch");
    std::vector<std::string> named;
    named.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
        named.push_back(labels.empty() || labels[c].empty()
                            ? "class" + std::to_string(c)
                            : labels[c]);
    }

    const std::lock_guard<std::mutex> lock(mu);
    if (classLabels.empty()) {
        classLabels = std::move(named);
        classSamples.assign(n, 0);
        classCorrect.assign(n, 0);
        classPredicted.assign(n, 0);
    } else if (classLabels != named) {
        throw std::invalid_argument("ClassificationMetrics: class "
                                    "set changed between recordings");
    }
    for (std::size_t truth = 0; truth < n; ++truth) {
        if (confusion[truth].size() != n)
            throw std::invalid_argument("ClassificationMetrics: "
                                        "confusion matrix not "
                                        "square");
        for (std::size_t pred = 0; pred < n; ++pred) {
            const std::uint64_t count = confusion[truth][pred];
            total += count;
            classSamples[truth] += count;
            classPredicted[pred] += count;
            if (truth == pred) {
                hits += count;
                classCorrect[truth] += count;
            }
        }
    }
}

std::uint64_t
ClassificationMetrics::samples() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return total;
}

std::uint64_t
ClassificationMetrics::correct() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return hits;
}

std::size_t
ClassificationMetrics::classes() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return classLabels.size();
}

void
Registry::attachQuery(const std::string &name, const QueryMetrics &m)
{
    query.emplace_back(name, &m);
}

void
Registry::attachClassification(const std::string &name,
                               const ClassificationMetrics &m)
{
    classification.emplace_back(name, &m);
}

void
Registry::setGauge(const std::string &name, double value)
{
    gauges[name] = value;
}

void
Registry::setInfo(const std::string &name, const std::string &value)
{
    infos[name] = value;
}

void
Registry::setPerf(const std::string &name, double value)
{
    perfFacts[name] = value;
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    snap.snapshotUnixNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    snap.gauges = gauges;
    snap.info = infos;
    snap.perf = perfFacts;
    const perf::MemoryStats mem = perf::memoryStats();
    snap.gauges["process.rss_bytes"] =
        static_cast<double>(mem.rssBytes);
    snap.gauges["process.peak_rss_bytes"] =
        static_cast<double>(mem.peakRssBytes);
    for (const auto &[name, m] : query) {
        snap.counters[name + ".queries"] = m->queries.value();
        snap.counters[name + ".batches"] = m->batches.value();
        snap.counters[name + ".rows_scanned"] =
            m->rowsScanned.value();
        snap.counters[name + ".bits_sampled"] =
            m->bitsSampled.value();
        snap.counters[name + ".blocks_sensed"] =
            m->blocksSensed.value();
        snap.counters[name + ".sa_fires"] = m->saFires.value();
        snap.counters[name + ".overscale_errors"] =
            m->overscaleErrors.value();
        snap.counters[name + ".stages_run"] = m->stagesRun.value();
        snap.counters[name + ".lta_comparisons"] =
            m->ltaComparisons.value();
        snap.counters[name + ".saturation_events"] =
            m->saturationEvents.value();
        snap.counters[name + ".rows_pruned"] =
            m->rowsPruned.value();
        snap.histograms[name + ".batch_latency_us"] =
            m->batchLatencyUs.summary();
    }
    for (const auto &[name, m] : classification) {
        const std::lock_guard<std::mutex> lock(m->mu);
        snap.counters[name + ".samples"] = m->total;
        snap.counters[name + ".correct"] = m->hits;
        for (std::size_t c = 0; c < m->classLabels.size(); ++c) {
            const std::string prefix =
                name + ".class." + m->classLabels[c];
            snap.counters[prefix + ".samples"] = m->classSamples[c];
            snap.counters[prefix + ".correct"] = m->classCorrect[c];
            snap.counters[prefix + ".predicted"] =
                m->classPredicted[c];
        }
    }
    return snap;
}

void
writeJson(std::ostream &out, const Snapshot &snapshot)
{
    out << "{\n  \"schema\": \"hdham.metrics.v1\",\n";
    out << "  \"snapshot_unix_ns\": " << snapshot.snapshotUnixNs
        << ",\n";

    out << "  \"counters\": {";
    bool first = true;
    for (const auto &[key, value] : snapshot.counters) {
        out << (first ? "\n    " : ",\n    ");
        writeEscaped(out, key);
        out << ": " << value;
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";

    out << "  \"gauges\": {";
    first = true;
    for (const auto &[key, value] : snapshot.gauges) {
        out << (first ? "\n    " : ",\n    ");
        writeEscaped(out, key);
        out << ": ";
        writeNumber(out, value);
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";

    out << "  \"histograms\": {";
    first = true;
    for (const auto &[key, value] : snapshot.histograms) {
        out << (first ? "\n    " : ",\n    ");
        writeEscaped(out, key);
        out << ": ";
        writeHistogram(out, value, "    ");
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";

    out << "  \"info\": {";
    first = true;
    for (const auto &[key, value] : snapshot.info) {
        out << (first ? "\n    " : ",\n    ");
        writeEscaped(out, key);
        out << ": ";
        writeEscaped(out, value);
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";

    out << "  \"perf\": {";
    first = true;
    for (const auto &[key, value] : snapshot.perf) {
        out << (first ? "\n    " : ",\n    ");
        writeEscaped(out, key);
        out << ": ";
        writeNumber(out, value);
        first = false;
    }
    out << (first ? "" : "\n  ") << "}\n}\n";
}

void
Registry::writeJson(std::ostream &out) const
{
    metrics::writeJson(out, snapshot());
}

std::string
Registry::toJson() const
{
    std::ostringstream out;
    writeJson(out);
    return out.str();
}

void
Registry::saveJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("metrics: cannot open " + path +
                                 " for writing");
    writeJson(out);
    if (!out)
        throw std::runtime_error("metrics: write failed: " + path);
}

} // namespace hdham::metrics
