#include "core/trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>

#include "core/json.hh"
#include "core/metrics.hh"

namespace hdham::trace
{

namespace
{

/** The calling thread's track: numbered, process-wide, on first use. */
std::uint32_t
threadTrack()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t track =
        next.fetch_add(1, std::memory_order_relaxed);
    return track;
}

double
microsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from)
        .count();
}

} // namespace

Tracer::Tracer(std::size_t capacity)
    : maxEvents(capacity == 0 ? 1 : capacity), start(Clock::now())
{
}

Tracer::~Tracer()
{
    if (activeTracer() == this)
        setActive(nullptr);
}

void
Tracer::record(const Event &e)
{
    const std::uint32_t track = threadTrack();
    const std::lock_guard<std::mutex> lock(mu);
    if (stored.size() < maxEvents)
        stored.emplace_back(track, e);
    else
        ++dropped;
}

std::uint64_t
Tracer::newScope(const char *name)
{
    const std::lock_guard<std::mutex> lock(mu);
    const std::uint64_t id = ++scopeCount;
    if (stored.size() < maxEvents)
        scopeNames.emplace_back(id, name);
    return id;
}

std::size_t
Tracer::eventCount() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return stored.size();
}

std::uint64_t
Tracer::droppedEvents() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return dropped;
}

std::size_t
Tracer::threadsSeen() const
{
    const std::lock_guard<std::mutex> lock(mu);
    std::set<std::uint32_t> threads;
    for (const auto &entry : stored)
        threads.insert(entry.first);
    return threads.size();
}

std::vector<std::pair<std::uint32_t, Event>>
Tracer::events() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return {stored.begin(), stored.end()};
}

std::vector<SpanStats>
Tracer::summary() const
{
    // The histogram keeps each name's count and total duration too.
    // It is neither copyable nor movable: operator[] builds it in
    // place in the map node.
    struct Acc
    {
        double selfUs = 0.0;
        metrics::LatencyHistogram durations;
    };
    std::map<std::string, Acc> byName;
    {
        const std::lock_guard<std::mutex> lock(mu);
        for (const auto &entry : stored) {
            Acc &acc = byName[entry.second.name];
            acc.selfUs += entry.second.selfUs;
            acc.durations.record(entry.second.durUs);
        }
    }
    std::vector<SpanStats> out;
    out.reserve(byName.size());
    for (const auto &[name, acc] : byName) {
        const metrics::HistogramSummary h = acc.durations.summary();
        SpanStats stats;
        stats.name = name;
        stats.count = h.count;
        stats.totalUs = h.sum;
        stats.selfUs = acc.selfUs;
        stats.p50Us = h.p50;
        stats.p95Us = h.p95;
        out.push_back(std::move(stats));
    }
    return out;
}

void
Tracer::writeSummary(std::ostream &out) const
{
    std::vector<SpanStats> stats = summary();
    std::stable_sort(stats.begin(), stats.end(),
                     [](const SpanStats &a, const SpanStats &b) {
                         return a.totalUs > b.totalUs;
                     });
    out << "span summary (events=" << eventCount()
        << ", dropped=" << droppedEvents()
        << ", threads=" << threadsSeen() << ")\n";
    char line[192];
    std::snprintf(line, sizeof line,
                  "  %-28s %8s %12s %12s %10s %10s\n", "span",
                  "count", "total_us", "self_us", "p50_us",
                  "p95_us");
    out << line;
    for (const SpanStats &s : stats) {
        std::snprintf(line, sizeof line,
                      "  %-28s %8llu %12.1f %12.1f %10.1f %10.1f\n",
                      s.name.c_str(),
                      static_cast<unsigned long long>(s.count),
                      s.totalUs, s.selfUs, s.p50Us, s.p95Us);
        out << line;
    }
}

void
Tracer::writeChromeJson(std::ostream &out) const
{
    const std::lock_guard<std::mutex> lock(mu);

    // Scope names for process_name metadata; scope 0 is the
    // untracked remainder (single-shot searches, setup work).
    std::map<std::uint64_t, std::string> scopeLabel;
    scopeLabel[0] = "untracked";
    std::map<std::string, std::uint64_t> perName;
    for (const auto &[id, name] : scopeNames)
        scopeLabel[id] = name + "#" +
                         std::to_string(++perName[name]);

    // Emit thread_name metadata only for (pid, tid) pairs that
    // actually carry events, so the trace has no empty tracks.
    std::set<std::pair<std::uint64_t, std::uint32_t>> tracks;
    std::set<std::uint32_t> threads;
    for (const auto &[track, e] : stored) {
        tracks.emplace(e.scope, track);
        threads.insert(track);
    }

    out << "{\n  \"schema\": \"hdham.trace.v1\",\n";
    out << "  \"displayTimeUnit\": \"ms\",\n";
    out << "  \"otherData\": {\n";
    out << "    \"dropped_events\": " << dropped << ",\n";
    out << "    \"thread_buffers\": " << threads.size() << "\n";
    out << "  },\n";
    out << "  \"traceEvents\": [";

    bool first = true;
    const auto comma = [&] {
        out << (first ? "\n    " : ",\n    ");
        first = false;
    };

    for (const auto &[pid, tid] : tracks) {
        comma();
        out << "{\"name\": \"process_name\", \"ph\": \"M\", "
               "\"pid\": "
            << pid << ", \"tid\": " << tid << ", \"args\": {"
            << "\"name\": ";
        json::writeEscaped(out, scopeLabel.count(pid)
                                    ? scopeLabel[pid]
                                    : "scope " + std::to_string(pid));
        out << "}}";
        comma();
        out << "{\"name\": \"thread_name\", \"ph\": \"M\", "
               "\"pid\": "
            << pid << ", \"tid\": " << tid << ", \"args\": {"
            << "\"name\": ";
        json::writeEscaped(out, "track " + std::to_string(tid));
        out << "}}";
    }

    for (const auto &[track, e] : stored) {
        comma();
        out << "{\"name\": ";
        json::writeEscaped(out, e.name);
        out << ", \"cat\": \"hdham\", \"ph\": \"X\", \"ts\": ";
        json::writeNumber(out, e.startUs);
        out << ", \"dur\": ";
        json::writeNumber(out, e.durUs);
        out << ", \"pid\": " << e.scope << ", \"tid\": " << track
            << ", \"args\": {\"self_us\": ";
        json::writeNumber(out, e.selfUs);
        out << ", \"depth\": " << e.depth;
        // Perf args are additive: only counters that were actually
        // read appear, so traces without perf capture (or with every
        // counter unavailable) keep the frozen v1 args key set.
        for (std::size_t id = 0; id < perf::kCounterCount; ++id) {
            if (!e.perfDelta.available(id))
                continue;
            out << ", \"" << perf::counterName(id)
                << "\": " << e.perfDelta[id];
        }
        out << "}}";
    }

    out << (first ? "" : "\n  ") << "]\n}\n";
}

void
Tracer::saveChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("trace: cannot open " + path +
                                 " for writing");
    writeChromeJson(out);
    if (!out)
        throw std::runtime_error("trace: write failed: " + path);
}

void
Span::finish()
{
    const Clock::time_point end = Clock::now();
    const double durUs = microsBetween(begin, end);
    detail::tlCurrent = parent;
    if (parent)
        parent->childUs += durUs;
    Event e;
    e.name = name;
    e.durUs = durUs;
    e.selfUs = durUs - childUs;
    e.scope = detail::tlScope;
    e.depth = depth;
    if ((tracer && tracer->capturesPerf()) ||
        (collector && collector->capturesPerf()))
        e.perfDelta = perf::delta(perfBegin, perf::threadSample());
    if (tracer) {
        e.startUs = microsBetween(tracer->epoch(), begin);
        tracer->record(e);
    }
    if (collector) {
        e.startUs = microsBetween(collector->epoch(), begin);
        collector->record(e);
    }
}

BatchScope::BatchScope(const char *name)
    : tracer(activeTracer())
{
    if (!tracer)
        return;
    saved = detail::tlScope;
    detail::tlScope = tracer->newScope(name);
    span.emplace(name);
}

BatchScope::~BatchScope()
{
    if (!tracer)
        return;
    span.reset(); // end the batch span inside its own scope
    detail::tlScope = saved;
}

} // namespace hdham::trace
