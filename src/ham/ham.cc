#include "ham/ham.hh"

#include "core/batch_executor.hh"
#include "core/trace.hh"

namespace hdham::ham
{

std::vector<HamResult>
Ham::searchBatch(const std::vector<Hypervector> &queries,
                 std::size_t /*threads*/)
{
    // Sequential reference path; designs with an index-derived noise
    // stream override this with a parallel scan that matches it
    // bit for bit. The search() calls count the per-query metrics;
    // only the batch envelope is recorded here.
    const std::string what = name() + "::searchBatch";
    batch::requireDims(queries, dim(), what.c_str());
    TRACE_BATCH("ham.batch");
    const metrics::Clock::time_point start =
        sink ? metrics::Clock::now() : metrics::Clock::time_point{};
    std::vector<HamResult> results;
    results.reserve(queries.size());
    for (const Hypervector &query : queries)
        results.push_back(search(query));
    if (sink) {
        sink->batches.add(1);
        sink->batchLatencyUs.record(metrics::elapsedMicros(start));
    }
    return results;
}

void
Ham::loadFrom(const AssociativeMemory &memory)
{
    reserve(memory.size());
    for (std::size_t id = 0; id < memory.size(); ++id)
        store(memory.vectorOf(id));
}

} // namespace hdham::ham
