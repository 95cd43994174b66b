#include "core/assoc_memory.hh"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "core/batch_executor.hh"
#include "core/trace.hh"

namespace hdham
{

std::size_t
SearchResult::margin() const
{
    if (distances.size() < 2)
        return 0;
    std::size_t runnerUp = std::numeric_limits<std::size_t>::max();
    for (std::size_t id = 0; id < distances.size(); ++id)
        if (id != classId)
            runnerUp = std::min(runnerUp, distances[id]);
    return runnerUp - bestDistance;
}

AssociativeMemory::AssociativeMemory(std::size_t dim) : rows(dim)
{
}

void
AssociativeMemory::reserve(std::size_t n)
{
    rows.reserve(n);
    labels.reserve(labels.size() + n);
}

std::size_t
AssociativeMemory::store(const Hypervector &hv, std::string label)
{
    if (hv.dim() != rows.dim())
        throw std::invalid_argument("AssociativeMemory::store: "
                                    "dimension mismatch");
    // Append first: on a mapped (read-only) store this throws
    // before the label list is touched, leaving the memory intact.
    const std::size_t id = rows.append(hv);
    labels.push_back(std::move(label));
    return id;
}

void
AssociativeMemory::bindExternal(const std::uint64_t *words,
                                std::size_t rowCount,
                                std::vector<std::string> newLabels)
{
    if (newLabels.size() != rowCount)
        throw std::invalid_argument("AssociativeMemory::bindExternal:"
                                    " one label per row required");
    rows.bindExternal(words, rowCount);
    labels = std::move(newLabels);
}

Hypervector
AssociativeMemory::vectorOf(std::size_t id) const
{
    assert(id < rows.rows());
    return rows.rowVector(id);
}

const std::string &
AssociativeMemory::labelOf(std::size_t id) const
{
    assert(id < labels.size());
    return labels[id];
}

SearchResult
AssociativeMemory::search(const Hypervector &query) const
{
    return searchSampled(query, rows.dim());
}

SearchResult
AssociativeMemory::searchSampled(const Hypervector &query,
                                 std::size_t prefix) const
{
    if (rows.rows() == 0)
        throw std::logic_error("AssociativeMemory: empty search");
    assert(query.dim() == rows.dim());
    assert(prefix <= rows.dim());

    TRACE_SPAN("am.search");
    SearchResult result;
    result.classId = rows.nearest(query, prefix, &result.bestDistance);
    recordScans(1);
    return result;
}

SearchResult
AssociativeMemory::searchDetailed(const Hypervector &query) const
{
    if (rows.rows() == 0)
        throw std::logic_error("AssociativeMemory: empty search");
    SearchResult result;
    rows.distances(query, rows.dim(), result.distances);
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (std::size_t id = 0; id < result.distances.size(); ++id) {
        if (result.distances[id] < best) {
            best = result.distances[id];
            result.classId = id;
        }
    }
    result.bestDistance = best;
    if (sink) {
        sink->queries.add(1);
        sink->rowsScanned.add(rows.rows());
    }
    return result;
}

std::vector<SearchResult>
AssociativeMemory::searchBatch(const std::vector<Hypervector> &queries,
                               std::size_t threads) const
{
    batch::requireStored(rows.rows(), "AssociativeMemory");
    const std::size_t prefix = rows.dim();
    const auto kernel = [&](std::size_t q, batch::NoTally &) {
        SearchResult result;
        result.classId =
            rows.nearest(queries[q], prefix, &result.bestDistance);
        return result;
    };
    const auto newTally = [] { return batch::NoTally{}; };
    const auto merge = [&](const batch::NoTally &, std::size_t begin,
                           std::size_t end) { recordScans(end - begin); };
    return batch::run<SearchResult>({"am.batch", "am.chunk"},
                                    queries.size(), threads, sink,
                                    newTally, kernel, merge);
}

std::vector<RankedMatch>
AssociativeMemory::searchTopK(const Hypervector &query,
                              std::size_t k) const
{
    if (rows.rows() == 0)
        throw std::logic_error("AssociativeMemory: empty search");
    std::vector<RowMatch> matches;
    rows.topK(query, rows.dim(), k, matches);
    recordScans(1);
    std::vector<RankedMatch> ranked;
    ranked.reserve(matches.size());
    for (const RowMatch &m : matches)
        ranked.push_back({m.index, m.distance});
    return ranked;
}

void
AssociativeMemory::recordScans(std::size_t queries) const
{
    if (!sink)
        return;
    sink->queries.add(queries);
    sink->rowsScanned.add(queries * rows.rows());
}

std::size_t
AssociativeMemory::minPairwiseDistance() const
{
    assert(rows.rows() >= 2);
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (std::size_t j = 1; j < rows.rows(); ++j) {
        const Hypervector hv = rows.rowVector(j);
        for (std::size_t i = 0; i < j; ++i)
            best = std::min(best, rows.distance(i, hv, rows.dim()));
    }
    return best;
}

} // namespace hdham
