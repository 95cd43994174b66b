#include "ham/d_ham.hh"

#include <cassert>
#include <stdexcept>

#include "core/batch_executor.hh"
#include "core/trace.hh"

namespace hdham::ham
{

DHam::DHam(const DHamConfig &config)
    : cfg(config), rows(config.dim == 0 ? 1 : config.dim)
{
    if (cfg.dim == 0)
        throw std::invalid_argument("DHam: zero dimension");
    if (cfg.effectiveDim() > cfg.dim)
        throw std::invalid_argument("DHam: sampled dimension exceeds "
                                    "D");
}

std::size_t
DHam::store(const Hypervector &hv)
{
    if (hv.dim() != cfg.dim)
        throw std::invalid_argument("DHam::store: dimension mismatch");
    return rows.append(hv);
}

HamResult
DHam::search(const Hypervector &query)
{
    if (rows.rows() == 0)
        throw std::logic_error("DHam::search: no stored classes");
    assert(query.dim() == cfg.dim);

    // The comparator tree resolves ties toward the lower row index,
    // which is exactly PackedRows::nearest's tie rule.
    TRACE_SPAN("d_ham.search");
    HamResult result;
    result.classId = rows.nearest(query, cfg.effectiveDim(),
                                  &result.reportedDistance);
    recordScans(1);
    return result;
}

std::vector<HamResult>
DHam::searchBatch(const std::vector<Hypervector> &queries,
                  std::size_t threads)
{
    batch::requireStored(rows.rows(), "DHam");
    const std::size_t prefix = cfg.effectiveDim();
    const auto kernel = [&](std::size_t q, batch::NoTally &) {
        assert(queries[q].dim() == cfg.dim);
        HamResult result;
        result.classId =
            rows.nearest(queries[q], prefix, &result.reportedDistance);
        return result;
    };
    const auto newTally = [] { return batch::NoTally{}; };
    const auto merge = [&](const batch::NoTally &, std::size_t begin,
                           std::size_t end) { recordScans(end - begin); };
    return batch::run<HamResult>({"d_ham.batch", "d_ham.chunk"},
                                 queries.size(), threads, sink,
                                 newTally, kernel, merge);
}

void
DHam::recordScans(std::size_t queries) const
{
    if (!sink)
        return;
    sink->queries.add(queries);
    sink->rowsScanned.add(queries * rows.rows());
    sink->bitsSampled.add(queries * cfg.effectiveDim());
}

} // namespace hdham::ham
