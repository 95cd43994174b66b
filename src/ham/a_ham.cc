#include "ham/a_ham.hh"

#include <algorithm>
#include <stdexcept>

#include "core/batch_executor.hh"
#include "core/trace.hh"

namespace hdham::ham
{

AHam::AHam(const AHamConfig &config)
    : cfg(config),
      summer(cfg.current, cfg.mirrorBeta,
             (cfg.dim + cfg.effectiveStages() - 1) /
                 cfg.effectiveStages()),
      rows(config.dim == 0 ? 1 : config.dim)
{
    if (cfg.dim == 0)
        throw std::invalid_argument("AHam: zero dimension");
    if (cfg.effectiveStages() > cfg.dim)
        throw std::invalid_argument("AHam: more stages than bits");
    if (cfg.effectiveBits() == 0 || cfg.effectiveBits() >= 32)
        throw std::invalid_argument("AHam: unsupported LTA bit "
                                    "width");
    const std::size_t stages = cfg.effectiveStages();
    const std::size_t stageWidth = (cfg.dim + stages - 1) / stages;
    stageEnds.reserve(stages);
    for (std::size_t s = 0; s < stages; ++s)
        stageEnds.push_back(
            std::min((s + 1) * stageWidth, cfg.dim));
}

std::size_t
AHam::store(const Hypervector &hv)
{
    if (hv.dim() != cfg.dim)
        throw std::invalid_argument("AHam::store: dimension mismatch");
    return rows.append(hv);
}

HamResult
AHam::searchIndexed(const Hypervector &query,
                    std::uint64_t index, Tally *tally) const
{
    TRACE_SPAN("a_ham.query");
    Rng rng(substreamSeed(cfg.seed, index));
    const std::size_t stages = cfg.effectiveStages();
    const std::size_t stageWidth = (cfg.dim + stages - 1) / stages;
    // Half-sensitivity point of I(d) = I_unit * d / (1 + d/dSat):
    // dI/dd drops below I_unit/2 once d exceeds dSat * (sqrt(2)-1).
    const auto saturationOnset = static_cast<std::size_t>(
        cfg.current.dSat * 0.41421356237309515);

    // Per-row total current: staged partial distances summed through
    // the mirror chain. One pass per row resolves every (possibly
    // ragged) stage boundary; the noise stream still consumes one
    // draw per row in row order, so results are unchanged.
    std::vector<double> currents(rows.rows());
    std::vector<std::size_t> stageDist(stages);
    {
        TRACE_SPAN("a_ham.stage_sum");
        for (std::size_t id = 0; id < rows.rows(); ++id) {
            rows.stagePrefixDistances(id, query, stageEnds,
                                      stageDist);
            if (tally) {
                for (const std::size_t d : stageDist)
                    if (d > saturationOnset)
                        ++tally->saturationEvents;
            }
            currents[id] = summer.total(stageDist, rng);
        }
    }

    TRACE_SPAN("a_ham.lta");
    // LTA comparator tree with variation-inflated offsets.
    circuit::LtaConfig lta;
    lta.bits = cfg.effectiveBits();
    lta.fullScale = static_cast<double>(stages) *
                    cfg.current.fullScale(stageWidth);
    lta.variationGrowth = circuit::ltaOffsetGrowth(cfg.variation);
    const circuit::LtaTree tree(lta);

    HamResult result;
    result.classId = tree.winner(currents, rng);
    result.reportedDistance =
        rows.distance(result.classId, query, cfg.dim);
    return result;
}

HamResult
AHam::search(const Hypervector &query)
{
    if (rows.rows() == 0)
        throw std::logic_error("AHam::search: no stored classes");
    batch::requireDim(query, cfg.dim, "AHam::search");
    if (!sink)
        return searchIndexed(query, nextQueryIndex++);
    Tally tally;
    const HamResult result =
        searchIndexed(query, nextQueryIndex++, &tally);
    sink->queries.add(1);
    sink->rowsScanned.add(rows.rows());
    sink->stagesRun.add(cfg.effectiveStages());
    sink->ltaComparisons.add(rows.rows() - 1);
    sink->saturationEvents.add(tally.saturationEvents);
    return result;
}

std::vector<HamResult>
AHam::searchBatch(const std::vector<Hypervector> &queries,
                  std::size_t threads)
{
    batch::requireStored(rows.rows(), "AHam");
    batch::requireDims(queries, cfg.dim, "AHam::searchBatch");
    const std::uint64_t first = nextQueryIndex;
    nextQueryIndex += queries.size();
    return batch::run<HamResult>(
        {"a_ham.batch", "a_ham.chunk"}, queries.size(), threads,
        sink, [] { return Tally{}; },
        [&](std::size_t q, Tally &tally) {
            return searchIndexed(queries[q], first + q,
                                 sink ? &tally : nullptr);
        },
        [&](const Tally &tally, std::size_t begin,
            std::size_t end) {
            const std::uint64_t n = end - begin;
            sink->queries.add(n);
            sink->rowsScanned.add(n * rows.rows());
            sink->stagesRun.add(n * cfg.effectiveStages());
            sink->ltaComparisons.add(n * (rows.rows() - 1));
            sink->saturationEvents.add(tally.saturationEvents);
        });
}

std::size_t
AHam::minDetectableDistance() const
{
    return circuit::minDetectableDistance(
        cfg.dim, cfg.effectiveStages(), cfg.effectiveBits(),
        circuit::ltaOffsetGrowth(cfg.variation));
}

} // namespace hdham::ham
