#include "ham/r_ham.hh"

#include <bit>
#include <limits>
#include <stdexcept>

#include "core/batch_executor.hh"
#include "core/distance.hh"
#include "core/trace.hh"

namespace hdham::ham
{

namespace
{

circuit::MatchLineConfig
blockConfig(std::size_t width, double vdd)
{
    circuit::MatchLineConfig cfg =
        circuit::MatchLineConfig::rhamBlock(width);
    cfg.v0 = vdd;
    return cfg;
}

/**
 * RHam::blockHistogram on raw words: 4-bit blocks through the tier's
 * @p nibbles kernel, other widths one block at a time.
 */
void
countBlocks(distance::NibbleHistogramFn nibbles,
            const std::uint64_t *row, const std::uint64_t *query,
            std::size_t blockBits, std::size_t firstBlock,
            std::size_t lastBlock, RHam::Histogram &hist)
{
    if (blockBits == 4) {
        nibbles(row, query, firstBlock, lastBlock, hist.data());
        return;
    }
    const std::uint64_t mask =
        blockBits == 64 ? ~0ULL : ((1ULL << blockBits) - 1);
    for (std::size_t b = firstBlock; b < lastBlock; ++b) {
        const std::size_t bitPos = b * blockBits;
        const std::size_t word = bitPos / 64;
        const std::uint64_t diff =
            (row[word] ^ query[word]) >> (bitPos % 64);
        ++hist[std::popcount(diff & mask)];
    }
}

} // namespace

RHam::RHam(const RHamConfig &config)
    : cfg(config),
      nominal(blockConfig(cfg.blockBits,
                          circuit::Technology::instance().vddNominal)),
      overscaled(blockConfig(cfg.blockBits, cfg.overscaledVdd)),
      deepOverscaled(blockConfig(cfg.blockBits, cfg.deepOverscaledVdd)),
      rows(config.dim == 0 ? 1 : config.dim)
{
    if (cfg.dim == 0)
        throw std::invalid_argument("RHam: zero dimension");
    if (cfg.blockBits == 0 || 64 % cfg.blockBits != 0)
        throw std::invalid_argument("RHam: block width must divide "
                                    "64");
    if (cfg.blocksOff > cfg.totalBlocks())
        throw std::invalid_argument("RHam: more blocks off than "
                                    "exist");
    if (cfg.overscaledBlocks + cfg.deepOverscaledBlocks >
        cfg.activeBlocks()) {
        throw std::invalid_argument("RHam: more overscaled blocks "
                                    "than active blocks");
    }

    senseNominal.reserve(cfg.blockBits + 1);
    senseOverscaled.reserve(cfg.blockBits + 1);
    senseDeep.reserve(cfg.blockBits + 1);
    for (std::size_t d = 0; d <= cfg.blockBits; ++d) {
        senseNominal.push_back(nominal.senseDistribution(d));
        senseOverscaled.push_back(overscaled.senseDistribution(d));
        senseDeep.push_back(deepOverscaled.senseDistribution(d));
    }
}

std::size_t
RHam::store(const Hypervector &hv)
{
    if (hv.dim() != cfg.dim)
        throw std::invalid_argument("RHam::store: dimension mismatch");
    return rows.append(hv);
}

void
RHam::blockHistogram(const Hypervector &row, const Hypervector &query,
                     std::size_t blockBits, std::size_t firstBlock,
                     std::size_t lastBlock, Histogram &hist)
{
    countBlocks(distance::activeEntry().nibbleHistogram, row.data(),
                query.data(), blockBits, firstBlock, lastBlock, hist);
}

std::size_t
RHam::senseTotal(const Histogram &hist,
                 const std::vector<std::vector<double>> &senseDist,
                 Rng &rng, std::uint64_t *misSensed) const
{
    std::size_t total = 0;
    for (std::size_t d = 0; d <= cfg.blockBits; ++d) {
        std::uint32_t remaining = hist[d];
        if (remaining == 0)
            continue;
        // Multinomial draw over sensed levels via chained binomials.
        const std::vector<double> &dist = senseDist[d];
        double massLeft = 1.0;
        for (std::size_t k = 0; k <= cfg.blockBits && remaining > 0;
             ++k) {
            const double p = dist[k];
            if (p <= 0.0)
                continue;
            std::uint64_t n;
            if (massLeft - p <= 1e-12) {
                n = remaining;
            } else {
                n = rng.nextBinomial(remaining, p / massLeft);
            }
            total += k * n;
            if (misSensed && k != d)
                *misSensed += n;
            remaining -= static_cast<std::uint32_t>(n);
            massLeft -= p;
        }
        // Any residual mass (numerical) senses at the true level.
        total += d * remaining;
    }
    return total;
}

HamResult
RHam::searchIndexed(const Hypervector &query,
                    std::uint64_t index, Tally *tally) const
{
    const std::size_t active = cfg.activeBlocks();
    const std::size_t overscaledCount = cfg.overscaledBlocks;
    const std::size_t deepEnd =
        overscaledCount + cfg.deepOverscaledBlocks;

    TRACE_SPAN("r_ham.query");
    // One tier for the whole query, even across a concurrent
    // setKernelByName.
    const distance::NibbleHistogramFn nibbles =
        distance::activeEntry().nibbleHistogram;
    Rng rng(substreamSeed(cfg.seed, index));
    HamResult result;
    std::uint64_t misSensed = 0;
    std::uint64_t *errors = tally ? &misSensed : nullptr;

    // The voltage regions, in the order their draws are taken. An
    // empty region would add nothing to its histogram and draw
    // nothing, so it is neither counted nor sensed. Only the
    // overscaled regions feed the error counter: the nominal-supply
    // blocks sense exactly by construction.
    struct Region
    {
        std::size_t first;
        std::size_t last;
        const std::vector<std::vector<double>> *sense;
        std::uint64_t *errors;
    };
    const Region regions[] = {
        {0, overscaledCount, &senseOverscaled, errors},
        {overscaledCount, deepEnd, &senseDeep, errors},
        {deepEnd, active, &senseNominal, nullptr},
    };

    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (std::size_t id = 0; id < rows.rows(); ++id) {
        const std::uint64_t *row = rows.data() + id * rows.wordsPerRow();
        std::size_t sensed = 0;
        for (const Region &region : regions) {
            if (region.first == region.last)
                continue;
            Histogram hist{};
            {
                TRACE_SPAN("r_ham.block_sense");
                countBlocks(nibbles, row, query.data(), cfg.blockBits,
                            region.first, region.last, hist);
            }
            TRACE_SPAN("r_ham.sense_amp");
            sensed += senseTotal(hist, *region.sense, rng, region.errors);
        }
        if (tally)
            tally->saFires += sensed;
        if (sensed < best) {
            best = sensed;
            result.classId = id;
        }
    }
    if (tally) {
        tally->blocksSensed +=
            static_cast<std::uint64_t>(active) * rows.rows();
        tally->overscaleErrors += misSensed;
    }
    result.reportedDistance = best;
    return result;
}

HamResult
RHam::search(const Hypervector &query)
{
    if (rows.rows() == 0)
        throw std::logic_error("RHam::search: no stored classes");
    batch::requireDim(query, cfg.dim, "RHam::search");
    if (!sink)
        return searchIndexed(query, nextQueryIndex++);
    Tally tally;
    const HamResult result =
        searchIndexed(query, nextQueryIndex++, &tally);
    sink->queries.add(1);
    sink->rowsScanned.add(rows.rows());
    sink->blocksSensed.add(tally.blocksSensed);
    sink->saFires.add(tally.saFires);
    sink->overscaleErrors.add(tally.overscaleErrors);
    return result;
}

std::vector<HamResult>
RHam::searchBatch(const std::vector<Hypervector> &queries,
                  std::size_t threads)
{
    batch::requireStored(rows.rows(), "RHam");
    batch::requireDims(queries, cfg.dim, "RHam::searchBatch");
    const std::uint64_t first = nextQueryIndex;
    nextQueryIndex += queries.size();
    return batch::run<HamResult>(
        {"r_ham.batch", "r_ham.chunk"}, queries.size(), threads,
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
            sink->blocksSensed.add(tally.blocksSensed);
            sink->saFires.add(tally.saFires);
            sink->overscaleErrors.add(tally.overscaleErrors);
        });
}

std::size_t
RHam::worstCaseDistanceError() const
{
    return cfg.overscaledBlocks + 2 * cfg.deepOverscaledBlocks +
           cfg.blocksOff * cfg.blockBits;
}

} // namespace hdham::ham
