#include "ham/r_ham.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "core/batch_executor.hh"
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

/** Bit 0 of every nibble. */
constexpr std::uint64_t kNibbleLow = 0x1111111111111111ULL;

/** Sum of the sixteen 4-bit lanes of @p lanes (each at most 15). */
std::uint32_t
sumNibbleLanes(std::uint64_t lanes)
{
    const std::uint64_t bytes = (lanes & 0x0F0F0F0F0F0F0F0FULL) +
                                ((lanes >> 4) & 0x0F0F0F0F0F0F0F0FULL);
    return static_cast<std::uint32_t>(
        (bytes * 0x0101010101010101ULL) >> 56);
}

/**
 * RHam::blockHistogram for 4-bit blocks. A nibble distance d = 0..4
 * has bits b2 b1 b0 = 000, 001, 010, 011, 100, so over the range
 * sum(b2) = hist[4], sum(b0 & b1) = hist[3], sum(b1) = hist[2] +
 * hist[3] and sum(b0) = hist[1] + hist[3]; hist[0] is the rest. Each
 * plane adds at most one per lane per word, so the nibble lanes fold
 * into totals every 15 words, before they can overflow.
 */
void
nibbleHistogram(const std::uint64_t *row, const std::uint64_t *query,
                std::size_t firstBlock, std::size_t lastBlock,
                RHam::Histogram &hist)
{
    if (firstBlock >= lastBlock)
        return;
    const std::size_t firstWord = firstBlock / 16;
    const std::size_t endWord = (lastBlock + 15) / 16;
    // Only the range's nibbles count in its first and last word.
    const std::uint64_t headMask = ~0ULL << (4 * (firstBlock % 16));
    const std::uint64_t tailMask =
        ~0ULL >> (4 * ((16 - lastBlock % 16) % 16));
    std::uint32_t b0Sum = 0, b1Sum = 0, b2Sum = 0, b01Sum = 0;
    for (std::size_t w = firstWord; w < endWord;) {
        const std::size_t foldAt = std::min(w + 15, endWord);
        std::uint64_t b0Lanes = 0, b1Lanes = 0, b2Lanes = 0;
        std::uint64_t b01Lanes = 0;
        for (; w < foldAt; ++w) {
            std::uint64_t x = row[w] ^ query[w];
            if (w == firstWord)
                x &= headMask;
            if (w + 1 == endWord)
                x &= tailMask;
            x -= (x >> 1) & 0x5555555555555555ULL;
            x = (x & 0x3333333333333333ULL) +
                ((x >> 2) & 0x3333333333333333ULL);
            const std::uint64_t b0 = x & kNibbleLow;
            const std::uint64_t b1 = (x >> 1) & kNibbleLow;
            b0Lanes += b0;
            b1Lanes += b1;
            b2Lanes += (x >> 2) & kNibbleLow;
            b01Lanes += b0 & b1;
        }
        b0Sum += sumNibbleLanes(b0Lanes);
        b1Sum += sumNibbleLanes(b1Lanes);
        b2Sum += sumNibbleLanes(b2Lanes);
        b01Sum += sumNibbleLanes(b01Lanes);
    }
    const auto blocks = static_cast<std::uint32_t>(lastBlock - firstBlock);
    hist[4] += b2Sum;
    hist[3] += b01Sum;
    hist[2] += b1Sum - b01Sum;
    hist[1] += b0Sum - b01Sum;
    hist[0] += blocks - (b0Sum + b1Sum - b01Sum + b2Sum);
}

} // namespace

RHam::RHam(const RHamConfig &config)
    : cfg(config),
      nominal(blockConfig(cfg.blockBits,
                          circuit::Technology::instance().vddNominal)),
      overscaled(blockConfig(cfg.blockBits, cfg.overscaledVdd)),
      deepOverscaled(blockConfig(cfg.blockBits, cfg.deepOverscaledVdd))
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
    rows.push_back(hv);
    return rows.size() - 1;
}

void
RHam::blockHistogram(const Hypervector &row, const Hypervector &query,
                     std::size_t blockBits, std::size_t firstBlock,
                     std::size_t lastBlock, Histogram &hist)
{
    if (blockBits == 4) {
        nibbleHistogram(row.data(), query.data(), firstBlock,
                        lastBlock, hist);
        return;
    }
    const std::size_t w = blockBits;
    const std::uint64_t mask =
        w == 64 ? ~0ULL : ((1ULL << w) - 1);
    for (std::size_t b = firstBlock; b < lastBlock; ++b) {
        const std::size_t bitPos = b * w;
        const std::size_t word = bitPos / 64;
        const std::size_t shift = bitPos % 64;
        const std::uint64_t diff =
            (row.word(word) ^ query.word(word)) >> shift;
        ++hist[std::popcount(diff & mask)];
    }
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
    assert(query.dim() == cfg.dim);

    const std::size_t active = cfg.activeBlocks();
    const std::size_t overscaledCount = cfg.overscaledBlocks;
    const std::size_t deepEnd =
        overscaledCount + cfg.deepOverscaledBlocks;

    TRACE_SPAN("r_ham.query");
    Rng rng(substreamSeed(cfg.seed, index));
    HamResult result;
    std::uint64_t misSensed = 0;
    std::uint64_t *errors = tally ? &misSensed : nullptr;
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (std::size_t id = 0; id < rows.size(); ++id) {
        Histogram histOvs{};
        Histogram histDeep{};
        Histogram histNom{};
        {
            TRACE_SPAN("r_ham.block_sense");
            blockHistogram(rows[id], query, cfg.blockBits, 0,
                           overscaledCount, histOvs);
            blockHistogram(rows[id], query, cfg.blockBits,
                           overscaledCount, deepEnd, histDeep);
            blockHistogram(rows[id], query, cfg.blockBits, deepEnd,
                           active, histNom);
        }
        // Only the overscaled regions feed the error counter: the
        // nominal-supply blocks sense exactly by construction.
        std::size_t sensed;
        {
            TRACE_SPAN("r_ham.sense_amp");
            sensed =
                senseTotal(histOvs, senseOverscaled, rng, errors) +
                senseTotal(histDeep, senseDeep, rng, errors) +
                senseTotal(histNom, senseNominal, rng);
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
            static_cast<std::uint64_t>(active) * rows.size();
        tally->overscaleErrors += misSensed;
    }
    result.reportedDistance = best;
    return result;
}

HamResult
RHam::search(const Hypervector &query)
{
    if (rows.empty())
        throw std::logic_error("RHam::search: no stored classes");
    if (!sink)
        return searchIndexed(query, nextQueryIndex++);
    Tally tally;
    const HamResult result =
        searchIndexed(query, nextQueryIndex++, &tally);
    sink->queries.add(1);
    sink->rowsScanned.add(rows.size());
    sink->blocksSensed.add(tally.blocksSensed);
    sink->saFires.add(tally.saFires);
    sink->overscaleErrors.add(tally.overscaleErrors);
    return result;
}

std::vector<HamResult>
RHam::searchBatch(const std::vector<Hypervector> &queries,
                  std::size_t threads)
{
    batch::requireStored(rows.size(), "RHam");
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
            sink->rowsScanned.add(n * rows.size());
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
