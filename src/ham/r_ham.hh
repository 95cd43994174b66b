/**
 * @file
 * R-HAM: resistive (memristive) hyperdimensional associative memory
 * (Section III-C, Figure 3).
 *
 * Architecture: the learned hypervectors live in a memristive
 * crossbar partitioned into M = D / blockBits blocks. Each block's
 * match-line discharge time encodes its local Hamming distance, which
 * four staggered sense amplifiers convert into a thermometer code;
 * per-row counters sum the block distances and a comparator tree
 * (shared with D-HAM) picks the minimum row.
 *
 * Approximation knobs:
 *  - block sampling: trailing blocks are powered off entirely (the
 *    i.i.d. argument of D-HAM, at block granularity);
 *  - distributed voltage overscaling: a subset of blocks runs at
 *    0.78 V, where timing noise may mis-sense a block distance by
 *    one bit -- but the errors spread across many blocks instead of
 *    concentrating, which HD classification tolerates (Section
 *    III-C2).
 *
 * The sensing error mechanism is the analytic distribution of
 * circuit::MatchLineModel; per-query Monte Carlo draws the number of
 * mis-sensed blocks per row from binomials instead of simulating all
 * 2,500 blocks individually, which is exact in distribution and
 * orders of magnitude faster.
 *
 * Those draws need only each row's histogram of block distances
 * (blockHistogram). The paper's 4-bit blocks are counted the way the
 * crossbar senses them, all at once: sixteen blocks to a word of
 * row xor query, with in-register nibble popcounts summed per level
 * across words; other widths count block by block. Both give the
 * same exact histogram, and the noise draws read nothing else, so
 * every sensed distance is the same whichever way it was counted.
 */

#ifndef HDHAM_HAM_R_HAM_HH
#define HDHAM_HAM_R_HAM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/ml_discharge.hh"
#include "core/random.hh"
#include "ham/ham.hh"

namespace hdham::ham
{

/** R-HAM configuration. */
struct RHamConfig
{
    /** Hypervector dimensionality D. */
    std::size_t dim = 10000;
    /** Bits per crossbar block; must divide 64. The paper uses 4. */
    std::size_t blockBits = 4;
    /** Trailing blocks powered off (structured sampling). */
    std::size_t blocksOff = 0;
    /** Leading blocks run at the overscaled supply. */
    std::size_t overscaledBlocks = 0;
    /** Overscaled block supply (V). */
    double overscaledVdd = 0.78;
    /**
     * Blocks (after the 0.78 V region) run at the deep overscaled
     * supply, accepting up to 2 bits of error each (Section
     * III-C2: "accepting more than 2,500 bits error requires some
     * blocks to accept a Hamming distance of 2" at 720 mV).
     */
    std::size_t deepOverscaledBlocks = 0;
    /** Deep overscaled block supply (V). */
    double deepOverscaledVdd = 0.72;
    /** Random stream seed for sensing noise. */
    std::uint64_t seed = 0x722d68616d2d3137ULL;

    /** Total number of blocks. */
    std::size_t totalBlocks() const
    {
        return (dim + blockBits - 1) / blockBits;
    }

    /** Blocks that actually participate in the search. */
    std::size_t activeBlocks() const
    {
        return totalBlocks() - blocksOff;
    }
};

/**
 * Behavioral model of the resistive HAM.
 */
class RHam : public Ham
{
  public:
    /** Histogram of block distances: hist[d] = blocks at distance d. */
    using Histogram = std::array<std::uint32_t, 65>;

    explicit RHam(const RHamConfig &config);

    std::string name() const override { return "R-HAM"; }
    std::size_t dim() const override { return cfg.dim; }
    std::size_t size() const override { return rows.size(); }
    std::size_t store(const Hypervector &hv) override;
    HamResult search(const Hypervector &query) override;

    /**
     * Batched search parallelized over queries. Sensing noise for
     * query k of the batch comes from substreamSeed(seed, n + k)
     * where n is the number of queries served so far, so the results
     * match the sequential search() loop bit for bit regardless of
     * thread count or batch split.
     */
    std::vector<HamResult>
    searchBatch(const std::vector<Hypervector> &queries,
                std::size_t threads = 1) override;

    const RHamConfig &config() const { return cfg; }

    /** Match-line model of the nominal-voltage blocks. */
    const circuit::MatchLineModel &nominalBlock() const
    {
        return nominal;
    }

    /** Match-line model of the overscaled blocks. */
    const circuit::MatchLineModel &overscaledBlock() const
    {
        return overscaled;
    }

    /** Match-line model of the deep overscaled blocks. */
    const circuit::MatchLineModel &deepOverscaledBlock() const
    {
        return deepOverscaled;
    }

    /**
     * Upper bound on the distance error this configuration can
     * inject, matching the paper's error accounting: one bit per
     * overscaled block, two bits per deep overscaled block, plus
     * blockBits per sampled-out block.
     */
    std::size_t worstCaseDistanceError() const;

    /**
     * Add to @p hist the distance of every block of row xor query in
     * [firstBlock, lastBlock), @p blockBits bits to a block. 4-bit
     * blocks are counted sixteen to a word, from in-register nibble
     * popcounts whose bit-planes are summed across words; other
     * widths count one block at a time. The counts are exact either
     * way, so the noise drawn from them is the same. Exposed for
     * validation against a per-block count.
     * @pre blockBits divides 64, row and query have the same dim, and
     * lastBlock <= ceil(dim / blockBits).
     */
    static void blockHistogram(const Hypervector &row,
                               const Hypervector &query,
                               std::size_t blockBits,
                               std::size_t firstBlock,
                               std::size_t lastBlock, Histogram &hist);

  private:
    /** Per-query observability tally, merged into the sink by the
     *  caller (once per query or once per worker chunk). */
    struct Tally
    {
        std::uint64_t blocksSensed = 0;
        std::uint64_t saFires = 0;
        std::uint64_t overscaleErrors = 0;
    };

    /**
     * Draw the total sensed distance for @p hist blocks through the
     * sensing distributions of @p senseDist, consuming @p rng. When
     * @p misSensed is non-null it accumulates the number of blocks
     * sensed at a level different from their true distance.
     */
    std::size_t
    senseTotal(const Histogram &hist,
               const std::vector<std::vector<double>> &senseDist,
               Rng &rng, std::uint64_t *misSensed = nullptr) const;

    /**
     * One search with noise drawn from the substream of query
     * @p index; fills @p tally when non-null.
     */
    HamResult searchIndexed(const Hypervector &query,
                            std::uint64_t index,
                            Tally *tally = nullptr) const;

    RHamConfig cfg;
    circuit::MatchLineModel nominal;
    circuit::MatchLineModel overscaled;
    circuit::MatchLineModel deepOverscaled;
    /** senseNominal[d][k] = P(sensed = k | true = d) at 1.0 V. */
    std::vector<std::vector<double>> senseNominal;
    /** Same at the overscaled supply. */
    std::vector<std::vector<double>> senseOverscaled;
    /** Same at the deep overscaled supply. */
    std::vector<std::vector<double>> senseDeep;
    std::vector<Hypervector> rows;
    /** Lifetime query counter selecting the per-query substream. */
    std::uint64_t nextQueryIndex = 0;
};

} // namespace hdham::ham

#endif // HDHAM_HAM_R_HAM_HH
