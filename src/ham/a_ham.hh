/**
 * @file
 * A-HAM: analog current-based hyperdimensional associative memory
 * (Section III-D, Figures 6-8).
 *
 * Architecture: a memristive TCAM crossbar whose match lines are held
 * at a fixed voltage by a stabilizer; the current drawn by a row is
 * proportional to its Hamming distance from the query (with droop
 * compression at high distance). The search is split into N stages
 * whose partial currents are summed by current mirrors; a binary tree
 * of Loser-Takes-All comparators returns the row with the minimum
 * current.
 *
 * Error mechanisms (all modeled):
 *  - current compression limits single-stage resolution (Fig. 7);
 *  - every current mirror adds a bounded summation error, so more
 *    stages cost ~1 distance unit each;
 *  - the LTA's finite bit resolution quantizes the comparison;
 *  - process/voltage variation inflates the comparator offset
 *    (Fig. 13).
 */

#ifndef HDHAM_HAM_A_HAM_HH
#define HDHAM_HAM_A_HAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/lta.hh"
#include "circuit/variation.hh"
#include "core/packed_rows.hh"
#include "core/random.hh"
#include "ham/ham.hh"

namespace hdham::ham
{

/** A-HAM configuration. */
struct AHamConfig
{
    /** Hypervector dimensionality D. */
    std::size_t dim = 10000;
    /** Search stages N (0 selects the paper's default for D). */
    std::size_t stages = 0;
    /** LTA bit resolution (0 selects the paper's default for D). */
    std::size_t ltaBits = 0;
    /** Process/voltage variation corner of the LTA blocks. */
    circuit::VariationParams variation =
        circuit::VariationParams::designPoint();
    /** Electrical current model of the stabilized match lines. */
    circuit::CurrentModel current;
    /** Worst-case per-mirror summation error, in unit currents. */
    double mirrorBeta = 1.0;
    /** Random stream seed for comparator/mirror noise. */
    std::uint64_t seed = 0x612d68616d2d3137ULL;

    /** Effective stage count. */
    std::size_t effectiveStages() const
    {
        return stages == 0 ? circuit::defaultStagesFor(dim) : stages;
    }

    /** Effective LTA resolution. */
    std::size_t effectiveBits() const
    {
        return ltaBits == 0 ? circuit::defaultLtaBitsFor(dim)
                            : ltaBits;
    }
};

/**
 * Behavioral model of the analog HAM.
 */
class AHam : public Ham
{
  public:
    explicit AHam(const AHamConfig &config);

    std::string name() const override { return "A-HAM"; }
    std::size_t dim() const override { return cfg.dim; }
    std::size_t size() const override { return rows.rows(); }
    std::size_t store(const Hypervector &hv) override;
    HamResult search(const Hypervector &query) override;

    /**
     * Batched search parallelized over queries. Mirror and
     * comparator noise for query k comes from
     * substreamSeed(seed, n + k) where n is the number of queries
     * served so far, so the results match the sequential search()
     * loop bit for bit regardless of thread count or batch split.
     */
    std::vector<HamResult>
    searchBatch(const std::vector<Hypervector> &queries,
                std::size_t threads = 1) override;

    const AHamConfig &config() const { return cfg; }

    /**
     * Closed-form minimum detectable distance of this configuration
     * (Fig. 7 model), including the variation-induced offset growth.
     */
    std::size_t minDetectableDistance() const;

  private:
    /** Per-query observability tally, merged into the sink by the
     *  caller (once per query or once per worker chunk). */
    struct Tally
    {
        /** Stage partial distances deep enough into the compression
         *  curve that per-bit current sensitivity fell below half
         *  (d > dSat * (sqrt(2) - 1)). */
        std::uint64_t saturationEvents = 0;
    };

    /**
     * One search with noise drawn from the substream of query
     * @p index; fills @p tally when non-null.
     */
    HamResult searchIndexed(const Hypervector &query,
                            std::uint64_t index,
                            Tally *tally = nullptr) const;

    AHamConfig cfg;
    circuit::MultistageCurrentSum summer;
    /**
     * Dense row store (the TCAM crossbar analogue). Every row's
     * summed current feeds the LTA comparator tree, and the
     * mirror/comparator noise stream consumes one draw per row in
     * row order. The one-pass staged distance sweep
     * (stagePrefixDistances) resolves the stage boundaries -- ragged
     * or not -- in a single pass over each row instead of one
     * cumulative prefix pass per stage.
     */
    PackedRows rows;
    /** Stage boundary bits: stageEnds[s] = min((s+1) * W, D). */
    std::vector<std::size_t> stageEnds;
    /** Lifetime query counter selecting the per-query substream. */
    std::uint64_t nextQueryIndex = 0;
};

} // namespace hdham::ham

#endif // HDHAM_HAM_A_HAM_HH
