/**
 * @file
 * D-HAM: digital CMOS hyperdimensional associative memory
 * (Section III-A, Figure 2).
 *
 * Architecture: a C x D array of XOR gates compares the query against
 * every stored row; per-row binary counters of log2(D) bits count the
 * mismatches; a binary tree of C - 1 comparators returns the row with
 * the minimum count. The computation is exact.
 *
 * Approximation knob: structured sampling. Because hypervector
 * components are i.i.d., Hamming distance computed over any fixed
 * subset of d < D components is an unbiased (scaled) estimate of the
 * full distance; D-HAM simply excludes D - d columns. d = 9,000
 * preserves the maximum classification accuracy, d = 7,000 the
 * moderate accuracy (Figure 1).
 */

#ifndef HDHAM_HAM_D_HAM_HH
#define HDHAM_HAM_D_HAM_HH

#include <cstddef>

#include "core/packed_rows.hh"
#include "ham/ham.hh"

namespace hdham::ham
{

/** D-HAM configuration. */
struct DHamConfig
{
    /** Hypervector dimensionality D. */
    std::size_t dim = 10000;
    /**
     * Sampled components d <= D used in the distance computation
     * (0 means "use all D").
     */
    std::size_t sampledDim = 0;

    /** Effective d after resolving the 0 default. */
    std::size_t effectiveDim() const
    {
        return sampledDim == 0 ? dim : sampledDim;
    }
};

/**
 * Behavioral model of the digital HAM.
 */
class DHam : public Ham
{
  public:
    explicit DHam(const DHamConfig &config);

    std::string name() const override { return "D-HAM"; }
    std::size_t dim() const override { return cfg.dim; }
    std::size_t size() const override { return rows.rows(); }
    std::size_t store(const Hypervector &hv) override;
    HamResult search(const Hypervector &query) override;

    /**
     * Batched search: the dense array scan parallelized over
     * queries. D-HAM is exact, so this is trivially identical to
     * the sequential loop.
     */
    std::vector<HamResult>
    searchBatch(const std::vector<Hypervector> &queries,
                std::size_t threads = 1) override;

    const DHamConfig &config() const { return cfg; }

    /** Reserve capacity for @p n more store() calls. */
    void reserve(std::size_t n) override { rows.reserve(n); }

  private:
    /** Add @p queries full scans to the attached sink (no-op when
     *  detached). */
    void recordScans(std::size_t queries) const;

    DHamConfig cfg;
    /** Dense row store: the software analogue of the CAM array. */
    PackedRows rows;
};

} // namespace hdham::ham

#endif // HDHAM_HAM_D_HAM_HH
