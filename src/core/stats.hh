/**
 * @file
 * Streaming summary statistics for benches and tests.
 *
 * Header-only: Welford's online algorithm for mean/variance plus
 * min/max tracking with percentile extraction over retained samples.
 * Latency distributions too long to retain go to
 * metrics::LatencyHistogram (core/metrics.hh) instead.
 */

#ifndef HDHAM_CORE_STATS_HH
#define HDHAM_CORE_STATS_HH

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace hdham
{

/**
 * Streaming mean / variance / extrema accumulator.
 */
class RunningStats
{
  public:
    /** @param keepSamples retain samples to allow percentile(). */
    explicit RunningStats(bool keepSamples = false)
        : keep(keepSamples)
    {
    }

    /** Accumulate one observation. */
    void
    add(double x)
    {
        ++n;
        const double delta = x - mu;
        mu += delta / static_cast<double>(n);
        m2 += delta * (x - mu);
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        if (keep)
            samples.push_back(x);
    }

    /** Number of observations. */
    std::size_t count() const { return n; }

    /** Sample mean. @pre count() > 0. */
    double
    mean() const
    {
        assert(n > 0);
        return mu;
    }

    /** Unbiased sample variance. @pre count() > 1. */
    double
    variance() const
    {
        assert(n > 1);
        return m2 / static_cast<double>(n - 1);
    }

    /** Sample standard deviation. @pre count() > 1. */
    double stddev() const { return std::sqrt(variance()); }

    /** Minimum observation. @pre count() > 0. */
    double
    min() const
    {
        assert(n > 0);
        return lo;
    }

    /** Maximum observation. @pre count() > 0. */
    double
    max() const
    {
        assert(n > 0);
        return hi;
    }

    /**
     * Percentile in [0, 1] by nearest-rank over retained samples.
     * q = 0 is exactly the minimum and q = 1 exactly the maximum.
     * @throws std::logic_error unless constructed with keepSamples
     *         and at least one sample was added.
     * @throws std::invalid_argument when q is outside [0, 1].
     */
    double
    percentile(double q) const
    {
        if (!keep)
            throw std::logic_error("RunningStats::percentile: "
                                   "samples were not retained");
        if (samples.empty())
            throw std::logic_error("RunningStats::percentile: no "
                                   "samples");
        if (!(q >= 0.0 && q <= 1.0))
            throw std::invalid_argument("RunningStats::percentile: "
                                        "q outside [0, 1]");
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        const auto rank = static_cast<std::size_t>(
            q * static_cast<double>(sorted.size() - 1) + 0.5);
        return sorted[rank];
    }

  private:
    bool keep;
    std::size_t n = 0;
    double mu = 0.0;
    double m2 = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    std::vector<double> samples;
};

} // namespace hdham

#endif // HDHAM_CORE_STATS_HH
