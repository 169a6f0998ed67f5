/**
 * @file
 * Lightweight statistics helper: streaming mean/variance, geometric
 * mean (the paper's "on-average X× speedup" figures are geomeans over
 * models) and min/max tracking. Distributions (latency percentiles)
 * live in obs::Histogram.
 */

#ifndef VITCOD_COMMON_STATS_H
#define VITCOD_COMMON_STATS_H

#include <cstddef>
#include <limits>

namespace vitcod {

/**
 * Streaming scalar statistic using Welford's algorithm for a stable
 * variance and a parallel log-domain accumulator for the geomean.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples so far. */
    size_t count() const { return n_; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Population variance; 0 when fewer than two samples. */
    double variance() const;

    /** Standard deviation. */
    double stddev() const;

    /**
     * Geometric mean; only meaningful when all samples are positive.
     * Returns 0 when empty or when any sample was <= 0.
     */
    double geomean() const;

    /** Smallest sample; +inf when empty. */
    double min() const { return min_; }

    /** Largest sample; -inf when empty. */
    double max() const { return max_; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

  private:
    size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double logSum_ = 0.0;
    bool allPositive_ = true;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace vitcod

#endif // VITCOD_COMMON_STATS_H
