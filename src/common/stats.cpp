#include "stats.h"

#include <algorithm>
#include <cmath>

namespace vitcod {

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x > 0)
        logSum_ += std::log(x);
    else
        allPositive_ = false;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStat::geomean() const
{
    if (n_ == 0 || !allPositive_)
        return 0.0;
    return std::exp(logSum_ / static_cast<double>(n_));
}

} // namespace vitcod
