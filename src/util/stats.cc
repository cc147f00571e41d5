#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace apujoin {

void SummaryStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double SummaryStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double SummaryStats::stddev() const { return std::sqrt(variance()); }

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : samples_(std::move(samples)) {
  std::sort(samples_.begin(), samples_.end());
}

double EmpiricalCdf::Cdf(double x) const {
  if (samples_.empty()) return 0.0;
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double EmpiricalCdf::Quantile(double q) const {
  if (samples_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // An exact hit returns the sample itself: interpolating would compute
  // inf * 0 = NaN when the neighbour is infinite.
  if (frac == 0.0) return samples_[lo];
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::vector<std::pair<double, double>> EmpiricalCdf::Points(int buckets) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || buckets <= 0) return out;
  const double lo = samples_.front();
  const double hi = samples_.back();
  const double step = (hi - lo) / buckets;
  for (int i = 0; i <= buckets; ++i) {
    const double x = lo + step * i;
    out.emplace_back(x, Cdf(x));
  }
  return out;
}

}  // namespace apujoin
