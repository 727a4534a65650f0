#include "stats/percentile.h"

#include <algorithm>
#include <limits>

namespace hpcc::stats {

void PercentileTracker::Sort() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double PercentileTracker::Percentile(double p) const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  // Unsorted read: sort a local copy so concurrent readers never race.
  std::vector<double> copy;
  if (!sorted_) {
    copy = samples_;
    std::sort(copy.begin(), copy.end());
  }
  const std::vector<double>& sorted = sorted_ ? samples_ : copy;
  return RankInterpolate(sorted.size(), p,
                         [&sorted](size_t i) { return sorted[i]; });
}

double PercentileTracker::Mean() const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double PercentileTracker::Max() const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(samples_.begin(), samples_.end());
}

double PercentileTracker::Min() const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(samples_.begin(), samples_.end());
}

}  // namespace hpcc::stats
