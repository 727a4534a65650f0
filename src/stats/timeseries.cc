#include "stats/timeseries.h"

#include <algorithm>
#include <limits>

namespace hpcc::stats {

void TimeSeries::set_max_points(size_t max_points) {
  // A cap under 4 would thin the series down to almost nothing on every
  // Add; clamp so the endpoints plus some interior always survive.
  max_points_ = max_points == 0 ? 0 : std::max<size_t>(max_points, 4);
  if (max_points_ != 0) {
    while (points_.size() >= max_points_) Compact();
  }
}

void TimeSeries::Compact() {
  if (points_.size() < 2) return;
  size_t out = 0;
  for (size_t i = 0; i < points_.size(); i += 2) points_[out++] = points_[i];
  points_.resize(out);
}

PercentileTracker TimeSeries::Window(sim::TimePs from, sim::TimePs to) const {
  PercentileTracker window;
  for (const auto& [t, v] : points_) {
    if (t > from && t <= to) window.Add(v);
  }
  window.Sort();
  return window;
}

double JainIndex(const std::vector<TimeSeries>& series, sim::TimePs from,
                 sim::TimePs to) {
  double sum = 0;
  double sq = 0;
  for (const TimeSeries& s : series) {
    const double m = s.Window(from, to).Mean();
    sum += m;
    sq += m * m;
  }
  // NaN propagates from an empty window; 0/0 is undefined too.
  if (series.empty() || !(sq > 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return sum * sum / (static_cast<double>(series.size()) * sq);
}

}  // namespace hpcc::stats
