// Simple (time, value) series plus the window readout over it (the
// manifest's declared-series statistics, docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "stats/percentile.h"

namespace hpcc::stats {

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(size_t max_points) { set_max_points(max_points); }

  void Add(sim::TimePs t, double v) {
    if (max_points_ != 0 && points_.size() >= max_points_) Compact();
    points_.emplace_back(t, v);
  }
  const std::vector<std::pair<sim::TimePs, double>>& points() const {
    return points_;
  }
  bool empty() const { return points_.empty(); }

  // Bounds memory: once the series holds max_points entries the next Add
  // drops every other point (stride doubling), so an arbitrarily long
  // sampling run keeps the first point, the latest point and a uniformly
  // thinned middle while never exceeding the cap. 0 (default) = unbounded.
  void set_max_points(size_t max_points);
  size_t max_points() const { return max_points_; }

  // The values of the points with from < t <= to. Every statistic of an
  // empty window is NaN, never 0.
  PercentileTracker Window(sim::TimePs from, sim::TimePs to) const;

 private:
  void Compact();  // keep even indices: halves size, doubles the stride

  std::vector<std::pair<sim::TimePs, double>> points_;
  size_t max_points_ = 0;
};

// Jain's fairness index (sum m)^2 / (n * sum m^2) over the n series' window
// means m = Window(from, to).Mean(). NaN when undefined: no series, an
// empty window, or every mean zero.
double JainIndex(const std::vector<TimeSeries>& series, sim::TimePs from,
                 sim::TimePs to);

}  // namespace hpcc::stats
