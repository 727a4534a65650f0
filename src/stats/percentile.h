// Exact percentile tracking over collected samples.
//
// Thread-safety contract: const readers never mutate the tracker, so any
// number of threads may read one tracker concurrently (sweep aggregation,
// lane merges). Reading an unsorted tracker is correct but copies the
// samples; call Sort() once at the collection boundary (after the last
// Add/Merge) to make subsequent reads allocation-free.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpcc::stats {

// The percentile arithmetic every distribution here answers with: the value
// at fractional rank p/100 * (n - 1), linearly interpolated between the two
// adjacent ranks. `at(i)` returns the i-th smallest of the n > 0 samples.
template <typename At>
double RankInterpolate(size_t n, double p, At at) {
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  return at(lo) * (1.0 - frac) + at(hi) * frac;
}

class PercentileTracker {
 public:
  void Add(double sample) {
    samples_.push_back(sample);
    sorted_ = false;
  }

  // Folds another tracker's samples in. Percentiles sort before answering,
  // so the merged result is independent of merge order — shard-merged
  // statistics equal the one-lane ones exactly.
  void Merge(const PercentileTracker& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }

  // Sorts in place so later const reads hit the zero-copy fast path. Call
  // after the final Add/Merge, before the tracker is shared across threads.
  void Sort();

  // p in [0, 100]; exact nearest-rank percentile (linear interpolation
  // between adjacent ranks). Returns NaN on no samples, so downstream
  // formatting can distinguish "no data" from a real 0.
  double Percentile(double p) const;
  double Mean() const;  // NaN on no samples
  double Max() const;   // NaN on no samples
  double Min() const;   // NaN on no samples
  size_t Count() const { return samples_.size(); }
  bool Empty() const { return samples_.empty(); }

 private:
  std::vector<double> samples_;
  bool sorted_ = true;  // an empty tracker is trivially sorted
};

}  // namespace hpcc::stats
