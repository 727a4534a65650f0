#include "stats/count_distribution.h"

#include <algorithm>
#include <limits>

#include "stats/percentile.h"

namespace hpcc::stats {

namespace {

// Fibonacci hashing: queue occupancies are sums of packet sizes, so low bits
// repeat; the multiply spreads them and the slot index takes the high bits.
size_t SlotOf(int64_t value, int shift) {
  return static_cast<size_t>(
      (static_cast<uint64_t>(value) * 0x9E3779B97F4A7C15ull) >> shift);
}

}  // namespace

void CountDistribution::Bump(int64_t value, uint64_t n) {
  if (4 * (used_ + 1) > 3 * slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = SlotOf(value, shift_);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.value == value) {
      s.count += n;
      return;
    }
    if (s.value == 0) {
      s.value = value;
      s.count = n;
      ++used_;
      return;
    }
  }
}

void CountDistribution::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  shift_ = old.empty() ? 64 - 4 : shift_ - 1;
  used_ = 0;
  for (const Slot& s : old) {
    if (s.value != 0) Bump(s.value, s.count);
  }
}

void CountDistribution::Merge(const CountDistribution& other) {
  if (other.count_ == 0) return;
  count_ += other.count_;
  zeros_ += other.zeros_;
  for (const Slot& s : other.slots_) {
    if (s.value != 0) Bump(s.value, s.count);
  }
  sorted_ = false;
}

std::vector<CountDistribution::Run> CountDistribution::BuildRuns() const {
  std::vector<Run> runs;
  runs.reserve(Distinct());
  if (zeros_ > 0) runs.push_back({0, zeros_});
  for (const Slot& s : slots_) {
    if (s.value != 0) runs.push_back({s.value, s.count});
  }
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.value < b.value; });
  uint64_t end = 0;
  for (Run& r : runs) {
    end += r.end;  // holds the run's count until here
    r.end = end;
  }
  return runs;
}

void CountDistribution::Sort() {
  if (!sorted_) {
    runs_ = BuildRuns();
    sorted_ = true;
  }
}

double CountDistribution::Percentile(double p) const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  std::vector<Run> local;
  if (!sorted_) local = BuildRuns();  // unsorted read: never touch runs_
  const std::vector<Run>& runs = sorted_ ? runs_ : local;
  auto at = [&runs](size_t rank) {
    const auto it = std::upper_bound(
        runs.begin(), runs.end(), static_cast<uint64_t>(rank),
        [](uint64_t r, const Run& run) { return r < run.end; });
    return static_cast<double>(it->value);
  };
  return RankInterpolate(static_cast<size_t>(count_), p, at);
}

}  // namespace hpcc::stats
