// Exact percentiles over integer samples, stored as value counts.
//
// The switch-queue distribution samples every data-priority egress port at
// every tick, so its sample count grows with ports × ticks (millions on a
// k=32 fabric) while its distinct values — queue occupancies in bytes —
// stay few and mostly zero. Keeping counts instead of samples makes Add
// O(1), and memory, copies (warm checkpoints) and merges O(distinct values).
//
// Percentile answers are bit-identical to a PercentileTracker fed the same
// samples as doubles: both read the value at each rank through the shared
// RankInterpolate arithmetic (integers up to 2^53 convert to double exactly).
//
// Thread-safety contract: as PercentileTracker's — const readers never
// mutate, and Sort() once after the last Add/Merge makes reads
// allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpcc::stats {

class CountDistribution {
 public:
  void Add(int64_t sample) {
    ++count_;
    sorted_ = false;
    if (sample == 0) {
      ++zeros_;
    } else {
      Bump(sample, 1);
    }
  }

  // Adds another distribution's counts: the result is independent of merge
  // order, so shard-merged percentiles equal the one-lane ones exactly.
  void Merge(const CountDistribution& other);

  // Builds the cumulative runs later const reads search. Call after the
  // final Add/Merge, before the distribution is shared across threads.
  void Sort();

  // p in [0, 100]; same nearest-rank interpolation as PercentileTracker.
  // NaN on no samples.
  double Percentile(double p) const;
  uint64_t Count() const { return count_; }
  bool Empty() const { return count_ == 0; }
  // Distinct sample values held (zero included) — the storage size.
  size_t Distinct() const { return used_ + (zeros_ > 0 ? 1 : 0); }

 private:
  // Open-addressed (value, count) slot; value 0 marks an empty slot, which
  // is why zero samples are counted apart.
  struct Slot {
    int64_t value = 0;
    uint64_t count = 0;
  };
  // One run of equal samples in sorted order: the value and the rank one
  // past its last sample.
  struct Run {
    int64_t value;
    uint64_t end;
  };

  void Bump(int64_t value, uint64_t n);
  void Grow();
  std::vector<Run> BuildRuns() const;

  uint64_t count_ = 0;
  uint64_t zeros_ = 0;
  std::vector<Slot> slots_;  // power-of-two size, linear probing
  size_t used_ = 0;          // occupied slots
  int shift_ = 64;           // 64 - log2(slots_.size())
  std::vector<Run> runs_;    // valid while sorted_
  bool sorted_ = true;       // an empty distribution is trivially sorted
};

}  // namespace hpcc::stats
