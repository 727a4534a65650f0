// FCT slowdown accounting: the paper's primary application metric.
//
// "FCT slowdown" is a flow's actual FCT normalized by its ideal FCT when the
// network carries only that flow (§2.3 footnote 1). Flows are bucketed into
// the size bins the paper uses on its x-axes, and per-bin slowdown
// percentiles (median/95/99) are reported.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "stats/percentile.h"

namespace hpcc::stats {

class FctRecorder {
 public:
  // `bin_edges`: upper-inclusive byte boundaries; a final +inf bin is
  // implied. Paper bin sets provided below.
  explicit FctRecorder(std::vector<uint64_t> bin_edges);

  void Record(uint64_t size_bytes, sim::TimePs fct, sim::TimePs ideal_fct);

  // Folds another recorder with identical bin edges in (shard merge);
  // percentiles sort on demand, so merge order does not matter.
  void Merge(const FctRecorder& other);

  // Sorts every bin so later const reads are zero-copy (and safe to share
  // across threads without per-read copies). Call at collection boundaries.
  void Sort() {
    for (PercentileTracker& b : bins_) b.Sort();
    overall_.Sort();
  }

  size_t num_bins() const { return bins_.size(); }
  const std::vector<uint64_t>& bin_edges() const { return edges_; }
  std::string BinLabel(size_t bin) const;
  const PercentileTracker& bin(size_t i) const { return bins_[i]; }
  const PercentileTracker& overall() const { return overall_; }
  size_t total_flows() const { return overall_.Count(); }

  // One row per bin: label, count, p50/p95/p99 slowdown.
  std::string FormatTable() const;

  // Paper x-axis bin sets.
  static std::vector<uint64_t> WebSearchBins();   // Fig. 2/3/10
  static std::vector<uint64_t> FbHadoopBins();    // Fig. 11/12

 private:
  size_t BinIndex(uint64_t size) const;
  std::vector<uint64_t> edges_;
  std::vector<PercentileTracker> bins_;
  PercentileTracker overall_;
};

}  // namespace hpcc::stats
