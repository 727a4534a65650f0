// Periodic sampling of switch egress queue depths (the queue-length CDFs of
// Fig. 9f/10b/10d; the time series of Figs. 6/9/13b/14b are telemetry's
// declared series, obs/telemetry.h).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "stats/count_distribution.h"

namespace hpcc::topo {
class Topology;
}

namespace hpcc::stats {

// Samples every data-priority egress queue of every switch in the topology
// at a fixed interval; accumulates the distribution over (port, time). A
// sample is one count bump, and the distribution holds one entry per
// distinct occupancy, so its size (and the warm checkpoint's copy of it)
// does not grow with ports x ticks.
class QueueMonitor {
 public:
  QueueMonitor(sim::Simulator* simulator, topo::Topology* topology,
               sim::TimePs interval);

  void Start(sim::TimePs until);
  // Shard-local sampling: restrict to these switches (default: every switch
  // in the topology). Set before Start.
  void set_switches(std::vector<uint32_t> switches) {
    switches_ = std::move(switches);
    use_subset_ = true;
  }
  // Folds a shard-local monitor in: the per-tick sample multiset over all
  // shards equals the one-lane one, and counts add in any order.
  void Merge(const QueueMonitor& other) {
    dist_.Merge(other.dist_);
    max_seen_ = max_seen_ > other.max_seen_ ? max_seen_ : other.max_seen_;
  }
  const CountDistribution& distribution() const { return dist_; }
  int64_t max_seen_bytes() const { return max_seen_; }

  // --- Warm checkpoint/restore (runner/experiment.h) ---------------------
  // Checkpointed sampler state: the accumulated distribution plus the one
  // pending tick with its original (time, seq) key, so the restored sampling
  // cadence is event-for-event identical to the checkpointing run's.
  struct WarmState {
    CountDistribution dist;
    int64_t max_seen = 0;
    sim::TimePs until = 0;
    bool tick_pending = false;
    sim::TimePs tick_at = 0;
    uint64_t tick_seq = 0;
  };
  bool tick_pending() const { return tick_pending_; }
  WarmState CaptureWarm() const;
  // Cancels this monitor's own pending tick and replays the captured one.
  // The monitor must already be Start()ed (so the cold and warm runs drew
  // the same install-time seq).
  void RestoreWarm(const WarmState& w);

 private:
  void Sample();
  void ScheduleTick(sim::TimePs at);

  sim::Simulator* simulator_;
  topo::Topology* topology_;
  sim::TimePs interval_;
  sim::TimePs until_ = 0;
  std::vector<uint32_t> switches_;
  bool use_subset_ = false;
  CountDistribution dist_;
  int64_t max_seen_ = 0;
  bool tick_pending_ = false;
  sim::TimePs tick_at_ = 0;
  uint64_t tick_seq_ = 0;
  sim::EventId tick_event_ = sim::kInvalidEvent;
};

}  // namespace hpcc::stats
