// Unified telemetry layer: counters, flight-recorder tracks and samplers.
//
// Everything here rides the existing check::NetHooks observation points —
// the hot path gains no new branches when telemetry is off (the per-node
// hook pointer stays null; micro/telemetry_overhead in tools/bench_report
// pins this). The layer splits into:
//
//   TelemetryConfig    scenario "telemetry" block / CLI overrides
//   TelemetryRecorder  an InvariantMonitor that only counts (never reports)
//   TelemetrySession   owns the recorder + periodic samplers for one run:
//                      the trace's tracks and the declared "series" readout
//
// Determinism contract (tested by tests/telemetry_test.cc): everything the
// recorder and samplers collect — counter totals, sampled queue depths and
// flow rates, INT echoes — is identical across --jobs, --shards and
// --fastpath=on/off.
// Counter totals are order-independent sums over the same packet stream;
// sampled tracks read state (queue_bytes, snd_una) at fixed sim times, and
// that state is already pinned engine-equal by the byte-identical CSV
// contract. Engine-dependent data (events executed, train aborts, wall
// clock) is quarantined in the opt-in manifest "profile" section.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariant.h"
#include "sim/time.h"
#include "stats/timeseries.h"

namespace hpcc::host {
class Flow;
}
namespace hpcc::runner {
class Experiment;
}

namespace hpcc::obs {

// Short stable token for a drop reason ("no_route", ...): manifest keys and
// CSV column suffixes.
const char* DropReasonToken(check::DropReason reason);

// "telemetry.series": time series a scenario declares for its manifest
// readout (docs/OBSERVABILITY.md). Every queue and flow is sampled at every
// tick — queues every TelemetryConfig::queue_sample_us, flows every
// flow_sample_us — so the series line up and each declared window
// summarizes the same ticks across them.
struct SeriesConfig {
  // Data-priority egress queues, by Topology::links() index (the index
  // link_down events use): the queue the link's `b` end transmits into
  // toward `a` — on every builder's host access link, the switch port
  // toward the host.
  std::vector<size_t> queues;
  // Goodput of the first `flows` flows in creation order (0 before a flow
  // exists), plus their per-tick sum.
  int flows = 0;
  // Readout windows: each summarizes the samples taken in (from, to].
  struct Window {
    sim::TimePs from = 0;
    sim::TimePs to = 0;
    bool operator==(const Window&) const = default;
  };
  std::vector<Window> windows;

  bool empty() const { return queues.empty() && flows == 0; }
  bool operator==(const SeriesConfig&) const = default;
};

// Scenario "telemetry" block (see docs/SCENARIO_FORMAT.md). Defaults are
// chosen so that `--trace-out=FILE` alone produces a useful trace: flow
// spans, scenario events, PFC windows, the 8 busiest queue tracks and the
// first 8 flow-rate tracks.
struct TelemetryConfig {
  bool manifest = false;  // write <out>.manifest.json per run
  bool trace = false;     // write a Chrome-trace-event / Perfetto JSON
  // Include engine-dependent extras (events executed, train aborts, wall
  // clock) in the manifest "profile" section. Off by default because it
  // breaks byte-identity across --fastpath on/off.
  bool profile = false;

  // Queue-depth counter tracks: the `queue_tracks` busiest data-priority
  // egress queues (by peak depth), sampled every `queue_sample_us` (as are
  // the declared queue series), each capped at `queue_track_points`
  // (stride-doubling downsample beyond).
  int queue_tracks = 8;
  int queue_track_points = 256;
  double queue_sample_us = 10.0;

  // Per-flow rate tracks (acked bytes per interval) for the first
  // `flow_tracks` flows by creation order, sampled every `flow_sample_us`
  // (as are the declared flow series).
  int flow_tracks = 8;
  int flow_track_points = 512;
  double flow_sample_us = 10.0;

  // INT flight recorder: per-flow max qLen / max hop-utilization tracks
  // rebuilt from echoed IntStacks for flow ids 1..int_tracks. Off by
  // default — only meaningful for INT-carrying schemes.
  int int_tracks = 0;
  int int_track_points = 512;

  // Declared series for the manifest readout (empty = none).
  SeriesConfig series;

  bool enabled() const { return manifest || trace; }
  bool operator==(const TelemetryConfig&) const = default;
};

// Order-independent totals accumulated from the hook stream.
struct TelemetryCounters {
  uint64_t enqueued_packets = 0;
  uint64_t enqueued_bytes = 0;
  uint64_t dequeued_packets = 0;
  uint64_t dequeued_bytes = 0;
  uint64_t drops_by_reason[check::kNumDropReasons] = {};
  uint64_t pause_on = 0;   // pause transitions (off -> paused)
  uint64_t pause_off = 0;  // resume transitions
  uint64_t cc_updates = 0;
  uint64_t int_echoes = 0;
};

// One bounded sampled track, labeled for trace export.
struct TelemetryTrack {
  std::string name;        // e.g. "q sw17 p3" or "flow 4"
  std::string unit;        // "kB", "Gbps", ...
  stats::TimeSeries series;
};

// A monitor that only counts. Never files violations, so it is safe to run
// without --check; the registry fan-out gives it the same hook stream the
// invariant monitors see.
class TelemetryRecorder final : public check::InvariantMonitor {
 public:
  explicit TelemetryRecorder(const TelemetryConfig& cfg);

  std::string name() const override { return "telemetry"; }
  unsigned interests() const override;

  void OnEnqueue(uint32_t node, int port, const net::Packet& pkt,
                 int64_t queue_bytes_after) override;
  void OnDequeue(uint32_t node, int port, const net::Packet& pkt,
                 int64_t queue_bytes_after) override;
  void OnDequeueBurst(uint32_t node, int port, const check::DequeueRecord* recs,
                      size_t n) override;
  void OnDrop(uint32_t node, const net::Packet& pkt,
              check::DropReason reason) override;
  void OnPauseChange(uint32_t node, int port, int priority, bool paused,
                     sim::TimePs now) override;
  void OnCcUpdate(uint64_t flow_id, int64_t window_bytes, int64_t rate_bps,
                  sim::TimePs now) override;
  void OnIntEcho(uint64_t flow_id, const core::IntStack& stack,
                 sim::TimePs now) override;

  const TelemetryCounters& counters() const { return counters_; }
  // Warm restore: seeds the totals with a checkpoint's counter baseline so
  // the hook stream observed after the restore adds onto the pre-checkpoint
  // traffic's contribution.
  void set_counters(const TelemetryCounters& c) { counters_ = c; }
  // INT flight-recorder tracks (empty unless trace && int_tracks > 0).
  const std::vector<TelemetryTrack>& int_qlen_tracks() const {
    return int_qlen_;
  }
  const std::vector<TelemetryTrack>& int_util_tracks() const {
    return int_util_;
  }

 private:
  // Per-(tracked flow, hop) last INT sample, for tx-byte-delta utilization.
  struct HopState {
    sim::TimePs ts = -1;
    uint64_t tx_bytes = 0;
  };

  TelemetryConfig cfg_;
  TelemetryCounters counters_;
  std::vector<TelemetryTrack> int_qlen_;
  std::vector<TelemetryTrack> int_util_;
  std::vector<HopState> hop_state_;  // int_tracks * core::kMaxIntHops
};

// Owns the telemetry machinery for one experiment run: adds a
// TelemetryRecorder to each lane's registry (which owns it) and, when the
// trace's tracks or declared series are requested, schedules fixed-interval
// samplers for queue depth and per-flow rate. Samplers are read-only: a run
// with telemetry on produces the exact CSV a run with telemetry off does.
//
// Lanes: every lane ticks each sampler on its own simulator at the same sim
// times and samples only the probes it owns — a queue by its node's lane, a
// flow by its source host's lane — so no tick reads another lane's state.
// The readouts merge the lanes by order-independent keys (queue node/port,
// flow creation ordinal, INT flow id); the dense flow aggregate is summed at
// readout in flow order, the order one lane sums it in. What a tick reads
// (switch queue depth, a flow's snd_una) changes only in boundary and
// arrival events, which run before any same-time sampler tick, so every
// lane count samples the same values.
class TelemetrySession {
 public:
  TelemetrySession(const TelemetryConfig& cfg, check::MonitorRegistry* registry,
                   runner::Experiment* experiment);
  // Lane variant: one recorder per lane registry. Counter totals are summed
  // over the lanes by counters().
  TelemetrySession(const TelemetryConfig& cfg,
                   const std::vector<check::MonitorRegistry*>& registries,
                   runner::Experiment* experiment);

  // Schedules the samplers (must be called before Experiment::Run). Sampling
  // covers [0, duration * (1 + drain_factor)]. Throws std::invalid_argument
  // on a declared queue link the topology does not have.
  void Start();

  const TelemetryConfig& config() const { return cfg_; }
  const TelemetryRecorder& recorder() const { return *recorder_; }
  // Counter totals over every lane recorder (== recorder().counters() on a
  // single-registry session). Plain sums, so the aggregate is byte-equal to
  // the one-lane totals whatever the shard count.
  TelemetryCounters counters() const;
  // Warm restore: seeds the first recorder with the checkpoint's counter
  // baseline (the lane totals sum, so one lane carries it).
  void RestoreCounters(const TelemetryCounters& c) {
    recorder_->set_counters(c);
  }

  // The `queue_tracks` busiest sampled queues (peak depth desc, then node,
  // port asc); empty tracks (never above zero) are skipped.
  std::vector<TelemetryTrack> TopQueueTracks() const;
  // The trace's rate tracks: one per adopted flow, the first `flow_tracks`
  // in creation order.
  std::vector<TelemetryTrack> FlowTracks() const;
  // The INT flight-recorder tracks (flow ids 1..int_tracks), each taken
  // from the lane that echoed its flow's INT stacks.
  std::vector<TelemetryTrack> IntQlenTracks() const;
  std::vector<TelemetryTrack> IntUtilTracks() const;

  // The declared series (telemetry.series) as sampled: one per declared
  // queue link (kB), one per tracked flow (Gbps), and the flows' per-tick
  // sum. Empty when no series is declared.
  std::vector<stats::TimeSeries> SeriesQueues() const;
  std::vector<stats::TimeSeries> SeriesFlows() const;
  stats::TimeSeries SeriesAggregate() const;

 private:
  // Each probe is written only by the lane that owns it.
  struct QueueProbe {
    uint32_t node = 0;
    int port = 0;
    int64_t max_bytes = 0;
    stats::TimeSeries series;  // kB
  };
  struct FlowProbe {
    uint64_t flow_id = 0;  // 0 until the flow exists
    bool adopted = false;
    uint64_t last_acked = 0;
    stats::TimeSeries series;  // sparse: Gbps
    std::vector<double> gbps;  // dense: Gbps per tick, up to the last sampled
  };
  // One lane's share of a sampler.
  struct LaneProbes {
    std::vector<size_t> queues;  // indices of the lane's queue probes
    size_t scanned = 0;          // lane flows already matched to a probe
    std::vector<std::pair<size_t, const host::Flow*>> flows;  // (probe, flow)
    size_t ticks = 0;
  };
  // One fixed-interval sampling schedule. The trace's tracks and the
  // declared series run the same Tick and differ only in `dense`: a dense
  // sampler records every probe at every tick (reading 0 for a flow not
  // created yet), so the series line up; a sparse one keeps idle queues and
  // flows before their first byte or after completion out of the trace.
  struct Sampler {
    sim::TimePs interval = 0;
    bool dense = false;
    std::vector<QueueProbe> queues;
    // Probes for the first `max_flows` packet flows in creation order,
    // adopted by the owning lane as the flows appear.
    size_t max_flows = 0;
    size_t flow_points = 0;  // per-track cap of sparse tracks
    std::vector<FlowProbe> flows;
    std::vector<LaneProbes> lanes;
    std::vector<sim::TimePs> tick_times;  // dense flows: lane 0's ticks
  };

  // Sizes `s` for `max_flows` probes, assigns the queue probes to their
  // lanes and schedules the first tick on every lane.
  void Arm(Sampler* s);
  void Schedule(Sampler* s, int lane);
  void Tick(Sampler* s, int lane);
  // A packet flow's place in creation order: ids count packet and fluid
  // flows alike (fluid ones exist only on single-lane hybrid runs).
  size_t PacketOrdinal(uint64_t flow_id) const;
  std::vector<TelemetryTrack> MergedIntTracks(
      const std::vector<TelemetryTrack>& (TelemetryRecorder::*tracks)()
          const) const;

  TelemetryConfig cfg_;
  runner::Experiment* experiment_;
  TelemetryRecorder* recorder_;  // owned by the (first) registry
  std::vector<TelemetryRecorder*> recorders_;  // one per lane registry
  sim::TimePs until_ = 0;
  Sampler trace_queues_;   // every switch port's data-priority queue
  Sampler trace_flows_;
  Sampler series_queues_;  // the declared series
  Sampler series_flows_;
};

}  // namespace hpcc::obs
