// Experiment harness: wires a topology, a CC scheme, workload generators and
// monitors into one runnable unit. The scenario runner (scenario_main, the
// paper-figure documents), bench_fig1 and the examples all build on this.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analytic/fluid_region.h"
#include "cc/factory.h"
#include "host/flow.h"
#include "net/handoff.h"
#include "net/switch_node.h"
#include "sim/simulator.h"
#include "stats/count_distribution.h"
#include "stats/fct_recorder.h"
#include "stats/pfc_monitor.h"
#include "stats/queue_monitor.h"
#include "stats/trace_hash.h"
#include "topo/fattree.h"
#include "topo/partition.h"
#include "topo/simple.h"
#include "topo/testbed.h"
#include "topo/topology.h"
#include "workload/flow_gen.h"
#include "workload/trace_replay.h"
#include "workload/traffic_source.h"

namespace hpcc::runner {

enum class TopologyKind { kFatTree, kTestbed, kStar, kDumbbell };

struct ExperimentConfig {
  TopologyKind topology = TopologyKind::kFatTree;
  topo::FatTreeOptions fattree;
  topo::TestbedOptions testbed;
  topo::StarOptions star;
  topo::DumbbellOptions dumbbell;

  cc::CcConfig cc;
  host::RecoveryMode recovery = host::RecoveryMode::kGoBackN;
  bool pfc_enabled = true;
  // Transmission-train forwarding fast path (net/port.h). Semantically
  // equivalent to the per-packet reference engine — the fastpath determinism
  // suite pins equal TraceHash and byte-identical CSVs — but executes far
  // fewer simulator events. Off = the reference engine, for A/B runs.
  bool fast_path = true;
  // INT sampling period (1 = every data packet, the paper's default).
  int int_sample_every = 1;
  // Optional WRED override (Fig. 3's threshold sweep); by default the scheme
  // picks its own (DCQCN/DCTCP defaults, disabled for HPCC/TIMELY).
  std::optional<net::RedConfig> red_override;

  // Background Poisson workload (disabled when load <= 0).
  double load = 0.0;
  std::string trace = "websearch";  // "websearch" | "fbhadoop"
  uint64_t max_flows = 0;
  // Incast add-on (Fig. 11a's "30% + incast").
  bool incast = false;
  workload::IncastOptions incast_opts;
  // Transport engine for background flows — the Poisson generator, trace
  // replay, and scenario load phases (incast bursts carry their own class in
  // incast_opts.flow_class). kFluid requires hybrid.enabled.
  workload::FlowClass flow_class = workload::FlowClass::kPacket;
  // Flow-trace replay source (workload/trace_replay.h); empty = none.
  std::string trace_file;
  // Hybrid fluid/packet co-simulation (analytic/fluid_region.h): fluid-class
  // flows run as per-RTT window trajectories coupled into the shared ports'
  // INT stamps. Requires shards == 1 and an INT-based CC scheme.
  struct HybridConfig {
    bool enabled = false;
    sim::TimePs tick = 0;  // fluid round period; 0 = one MaxBaseRtt
  };
  HybridConfig hybrid;

  sim::TimePs duration = sim::Ms(10);  // workload generation horizon
  // After `duration`, keep simulating until all flows finish, capped at
  // drain_factor * duration extra (0 = stop at duration).
  double drain_factor = 4.0;
  uint64_t seed = 1;
  // Intra-run parallelism: partition the fabric into this many lanes
  // (logical processes), each with its own event arena, synchronized
  // conservatively on cut-link propagation delay. Results are byte-identical
  // to shards=1 (the shard-equivalence suite pins TraceHash / CSV /
  // manifest equality); >1 requires every cut link to have positive delay.
  int shards = 1;

  // Warm-start sweeps: an immutable fabric snapshot exported by an
  // identically configured topology build (topo/snapshot.h). Switches adopt
  // its routing tables copy-on-write and Finalize skips the route BFS, so a
  // sweep pays the O(fabric) route build once instead of once per job.
  // Null = cold build. Never affects results — only setup cost.
  std::shared_ptr<const topo::FabricSnapshot> fabric_snapshot;

  sim::TimePs queue_sample_interval = sim::Us(10);
  sim::TimePs base_rtt_override = 0;  // 0 = measured MaxBaseRtt
  // Flows at or below this size feed the short-flow latency distribution
  // (the "95pct-latency" series of Fig. 2b/11b/11d).
  uint64_t short_flow_bytes = 3'000;
};

struct ExperimentResult {
  std::unique_ptr<stats::FctRecorder> fct;
  // Switch data-queue bytes sampled over (port, time), held as counts per
  // distinct occupancy: O(distinct values), not O(ports x ticks).
  stats::CountDistribution queue_dist;
  int64_t max_queue_bytes = 0;
  double pause_time_fraction = 0;        // of total port-time
  size_t pause_events = 0;
  stats::PercentileTracker pause_durations_us;
  stats::PercentileTracker short_fct_us;  // FCT of short flows, microseconds
  uint64_t dropped_packets = 0;
  // Per-check::DropReason breakdown; sums to dropped_packets.
  uint64_t dropped_by_reason[check::kNumDropReasons] = {};
  uint64_t dropped_bytes = 0;
  // Fast-path train rewinds across all ports (engine-dependent — zero on
  // the reference engine; telemetry quarantines it in "profile").
  uint64_t train_aborts = 0;
  // Packets the switches forwarded (admitted and enqueued toward an egress).
  // Unlike events_executed this is independent of the transmit engine, so it
  // is the work unit the macro benchmarks and scenario CSVs report.
  uint64_t packets_forwarded = 0;
  uint64_t flows_created = 0;
  uint64_t flows_completed = 0;
  // Flows abandoned by the transport give-up (HostConfig::max_retx
  // consecutive timeouts without forward progress). Disjoint from
  // flows_completed: created = completed + failed + still-running.
  uint64_t flows_failed = 0;
  // Real RTO expiries summed over every flow (see Flow::retx_timeouts).
  uint64_t retx_timeouts = 0;
  sim::TimePs sim_time = 0;
  uint64_t events_executed = 0;
  sim::TimePs base_rtt = 0;
  // Hybrid fluid-engine accounting (all zero on non-hybrid runs). Fluid
  // flows are additionally folded into flows_created / flows_completed and
  // the trace hash, so those totals stay engine-inclusive.
  uint64_t fluid_flows_created = 0;
  uint64_t fluid_flows_completed = 0;
  uint64_t fluid_ticks = 0;
  uint64_t fluid_coupled_links = 0;
  uint64_t fluid_delivered_bytes = 0;
  int64_t fluid_peak_queue_bytes = 0;
  // Order-independent digest of every flow's (id, endpoints, size, start,
  // finish, done) tuple — see stats/trace_hash.h. Two runs match iff their
  // hashes match; the determinism tests compare it across --jobs values.
  uint64_t trace_hash = 0;

  std::string Summary() const;
};

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);
  ~Experiment();

  // Manual flow injection (micro-benchmarks); returns the live Flow. Every
  // lane draws the flow id (one draw per lane keeps the counters aligned);
  // the lane owning `src` creates the flow. Call between runs only.
  host::Flow* AddFlow(uint32_t src, uint32_t dst, uint64_t bytes,
                      sim::TimePs start);
  // The engine-dispatch seam every TrafficSource sink funnels through. Each
  // lane's replicated source calls it with its own `lane` and identical
  // arguments in identical order: packet-class flows consume that lane's
  // next flow id and are created only by the lane owning `src`; fluid ones
  // go to the FluidRegion (hybrid runs are single-lane). Both consume the
  // same flow-id space, so packet and fluid flows interleave in one
  // creation order.
  void AddWorkloadFlow(workload::FlowClass flow_class, int lane, uint32_t src,
                       uint32_t dst, uint64_t bytes, sim::TimePs start);
  // RDMA READ (§4.2): `requester` pulls `bytes` from `responder`. The data
  // flow runs responder -> requester; its FCT starts at the request post
  // time, so it includes the request's propagation. Every lane draws the
  // flow id, like AddFlow; the responder's lane owns the flow and the
  // requester's lane posts the request.
  host::Flow* AddReadFlow(uint32_t requester, uint32_t responder,
                          uint64_t bytes, sim::TimePs start);

  // --- Traffic sources ------------------------------------------------------
  // The experiment owns every TrafficSource: the configured ones (enrolled
  // at construction, started by StartWorkload) and the ones an event script
  // installs, so warm capture/restore, its structural check and quiescence
  // accounting each cover every generator.
  //
  // Starts `source` on lane `lane` now and enrolls it. Start order is
  // schedule-seq order: give every lane one replica of each source, in the
  // same order. Call between runs only.
  void AddSource(int lane, std::unique_ptr<workload::TrafficSource> source);
  // The one Poisson-background builder: `load` of the per-host NIC capacity
  // over [start, end), flow sizes from config.trace, the config's flow class,
  // and config.max_flows as a cap on the whole background workload — every
  // background generator of a lane shares that lane's cap counter, whichever
  // phase it serves. Returned unstarted, emitting into lane `lane`.
  std::unique_ptr<workload::PoissonGenerator> MakeBackground(
      int lane, double load, sim::TimePs start, sim::TimePs end,
      uint64_t seed);
  // An incast generator emitting into lane `lane` (flows ride
  // `options.flow_class`). Returned unstarted.
  std::unique_ptr<workload::IncastGenerator> MakeIncast(
      int lane, const workload::IncastOptions& options);

  // Schedules a link_down/link_up script event (`at` >= now). Installs a
  // no-op mark in every lane, consuming exactly one tie-break seq there, and
  // records the event; the round loop runs each lane up to (excluding) its
  // mark and applies the event while every lane is parked, so it lands in
  // the same relative order as a plain scheduled event would.
  void InstallLinkEvent(sim::TimePs at, size_t link, bool up);

  // Runs generators + simulation, drains, and collects metrics:
  // StartWorkload + FinishRun.
  ExperimentResult Run();
  // The two halves of Run, split so the warm-start runner can pause between
  // them: StartWorkload starts the generators and the queue monitors;
  // FinishRun executes to the workload horizon, drains, and collects.
  void StartWorkload();
  ExperimentResult FinishRun();
  // Lower-level: run every lane to `until` without draining, applying the
  // link events due by then (micro benches drive this directly after
  // AddFlow).
  void RunUntil(sim::TimePs until);
  // Runs every lane up to `until`, excluding the events at `until` itself
  // (and leaving a link-script event due then unapplied): the instant a warm
  // checkpoint is taken at.
  void RunBefore(sim::TimePs until);
  // Merges every lane's stats (plus warm-restored and fluid flows) into one
  // result. Non-destructive: calling it again gives the same result.
  ExperimentResult Collect();

  // --- Warm checkpoint/restore (warm-start sweeps) -----------------------
  // A warm checkpoint captures the full mutable simulation state at a
  // *quiescent* instant T: every flow complete, every queue empty, no pause
  // open, no packet waiting in a cross-lane handoff channel, and no pending
  // event on any lane beyond the self-schedules of the sources, the
  // queue-monitor tick, and the marks of link-script events not yet applied
  // (all at >= T).
  // Restoring into a freshly built, identically configured experiment (same
  // lane count) then reproduces the checkpointing run's state exactly — same
  // RNG engines, counters, pending (time, seq) pairs on every lane — so the
  // continued run is byte-identical to one that simulated [0, T) itself.
  // Anything pending that this accounting can't explain (a CC timer, an
  // RTO) makes the instant non-quiescent and the caller falls back to a
  // cold run.

  // One completed pre-checkpoint flow, carried for TraceHash / flow-count
  // folding (the live Flow objects stay with the checkpointing experiment).
  struct WarmFlowRecord {
    uint64_t id = 0;
    uint32_t src = 0;
    uint32_t dst = 0;
    uint64_t size_bytes = 0;
    sim::TimePs start = 0;
    sim::TimePs finish = 0;
    bool done = false;
  };
  // One execution lane's share: its clock, counters, stats and sources.
  struct LaneWarmState {
    sim::TimePs now = 0;             // checkpoint time T
    uint64_t next_schedule_seq = 0;  // simulator tie-break counter at T
    uint64_t events_executed = 0;
    uint64_t next_flow_id = 1;
    std::vector<WarmFlowRecord> flows;  // the lane's flows, creation order
    std::unique_ptr<stats::FctRecorder> fct;
    stats::PercentileTracker short_fct_us;
    stats::QueueMonitor::WarmState queue;  // O(distinct occupancies)
    stats::PfcMonitor::WarmState pfc;
    // One slot per owned TrafficSource, enrollment order (the configured
    // Poisson, trace replay and incast, then the installed ones). Engaged
    // iff the source was captured (its first activity predates T); a source
    // whose schedule starts at or beyond T is left alone on restore — its
    // own install-time schedule already matches. The vector size doubles as
    // the structural echo restore validation checks.
    std::vector<std::optional<workload::GenWarmState>> sources;
    // The background max_flows cap counter (see MakeBackground).
    uint64_t background_flows = 0;
  };
  struct WarmState {
    std::vector<LaneWarmState> lanes;  // one per execution lane
    // Per-node state, whichever lane owns the node.
    std::vector<net::SwitchNode::WarmState> switches;  // switches() order
    std::vector<net::Port::WarmCounters> ports;  // node asc, then port asc
    std::vector<host::HostNode::WarmCounters> hosts;   // hosts() order
  };

  // True when the current instant satisfies the quiescence contract above.
  bool QuiescentForWarmCheckpoint();
  std::unique_ptr<WarmState> CaptureWarmState();
  // Restores every captured piece and jumps every lane's clock/counters to
  // T. Returns false, mutating nothing, when `w` does not structurally match
  // this experiment (lane, source, node/port/host counts, a regressed
  // clock) — the caller then runs cold. Call after the same installs and
  // StartWorkload the checkpointing run made, before any Run: the pre-T
  // self-schedules this experiment drew are cancelled and replaced by the
  // checkpoint's captured (time, seq) events.
  bool RestoreWarmState(const WarmState& w);

  // Lane 0's simulator: the canonical clock (every lane's agrees between
  // runs).
  sim::Simulator& simulator() { return *lanes_[0]->sim; }
  topo::Topology& topology() { return *topology_; }
  const ExperimentConfig& config() const { return config_; }
  const std::vector<uint32_t>& hosts() const { return hosts_; }
  sim::TimePs base_rtt() const { return base_rtt_; }
  uint64_t flows_completed() const;
  // The hybrid fluid engine (null unless config.hybrid.enabled).
  analytic::FluidRegion* fluid_region() { return fluid_.get(); }
  // Every live flow across all lanes, in id order (= creation order).
  std::vector<const host::Flow*> AllFlows() const;
  // Lane `lane`'s flows in creation order. Read only from that lane's own
  // events (or between runs): other lanes' threads mutate theirs.
  const std::vector<host::Flow*>& lane_flows(int lane) const {
    return lanes_[lane]->flow_ptrs;
  }
  // Every lane's pause log merged into the order one lane records it in:
  // by start, then the tie-break key of the arrival that opened the pause
  // (lane-invariant). Call after Collect, which closes open pauses.
  std::vector<stats::PfcMonitor::PauseEvent> PauseLog() const;

  // Execution lanes: shards() >= 1 of them, lane 0 backed by simulator().
  int shards() const { return static_cast<int>(lanes_.size()); }
  sim::Simulator& lane_simulator(int lane) { return *lanes_[lane]->sim; }
  // Node ids owned by `lane`, ascending.
  const std::vector<uint32_t>& lane_nodes(int lane) const {
    return lanes_[lane]->nodes;
  }
  const topo::Partition& partition() const { return partition_; }
  // Event-storm watchdog, fanned out to every lane simulator.
  void set_event_budget(uint64_t max_total_events);
  bool budget_exhausted() const;
  // Wall-clock watchdog (per-point sweep deadlines), fanned out to every
  // lane simulator. Affects only how far the run gets, never the event order
  // up to the stop — see sim::Simulator::set_wall_deadline.
  void set_wall_deadline(std::chrono::steady_clock::time_point deadline);
  bool deadline_exceeded() const;

 private:
  // One logical process: an event arena, the nodes it owns, and lane-local
  // replicas of every piece of per-run mutable state (stats, monitors,
  // generators, flow-id counter). Heap-allocated because monitors hand out
  // self-referential observers.
  struct Lane {
    std::unique_ptr<sim::Simulator> sim;
    std::vector<uint32_t> nodes;  // owned node ids, ascending
    // One inbound channel per incoming direction of a cut link.
    struct Inbound {
      std::unique_ptr<net::HandoffChannel> channel;
      net::Node* peer = nullptr;  // consumer-side node
      int peer_port = 0;
      uint32_t key = 0;  // producer link uid: (from_node << 8) | from_port
    };
    std::vector<Inbound> inbound;
    // Barrier marks, one per installed link-script event (install order).
    struct Mark {
      sim::TimePs at = 0;
      uint64_t seq = 0;
    };
    std::vector<Mark> marks;
    std::unique_ptr<stats::FctRecorder> fct;
    stats::PercentileTracker short_fct_us;
    std::unique_ptr<stats::QueueMonitor> queue_monitor;
    std::unique_ptr<stats::PfcMonitor> pfc;
    // Lane-replicated sources: the configured ones first (config_sources_
    // of them), then the installed ones, in enrollment order.
    std::vector<std::unique_ptr<workload::TrafficSource>> sources;
    uint64_t background_flows = 0;  // shared max_flows cap (MakeBackground)
    uint64_t next_flow_id = 1;
    std::vector<host::Flow*> flow_ptrs;  // lane-owned flows, creation order
    uint64_t flows_completed = 0;
    uint64_t flows_failed = 0;
  };
  // One recorded link-script event (applied between rounds).
  struct ScriptEvent {
    sim::TimePs at = 0;
    size_t link = 0;
    bool up = false;
  };

  void BuildTopology();
  // Partitions the fabric over the lanes and wires each lane's channels,
  // stats, flow-completion callbacks and sources.
  void SetupLanes();
  // Enrolls the configured TrafficSources (install order: Poisson, trace
  // replay, incast) emitting into lane `lane`; StartWorkload starts them.
  void MakeSources(int lane);
  // True when `w` structurally matches this experiment. Mutates nothing.
  bool ValidateWarmState(const WarmState& w);
  // Replicated flow injection: ALWAYS consumes lane `lane`'s next flow id,
  // but creates a live flow only when the lane owns `src` — returns nullptr
  // otherwise.
  host::Flow* AddFlowOnLane(int lane, uint32_t src, uint32_t dst,
                            uint64_t bytes, sim::TimePs start);
  // Builds the flow `spec` describes on lane `L` (its CC runs on the lane's
  // clock) and lists it among the lane's flows; the caller hands it to the
  // source host.
  std::unique_ptr<host::Flow> NewFlow(Lane& L, const host::FlowSpec& spec);
  // Admits a fluid-class flow (consumes lane 0's next flow id; hybrid runs
  // are single-lane).
  void AddFluidFlow(uint32_t src, uint32_t dst, uint64_t bytes,
                    sim::TimePs start);
  void StartQueueMonitors();
  // True once every flow has completed or failed and no fluid flow is live.
  bool Settled() const;
  // The round loop: runs every lane to `until` in conservative rounds
  // bounded by the cut-link lookahead and the next link-script mark,
  // applying each mark's event between rounds. Lanes > 0 run on worker
  // threads; lane 0 runs on the caller's. `inclusive` = false stops short
  // of the events (and link-script events) at `until` itself.
  void RunLanes(sim::TimePs until, bool inclusive = true);
  // Reschedules every pending inbound record with arrival <= horizon onto
  // the lane's own simulator, under the producer's arrival tie-break key.
  void DrainInbound(Lane& lane, sim::TimePs horizon);
  net::SwitchConfig MakeSwitchConfig() const;
  std::unique_ptr<stats::FctRecorder> MakeFctRecorder() const;
  static void SortResultDistributions(ExperimentResult& r);

  ExperimentConfig config_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // config.shards of them
  // Leading entries of every lane's `sources` that StartWorkload starts.
  size_t config_sources_ = 0;
  std::unique_ptr<topo::Topology> topology_;
  std::vector<uint32_t> hosts_;
  sim::TimePs base_rtt_ = 0;

  // Pre-checkpoint flows adopted by RestoreWarmState; Collect folds them
  // into flows_created/completed and the trace hash. Empty on cold runs.
  std::vector<WarmFlowRecord> warm_flows_;
  bool queue_monitor_started_ = false;
  // Parsed once, shared across replicated lane sources.
  std::shared_ptr<const std::vector<workload::TraceRecord>> trace_records_;
  std::unique_ptr<analytic::FluidRegion> fluid_;
  int total_ports_ = 0;

  topo::Partition partition_;
  std::vector<ScriptEvent> script_;  // install order
  // Install indices of script_ by (time, install order); entries before
  // script_next_ have been applied.
  std::vector<size_t> script_order_;
  size_t script_next_ = 0;
};

}  // namespace hpcc::runner
