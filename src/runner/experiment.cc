#include "runner/experiment.h"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/hash.h"

namespace hpcc::runner {

net::SwitchConfig Experiment::MakeSwitchConfig() const {
  net::SwitchConfig sw;
  sw.fast_path = config_.fast_path;
  sw.pfc_enabled = config_.pfc_enabled;
  sw.int_enabled = cc::SchemeUsesInt(config_.cc.scheme);
  sw.int_wire_format = config_.cc.hpcc.wire_format;
  sw.rcp_enabled = cc::SchemeUsesRcp(config_.cc.scheme);
  if (config_.red_override.has_value()) {
    sw.red = *config_.red_override;
  } else if (config_.cc.scheme == "dctcp") {
    sw.red = net::RedConfig::Dctcp();
  } else if (cc::SchemeUsesEcn(config_.cc.scheme)) {
    sw.red = net::RedConfig::Dcqcn();
  }
  return sw;
}

void Experiment::BuildTopology() {
  const net::SwitchConfig sw = MakeSwitchConfig();
  // Built quiescent on lane 0's arena; SetupLanes re-homes other lanes' nodes.
  sim::Simulator* sim = lanes_[0]->sim.get();
  host::HostConfig hc;
  hc.int_sample_every = config_.int_sample_every;
  hc.fast_path = config_.fast_path;
  switch (config_.topology) {
    case TopologyKind::kFatTree: {
      topo::FatTreeOptions o = config_.fattree;
      o.sw = sw;
      o.host = hc;
      auto built = topo::MakeFatTree(sim, o, config_.fabric_snapshot);
      topology_ = std::move(built.topo);
      hosts_ = built.host_ids;
      break;
    }
    case TopologyKind::kTestbed: {
      topo::TestbedOptions o = config_.testbed;
      o.sw = sw;
      o.host = hc;
      auto built = topo::MakeTestbed(sim, o, config_.fabric_snapshot);
      topology_ = std::move(built.topo);
      hosts_ = built.host_ids;
      break;
    }
    case TopologyKind::kStar: {
      topo::StarOptions o = config_.star;
      o.sw = sw;
      o.host = hc;
      auto built = topo::MakeStar(sim, o, config_.fabric_snapshot);
      topology_ = std::move(built.topo);
      hosts_ = built.host_ids;
      break;
    }
    case TopologyKind::kDumbbell: {
      topo::DumbbellOptions o = config_.dumbbell;
      o.sw = sw;
      o.host = hc;
      auto built = topo::MakeDumbbell(sim, o, config_.fabric_snapshot);
      topology_ = std::move(built.topo);
      hosts_ = built.left_hosts;
      hosts_.insert(hosts_.end(), built.right_hosts.begin(),
                    built.right_hosts.end());
      break;
    }
  }
}

std::unique_ptr<stats::FctRecorder> Experiment::MakeFctRecorder() const {
  return std::make_unique<stats::FctRecorder>(
      config_.trace == "fbhadoop" ? stats::FctRecorder::FbHadoopBins()
                                  : stats::FctRecorder::WebSearchBins());
}

Experiment::Experiment(const ExperimentConfig& config) : config_(config) {
  if (config_.shards < 1) {
    throw std::invalid_argument("shards must be >= 1");
  }
  if (config_.hybrid.enabled) {
    if (config_.shards > 1) {
      throw std::invalid_argument(
          "hybrid fluid/packet co-simulation requires shards=1");
    }
    if (!cc::SchemeUsesInt(config_.cc.scheme)) {
      throw std::invalid_argument(
          "hybrid fluid coupling needs an INT-carrying CC scheme");
    }
  } else if (config_.flow_class == workload::FlowClass::kFluid ||
             (config_.incast &&
              config_.incast_opts.flow_class == workload::FlowClass::kFluid)) {
    throw std::invalid_argument(
        "flow_class=fluid requires the hybrid engine (hybrid.enabled)");
  }
  if (!config_.trace_file.empty()) {
    // Parse once; lanes share the parsed records by pointer.
    trace_records_ =
        std::make_shared<const std::vector<workload::TraceRecord>>(
            workload::LoadFlowTrace(config_.trace_file));
  }
  lanes_.reserve(static_cast<size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
    lanes_.back()->sim = std::make_unique<sim::Simulator>();
  }
  BuildTopology();
  base_rtt_ = config_.base_rtt_override > 0 ? config_.base_rtt_override
                                            : topology_->MaxBaseRtt();
  if (cc::SchemeUsesRcp(config_.cc.scheme)) {
    for (uint32_t s : topology_->switches()) {
      topology_->switch_node(s).set_rcp_rtt(base_rtt_);
    }
  }

  if (config_.hybrid.enabled) {
    analytic::FluidRegionParams fp;
    fp.tick = config_.hybrid.tick > 0 ? config_.hybrid.tick : base_rtt_;
    // The fluid per-RTT map runs the packet flows' HPCC constants. W_AI
    // follows only an explicit value; the derived default (wai_bytes <= 0)
    // keeps the map's own.
    fp.eta = config_.cc.hpcc.eta;
    fp.max_stage = config_.cc.hpcc.max_stage;
    if (config_.cc.hpcc.wai_bytes > 0) fp.wai_bytes = config_.cc.hpcc.wai_bytes;
    // Projected fluid qLen is clamped to the same buffer bound the
    // IntSanityMonitor enforces on real queues.
    fp.qlen_cap_bytes = MakeSwitchConfig().buffer_bytes;
    fluid_ = std::make_unique<analytic::FluidRegion>(&simulator(),
                                                     topology_.get(), fp);
    Lane* lane = lanes_[0].get();
    fluid_->set_completion_callback(
        [this, lane](const analytic::FluidRegion::FlowRecord& rec,
                     sim::TimePs now) {
          lane->fct->Record(rec.size_bytes, now - rec.start,
                            topology_->IdealFct(rec.src, rec.dst,
                                                rec.size_bytes));
          if (rec.size_bytes <= config_.short_flow_bytes) {
            lane->short_fct_us.Add(sim::ToUs(now - rec.start));
          }
        });
  }
  SetupLanes();
}

void Experiment::MakeSources(int lane) {
  // Install order is a determinism contract: Poisson, trace replay, incast.
  // Warm checkpoints, lane replicas and StartWorkload all rely on it.
  std::vector<std::unique_ptr<workload::TrafficSource>>& out =
      lanes_[lane]->sources;
  if (config_.load > 0) {
    out.push_back(
        MakeBackground(lane, config_.load, 0, config_.duration, config_.seed));
  }
  if (trace_records_ != nullptr) {
    // Trace src/dst are indices into hosts() (stable across topologies);
    // translate to node ids here.
    workload::FlowSink sink = [this, lane](uint32_t src, uint32_t dst,
                                           uint64_t size, sim::TimePs start) {
      if (src >= hosts_.size() || dst >= hosts_.size()) {
        throw std::out_of_range("trace_file host index out of range");
      }
      AddWorkloadFlow(config_.flow_class, lane, hosts_[src], hosts_[dst], size,
                      start);
    };
    out.push_back(std::make_unique<workload::TraceReplaySource>(
        lanes_[lane]->sim.get(), trace_records_, sink));
  }
  if (config_.incast) {
    workload::IncastOptions io = config_.incast_opts;
    io.end = io.end == 0 ? config_.duration : io.end;
    io.seed = core::DeriveSeed(config_.seed, 7);
    out.push_back(MakeIncast(lane, io));
  }
  config_sources_ = out.size();
}

std::unique_ptr<workload::PoissonGenerator> Experiment::MakeBackground(
    int lane, double load, sim::TimePs start, sim::TimePs end,
    uint64_t seed) {
  workload::PoissonOptions po;
  po.load = load;
  // Per-host capacity counts all NIC ports (testbed hosts are dual-homed).
  const host::HostNode& h0 = topology_->host(hosts_.front());
  po.host_bps = 0;
  for (int p = 0; p < h0.num_ports(); ++p) {
    po.host_bps += h0.port(p).bandwidth_bps();
  }
  po.start = start;
  po.end = std::min(end, config_.duration);
  // Per-generator bound; the sink enforces the cap across generators.
  // Every lane replays the same draws, so the lane counters advance in
  // lockstep and the cap cuts at the same flow in every lane.
  po.max_flows = config_.max_flows;
  po.seed = seed;
  Lane* L = lanes_[lane].get();
  workload::FlowSink sink = [this, lane, L](uint32_t src, uint32_t dst,
                                            uint64_t size, sim::TimePs at) {
    if (config_.max_flows > 0 && L->background_flows >= config_.max_flows) {
      return;
    }
    ++L->background_flows;
    AddWorkloadFlow(config_.flow_class, lane, src, dst, size, at);
  };
  return std::make_unique<workload::PoissonGenerator>(
      L->sim.get(), hosts_,
      config_.trace == "fbhadoop" ? workload::SizeCdf::FbHadoop()
                                  : workload::SizeCdf::WebSearch(),
      po, std::move(sink));
}

std::unique_ptr<workload::IncastGenerator> Experiment::MakeIncast(
    int lane, const workload::IncastOptions& options) {
  const workload::FlowClass fc = options.flow_class;
  workload::FlowSink sink = [this, lane, fc](uint32_t src, uint32_t dst,
                                             uint64_t size, sim::TimePs at) {
    AddWorkloadFlow(fc, lane, src, dst, size, at);
  };
  return std::make_unique<workload::IncastGenerator>(
      lanes_[lane]->sim.get(), hosts_, options, std::move(sink));
}

void Experiment::AddSource(int lane,
                           std::unique_ptr<workload::TrafficSource> source) {
  source->Start();
  lanes_[lane]->sources.push_back(std::move(source));
}

Experiment::~Experiment() = default;

void Experiment::SetupLanes() {
  const int n = shards();
  std::vector<int> lane_of =
      config_.topology == TopologyKind::kFatTree
          ? topo::FatTreeLanes(config_.fattree, n)
          : topo::ContiguousLanes(topology_->num_nodes(), n);
  partition_ = topo::MakePartition(*topology_, std::move(lane_of), n);
  for (const topo::CutLink& c : partition_.cut_links) {
    if (c.delay <= 0) {
      throw std::invalid_argument(
          "sharded run needs a positive delay on every cut link");
    }
  }
  total_ports_ = 0;
  for (uint32_t id = 0; id < topology_->num_nodes(); ++id) {
    total_ports_ += topology_->node(id).num_ports();
    const int li = partition_.lane_of_node[id];
    lanes_[li]->nodes.push_back(id);
    // Re-home every node (and its ports) onto its lane's event arena. The
    // topology was built quiescent on lane 0's simulator, so this is a plain
    // pointer swap.
    if (li != 0) topology_->node(id).set_simulator(lanes_[li]->sim.get());
  }
  // Each direction of a cut link becomes an SPSC channel owned by the
  // consumer lane; the producer port commits arrivals into it instead of its
  // own arena.
  for (const topo::CutLink& c : partition_.cut_links) {
    Lane::Inbound in;
    in.channel = std::make_unique<net::HandoffChannel>();
    in.peer = &topology_->node(c.to_node);
    in.peer_port = c.to_port;
    in.key = (c.from_node << 8) | static_cast<uint32_t>(c.from_port);
    topology_->node(c.from_node).port(c.from_port).set_handoff(
        in.channel.get());
    lanes_[c.to_lane]->inbound.push_back(std::move(in));
  }

  for (int i = 0; i < n; ++i) {
    Lane& lane = *lanes_[i];
    lane.fct = MakeFctRecorder();
    lane.pfc = std::make_unique<stats::PfcMonitor>();
    lane.pfc->set_clock(lane.sim.get());
    lane.pfc->AttachTo(*topology_, lane.nodes);
    lane.queue_monitor = std::make_unique<stats::QueueMonitor>(
        lane.sim.get(), topology_.get(), config_.queue_sample_interval);
    lane.queue_monitor->set_switches(partition_.lane_switches[i]);
  }
  // Flow completion wiring: every host reports into its owning lane's
  // recorder (IdealFct is a const query with local search state, so
  // concurrent lane callbacks are safe).
  for (uint32_t h : hosts_) {
    Lane* lane = lanes_[partition_.lane_of_node[h]].get();
    topology_->host(h).set_flow_done_callback(
        [this, lane](const host::Flow& f, sim::TimePs now) {
          if (f.failed) {
            // Give-up: the flow never delivered, so it must not feed the FCT
            // distributions — only the failure count.
            ++lane->flows_failed;
            return;
          }
          ++lane->flows_completed;
          const auto& s = f.spec();
          lane->fct->Record(s.size_bytes, now - s.start_time,
                            topology_->IdealFct(s.src, s.dst, s.size_bytes));
          if (s.size_bytes <= config_.short_flow_bytes) {
            lane->short_fct_us.Add(sim::ToUs(now - s.start_time));
          }
        });
  }
  // Replicated sources: every lane draws the full workload with the same
  // seeds over ALL hosts; AddFlowOnLane keeps only the flows the lane owns,
  // while phantom draws still consume the lane's flow-id counter, so ids
  // follow one global creation order whatever the lane count.
  for (int i = 0; i < n; ++i) MakeSources(i);
}

host::Flow* Experiment::AddFlow(uint32_t src, uint32_t dst, uint64_t bytes,
                                sim::TimePs start) {
  // Exactly one lane owns `src` and returns the live flow.
  host::Flow* out = nullptr;
  for (int i = 0; i < shards(); ++i) {
    host::Flow* f = AddFlowOnLane(i, src, dst, bytes, start);
    if (f != nullptr) out = f;
  }
  return out;
}

host::Flow* Experiment::AddFlowOnLane(int lane, uint32_t src, uint32_t dst,
                                      uint64_t bytes, sim::TimePs start) {
  if (src == dst) throw std::invalid_argument("flow src == dst");
  Lane& L = *lanes_[lane];
  const uint64_t id = L.next_flow_id++;  // consumed whether owned or not
  if (partition_.lane_of_node[src] != lane) return nullptr;

  host::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = dst;
  spec.size_bytes = bytes;
  spec.start_time = start;
  std::unique_ptr<host::Flow> flow = NewFlow(L, spec);
  host::Flow* raw = flow.get();
  topology_->host(src).AddFlow(std::move(flow));
  return raw;
}

std::unique_ptr<host::Flow> Experiment::NewFlow(Lane& L,
                                                const host::FlowSpec& spec) {
  const host::HostNode& h = topology_->host(spec.src);
  cc::CcContext ctx;
  ctx.nic_bps = h.port(0).bandwidth_bps();
  ctx.base_rtt = base_rtt_;
  ctx.mtu_bytes = h.config().mtu_bytes;
  ctx.simulator = L.sim.get();
  auto flow = std::make_unique<host::Flow>(spec, cc::MakeCc(config_.cc, ctx),
                                           config_.recovery);
  L.flow_ptrs.push_back(flow.get());
  return flow;
}

void Experiment::AddWorkloadFlow(workload::FlowClass flow_class, int lane,
                                 uint32_t src, uint32_t dst, uint64_t bytes,
                                 sim::TimePs start) {
  if (flow_class == workload::FlowClass::kFluid) {
    AddFluidFlow(src, dst, bytes, start);
    return;
  }
  AddFlowOnLane(lane, src, dst, bytes, start);
}

void Experiment::AddFluidFlow(uint32_t src, uint32_t dst, uint64_t bytes,
                              sim::TimePs start) {
  if (fluid_ == nullptr) {
    throw std::logic_error("fluid flow without hybrid.enabled");
  }
  // Same id space as packet flows (hybrid runs are single-lane), so packet
  // and fluid flows interleave in one creation order and the trace hash
  // stays total.
  const uint64_t id = lanes_[0]->next_flow_id++;
  fluid_->AddFlow(id, src, dst, bytes, start);
}

void Experiment::InstallLinkEvent(sim::TimePs at, size_t link, bool up) {
  if (link >= topology_->links().size()) {
    throw std::invalid_argument("link event index out of range");
  }
  for (auto& lp : lanes_) {
    Lane& lane = *lp;
    const uint64_t seq = lane.sim->next_schedule_seq();
    lane.sim->ScheduleAt(at, [] {});
    lane.marks.push_back({at, seq});
  }
  // Pending events stay sorted by (time, install order).
  const auto pos = std::upper_bound(
      script_order_.begin() + static_cast<std::ptrdiff_t>(script_next_),
      script_order_.end(), at,
      [this](sim::TimePs t, size_t i) { return t < script_[i].at; });
  script_order_.insert(pos, script_.size());
  script_.push_back({at, link, up});
}

host::Flow* Experiment::AddReadFlow(uint32_t requester, uint32_t responder,
                                    uint64_t bytes, sim::TimePs start) {
  if (requester == responder) {
    throw std::invalid_argument("read requester == responder");
  }
  host::FlowSpec spec;
  spec.src = responder;  // data flows responder -> requester
  spec.dst = requester;
  spec.size_bytes = bytes;
  spec.start_time = start;
  host::Flow* out = nullptr;
  for (int i = 0; i < shards(); ++i) {
    Lane& L = *lanes_[i];
    spec.id = L.next_flow_id++;  // consumed whether owned or not
    if (partition_.lane_of_node[responder] == i) {
      std::unique_ptr<host::Flow> flow = NewFlow(L, spec);
      out = flow.get();
      topology_->host(responder).AddPendingFlow(std::move(flow));
    }
    if (partition_.lane_of_node[requester] == i) {
      const uint64_t id = spec.id;
      L.sim->ScheduleAt(start, [this, requester, responder, id]() {
        topology_->host(requester).SendReadRequest(id, responder);
      });
    }
  }
  return out;
}

void Experiment::set_event_budget(uint64_t max_total_events) {
  for (auto& lp : lanes_) lp->sim->set_event_budget(max_total_events);
}

bool Experiment::budget_exhausted() const {
  for (const auto& lp : lanes_) {
    if (lp->sim->budget_exhausted()) return true;
  }
  return false;
}

void Experiment::set_wall_deadline(
    std::chrono::steady_clock::time_point deadline) {
  for (auto& lp : lanes_) lp->sim->set_wall_deadline(deadline);
}

bool Experiment::deadline_exceeded() const {
  for (const auto& lp : lanes_) {
    if (lp->sim->deadline_exceeded()) return true;
  }
  return false;
}

uint64_t Experiment::flows_completed() const {
  uint64_t n = 0;
  for (const auto& lp : lanes_) n += lp->flows_completed;
  return n;
}

std::vector<const host::Flow*> Experiment::AllFlows() const {
  std::vector<const host::Flow*> out;
  for (const auto& lp : lanes_) {
    out.insert(out.end(), lp->flow_ptrs.begin(), lp->flow_ptrs.end());
  }
  std::sort(out.begin(), out.end(), [](const host::Flow* a, const host::Flow* b) {
    return a->spec().id < b->spec().id;
  });
  return out;
}

std::vector<stats::PfcMonitor::PauseEvent> Experiment::PauseLog() const {
  // Each lane's log is already in that order, so a stable sort of the
  // concatenation is the merge (and the identity on one lane).
  std::vector<stats::PfcMonitor::PauseEvent> out;
  for (const auto& lp : lanes_) {
    out.insert(out.end(), lp->pfc->events().begin(), lp->pfc->events().end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const stats::PfcMonitor::PauseEvent& a,
                      const stats::PfcMonitor::PauseEvent& b) {
                     return a.start != b.start ? a.start < b.start
                                               : a.order < b.order;
                   });
  return out;
}

void Experiment::DrainInbound(Lane& lane, sim::TimePs horizon) {
  for (Lane::Inbound& in : lane.inbound) {
    sim::TimePs at = 0;
    while (in.channel->PeekArrival(&at) && at <= horizon) {
      net::HandoffRecord rec;
      in.channel->Pop(&rec);
      net::Node* peer = in.peer;
      const int port = in.peer_port;
      net::Packet* pkt = rec.pkt;
      // Identical (at, emission, link_uid) key as the producer would have
      // used on its own arena, so the merged execution order is decided by
      // the EventClass tie-break contract, never by thread timing.
      lane.sim->ScheduleArrival(rec.at, rec.emission, in.key,
                                [peer, port, pkt] {
                                  peer->Deliver(net::PacketPtr(pkt), port);
                                });
    }
  }
}

void Experiment::RunLanes(sim::TimePs until, bool inclusive) {
  const int n = shards();
  constexpr size_t kNoMark = std::numeric_limits<size_t>::max();
  struct Round {
    sim::TimePs now = 0;     // barrier time (every lane's clock)
    sim::TimePs target = 0;  // this round's horizon
    size_t mark = kNoMark;   // script event bounding the round, or kNoMark
    sim::TimePs lookahead = 0;
    bool done = false;
  } round;
  round.now = simulator().now();
  round.lookahead = topo::UpLookahead(*topology_, partition_);

  auto retarget = [&] {
    sim::TimePs t = until;
    round.mark = kNoMark;
    if (script_next_ < script_order_.size() &&
        (script_[script_order_[script_next_]].at < t ||
         (inclusive && script_[script_order_[script_next_]].at == t))) {
      round.mark = script_order_[script_next_];
      t = script_[round.mark].at;
    }
    // The conservative window: a record committed after the last barrier
    // arrives strictly beyond now + lookahead (serialization takes > 0 ps),
    // so lanes never receive an arrival from their past. The guard form is
    // overflow-safe against a huge finite lookahead.
    if (round.lookahead != topo::kUnboundedLookahead &&
        round.lookahead < t - round.now) {
      t = round.now + round.lookahead;
      round.mark = kNoMark;
    }
    round.target = t;
  };

  // Runs while every lane is parked at the barrier, so single-threaded
  // access to the whole fabric (SetLinkUp rewires routes globally) is safe.
  auto coordinate = [&]() noexcept {
    round.now = round.target;
    // A watchdog stop leaves its lane short of the target, so a pending mark
    // was never reached and must not apply.
    for (const auto& lp : lanes_) {
      if (lp->sim->budget_exhausted() || lp->sim->deadline_exceeded()) {
        round.done = true;
        return;
      }
    }
    if (round.mark != kNoMark) {
      const ScriptEvent& ev = script_[round.mark];
      topology_->SetLinkUp(ev.link, ev.up);
      // Every link-state change (switch and NIC faults expand into per-link
      // events) passes here; fluid flows follow the repaired routes.
      if (fluid_ != nullptr) fluid_->Repath();
      ++script_next_;
      round.lookahead = topo::UpLookahead(*topology_, partition_);
    } else if (round.now == until) {
      round.done = true;
      return;
    }
    retarget();
  };

  std::barrier sync(n, coordinate);
  auto lane_loop = [&](int li) {
    Lane& lane = *lanes_[li];
    for (;;) {
      uint64_t bound = std::numeric_limits<uint64_t>::max();
      if (round.mark != kNoMark) {
        bound = lane.marks[round.mark].seq;
      } else if (!inclusive && round.target == until) {
        bound = 0;
      }
      DrainInbound(lane, round.target);
      lane.sim->Run(round.target, bound);
      sync.arrive_and_wait();
      if (round.done) break;
    }
  };

  retarget();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(n - 1));
  for (int i = 1; i < n; ++i) workers.emplace_back(lane_loop, i);
  lane_loop(0);
  for (std::thread& w : workers) w.join();
}

void Experiment::StartQueueMonitors() {
  if (queue_monitor_started_) return;
  queue_monitor_started_ = true;
  for (auto& lp : lanes_) lp->queue_monitor->Start(config_.duration);
}

void Experiment::RunUntil(sim::TimePs until) {
  StartQueueMonitors();
  RunLanes(until);
}

void Experiment::RunBefore(sim::TimePs until) {
  StartQueueMonitors();
  RunLanes(until, /*inclusive=*/false);
}

ExperimentResult Experiment::Run() {
  StartWorkload();
  return FinishRun();
}

void Experiment::StartWorkload() {
  // Each lane starts its configured sources in install order on its own
  // arena, so every lane's seq counter replays the same schedule sequence.
  // (Installed sources started in AddSource.)
  for (auto& lp : lanes_) {
    for (size_t i = 0; i < config_sources_; ++i) lp->sources[i]->Start();
  }
  StartQueueMonitors();
}

bool Experiment::Settled() const {
  uint64_t created = 0;
  uint64_t finished = 0;  // completed or failed — either way, settled
  for (const auto& lp : lanes_) {
    created += lp->flow_ptrs.size();
    finished += lp->flows_completed + lp->flows_failed;
  }
  return finished >= created && (fluid_ == nullptr || !fluid_->active());
}

ExperimentResult Experiment::FinishRun() {
  RunLanes(config_.duration);
  // Drain: let in-flight flows finish so their FCTs are recorded.
  const sim::TimePs cap =
      config_.duration +
      static_cast<sim::TimePs>(config_.drain_factor *
                               static_cast<double>(config_.duration));
  // A frozen clock under an exhausted event budget would spin here forever.
  while (!Settled() && simulator().now() < cap && !budget_exhausted() &&
         !deadline_exceeded()) {
    RunLanes(std::min(simulator().now() + sim::Ms(1), cap));
  }
  return Collect();
}

bool Experiment::QuiescentForWarmCheckpoint() {
  // Hybrid runs are always cold: the fluid engine's continuous link/window
  // state has no warm capture surface.
  if (fluid_ != nullptr) return false;
  // Every egress queue empty and every fast-path train settled; no pacing
  // wake armed anywhere (see HostNode::pending_wake_count).
  const uint32_t num_nodes = static_cast<uint32_t>(topology_->num_nodes());
  for (uint32_t id = 0; id < num_nodes; ++id) {
    net::Node& node = topology_->node(id);
    for (int p = 0; p < node.num_ports(); ++p) {
      const net::Port& port = node.port(p);
      if (port.total_queue_bytes() != 0 || port.has_unsettled()) return false;
    }
  }
  for (uint32_t h : hosts_) {
    if (topology_->host(h).pending_wake_count() != 0) return false;
  }
  for (const auto& lp : lanes_) {
    const Lane& L = *lp;
    // Every created flow fully delivered and acknowledged.
    if (L.flows_completed != L.flow_ptrs.size()) return false;
    if (L.pfc->has_open_pauses()) return false;
    // A cross-lane packet in flight sits in a channel, not in an arena.
    for (const Lane::Inbound& in : L.inbound) {
      sim::TimePs at = 0;
      if (in.channel->PeekArrival(&at)) return false;
    }
    // Every pending event must be accounted for: the marks of link-script
    // events not yet applied, the sources' self-schedules, and the
    // queue-monitor tick. Anything else — an RTO, a CC timer — means live
    // protocol state we cannot capture. (A mark that ran without its event
    // being applied only inflates the count, which reads as non-quiescent.)
    size_t expected = script_order_.size() - script_next_;
    for (const auto& src : L.sources) {
      if (src->warm_pending()) ++expected;
    }
    if (L.queue_monitor->tick_pending()) ++expected;
    if (L.sim->pending_events() != expected) return false;
  }
  return true;
}

std::unique_ptr<Experiment::WarmState> Experiment::CaptureWarmState() {
  auto w = std::make_unique<WarmState>();
  for (const auto& lp : lanes_) {
    const Lane& L = *lp;
    LaneWarmState& lw = w->lanes.emplace_back();
    const sim::TimePs now = L.sim->now();
    lw.now = now;
    lw.next_schedule_seq = L.sim->next_schedule_seq();
    lw.events_executed = L.sim->events_executed();
    lw.next_flow_id = L.next_flow_id;
    lw.flows.reserve(L.flow_ptrs.size());
    for (const host::Flow* f : L.flow_ptrs) {
      const host::FlowSpec& s = f->spec();
      lw.flows.push_back({s.id, s.src, s.dst, s.size_bytes, s.start_time,
                          f->finish_time, f->done});
    }
    lw.fct = std::make_unique<stats::FctRecorder>(*L.fct);
    lw.short_fct_us = L.short_fct_us;
    lw.queue = L.queue_monitor->CaptureWarm();
    lw.pfc = L.pfc->CaptureWarm();
    lw.sources.resize(L.sources.size());
    for (size_t i = 0; i < L.sources.size(); ++i) {
      if (L.sources[i]->first_activity() < now) {
        lw.sources[i] = L.sources[i]->CaptureWarm();
      }
    }
    lw.background_flows = L.background_flows;
  }
  for (uint32_t s : topology_->switches()) {
    w->switches.push_back(topology_->switch_node(s).CaptureWarm());
  }
  const uint32_t num_nodes = static_cast<uint32_t>(topology_->num_nodes());
  for (uint32_t id = 0; id < num_nodes; ++id) {
    net::Node& node = topology_->node(id);
    for (int p = 0; p < node.num_ports(); ++p) {
      w->ports.push_back(node.port(p).CaptureWarm());
    }
  }
  for (uint32_t h : hosts_) {
    w->hosts.push_back(topology_->host(h).CaptureWarm());
  }
  return w;
}

bool Experiment::ValidateWarmState(const WarmState& w) {
  if (!queue_monitor_started_) return false;
  if (w.lanes.size() != lanes_.size()) return false;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& L = *lanes_[i];
    const LaneWarmState& lw = w.lanes[i];
    // Flows created before the restore (static flows) would run twice.
    if (!L.flow_ptrs.empty()) return false;
    if (lw.fct == nullptr) return false;
    if (L.sources.size() != lw.sources.size()) return false;
    if (lw.now < L.sim->now()) return false;
  }
  if (topology_->switches().size() != w.switches.size()) return false;
  if (hosts_.size() != w.hosts.size()) return false;
  if (static_cast<size_t>(total_ports_) != w.ports.size()) return false;
  return true;
}

bool Experiment::RestoreWarmState(const WarmState& w) {
  // Validate the structural match completely before touching anything, so a
  // mismatch leaves this experiment cold-runnable.
  if (!ValidateWarmState(w)) return false;
  for (size_t li = 0; li < lanes_.size(); ++li) {
    Lane& L = *lanes_[li];
    const LaneWarmState& lw = w.lanes[li];
    for (size_t i = 0; i < lw.sources.size(); ++i) {
      if (lw.sources[i].has_value()) L.sources[i]->RestoreWarm(*lw.sources[i]);
    }
    L.queue_monitor->RestoreWarm(lw.queue);
    L.pfc->RestoreWarm(lw.pfc);
  }
  for (size_t i = 0; i < w.switches.size(); ++i) {
    topology_->switch_node(topology_->switches()[i]).RestoreWarm(
        w.switches[i]);
  }
  const uint32_t num_nodes = static_cast<uint32_t>(topology_->num_nodes());
  size_t pi = 0;
  for (uint32_t id = 0; id < num_nodes; ++id) {
    net::Node& node = topology_->node(id);
    for (int p = 0; p < node.num_ports(); ++p) {
      node.port(p).RestoreWarm(w.ports[pi++]);
    }
  }
  for (size_t i = 0; i < hosts_.size(); ++i) {
    topology_->host(hosts_[i]).RestoreWarm(w.hosts[i]);
  }
  warm_flows_.clear();
  for (size_t li = 0; li < lanes_.size(); ++li) {
    Lane& L = *lanes_[li];
    const LaneWarmState& lw = w.lanes[li];
    L.fct = std::make_unique<stats::FctRecorder>(*lw.fct);
    L.short_fct_us = lw.short_fct_us;
    warm_flows_.insert(warm_flows_.end(), lw.flows.begin(), lw.flows.end());
    L.next_flow_id = lw.next_flow_id;
    L.background_flows = lw.background_flows;
    // Last: jump the clock and counters to T. Every event replayed above was
    // scheduled while now_ was still pre-T, so their captured (time, seq)
    // keys landed unchallenged; from here on the lane continues exactly as
    // the checkpointing run's would have.
    L.sim->Restore(lw.now, lw.next_schedule_seq, lw.events_executed);
  }
  return true;
}

ExperimentResult Experiment::Collect() {
  ExperimentResult r;
  // Every lane clock agrees at the final barrier (budget exhaustion is the
  // diagnostic exception); lane 0 is the canonical one.
  const sim::TimePs now = simulator().now();
  r.fct = MakeFctRecorder();
  stats::PfcMonitor pfc;
  for (const auto& lp : lanes_) {
    Lane& lane = *lp;
    lane.pfc->Finish(lane.sim->now());
    pfc.Merge(*lane.pfc);
    r.fct->Merge(*lane.fct);
    r.short_fct_us.Merge(lane.short_fct_us);
    r.queue_dist.Merge(lane.queue_monitor->distribution());
    r.max_queue_bytes =
        std::max(r.max_queue_bytes, lane.queue_monitor->max_seen_bytes());
    r.flows_created += lane.flow_ptrs.size();
    r.flows_completed += lane.flows_completed;
    r.flows_failed += lane.flows_failed;
    for (const host::Flow* f : lane.flow_ptrs) {
      r.retx_timeouts += f->retx_timeouts;
    }
    r.events_executed += lane.sim->events_executed();
  }
  r.pause_time_fraction = pfc.PauseTimeFraction(now, total_ports_);
  r.pause_events = pfc.pause_count();
  r.pause_durations_us = pfc.DurationDistributionUs();
  for (uint32_t s : topology_->switches()) {
    const net::SwitchNode& sw = topology_->switch_node(s);
    r.dropped_packets += sw.dropped_packets();
    r.dropped_bytes += sw.dropped_bytes();
    for (int d = 0; d < check::kNumDropReasons; ++d) {
      r.dropped_by_reason[d] +=
          sw.dropped_by_reason(static_cast<check::DropReason>(d));
    }
    r.packets_forwarded += sw.forwarded_packets();
  }
  const uint32_t num_nodes = static_cast<uint32_t>(topology_->num_nodes());
  for (uint32_t id = 0; id < num_nodes; ++id) {
    const net::Node& node = topology_->node(id);
    for (int p = 0; p < node.num_ports(); ++p) {
      r.train_aborts += node.port(p).train_aborts();
    }
    // Corruption drops happen at delivery (hosts and switches alike), so
    // they live on the node, not inside the switch drop counters.
    r.dropped_packets += node.corrupt_dropped_packets();
    r.dropped_bytes += node.corrupt_dropped_bytes();
    r.dropped_by_reason[static_cast<int>(check::DropReason::kCorrupt)] +=
        node.corrupt_dropped_packets();
  }
  // Warm-restored runs fold the checkpoint's completed flows back in, so the
  // report covers [0, end) exactly like a cold run's.
  for (const WarmFlowRecord& wf : warm_flows_) {
    if (wf.done) ++r.flows_completed;
  }
  r.flows_created += warm_flows_.size();
  if (fluid_ != nullptr) {
    // Fluid flows fold into the engine-inclusive totals AND get their own
    // accounting block (manifest "fluid" subtree).
    r.fluid_flows_created = fluid_->flows_admitted();
    r.fluid_flows_completed = fluid_->flows_completed();
    r.fluid_ticks = fluid_->ticks();
    r.fluid_coupled_links = fluid_->coupled_links();
    r.fluid_delivered_bytes = fluid_->delivered_bytes();
    r.fluid_peak_queue_bytes = fluid_->peak_queue_bytes();
    r.flows_created += r.fluid_flows_created;
    r.flows_completed += r.fluid_flows_completed;
  }
  r.sim_time = now;
  r.base_rtt = base_rtt_;

  stats::TraceHash th;
  for (const WarmFlowRecord& wf : warm_flows_) {
    th.AddFlow(wf.id, wf.src, wf.dst, wf.size_bytes, wf.start, wf.finish,
               wf.done);
  }
  for (const auto& lp : lanes_) {
    for (const host::Flow* f : lp->flow_ptrs) {
      const host::FlowSpec& s = f->spec();
      th.AddFlow(s.id, s.src, s.dst, s.size_bytes, s.start_time,
                 f->finish_time, f->done);
    }
  }
  if (fluid_ != nullptr) {
    for (const auto& rec : fluid_->flows()) {
      th.AddFlow(rec.id, rec.src, rec.dst, rec.size_bytes, rec.start,
                 rec.finish, rec.done);
    }
  }
  r.trace_hash = th.digest();
  SortResultDistributions(r);
  return r;
}

// Pre-sort every distribution at the collection boundary: const reads after
// this point (CSV rows, manifests, sweep aggregation across worker threads)
// are zero-copy and mutation-free.
void Experiment::SortResultDistributions(ExperimentResult& r) {
  if (r.fct != nullptr) r.fct->Sort();
  r.queue_dist.Sort();
  r.short_fct_us.Sort();
  r.pause_durations_us.Sort();
}

std::string ExperimentResult::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "flows %llu/%llu  q50 %.1fKB q95 %.1fKB q99 %.1fKB qmax %.1fKB  "
      "pfc %.4f%% (%zu events)  drops %llu  simtime %.2fms  events %llu",
      static_cast<unsigned long long>(flows_completed),
      static_cast<unsigned long long>(flows_created),
      queue_dist.Percentile(50) / 1e3, queue_dist.Percentile(95) / 1e3,
      queue_dist.Percentile(99) / 1e3,
      static_cast<double>(max_queue_bytes) / 1e3, pause_time_fraction * 100,
      pause_events, static_cast<unsigned long long>(dropped_packets),
      sim::ToMs(sim_time), static_cast<unsigned long long>(events_executed));
  return buf;
}

}  // namespace hpcc::runner
