#include "obs/telemetry.h"

#include <algorithm>
#include <stdexcept>

#include "analytic/fluid_region.h"
#include "core/int_header.h"
#include "host/flow.h"
#include "net/packet.h"
#include "net/switch_node.h"
#include "runner/experiment.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace hpcc::obs {

const char* DropReasonToken(check::DropReason reason) {
  switch (reason) {
    case check::DropReason::kNoRoute: return "no_route";
    case check::DropReason::kBufferFull: return "buffer_full";
    case check::DropReason::kEgressThreshold: return "egress_threshold";
    case check::DropReason::kCorrupt: return "corrupt";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// TelemetryRecorder

TelemetryRecorder::TelemetryRecorder(const TelemetryConfig& cfg) : cfg_(cfg) {
  const int n = (cfg.trace && cfg.int_tracks > 0) ? cfg.int_tracks : 0;
  int_qlen_.resize(n);
  int_util_.resize(n);
  for (int i = 0; i < n; ++i) {
    const std::string id = std::to_string(i + 1);
    int_qlen_[i].name = "int f" + id + " qlen";
    int_qlen_[i].unit = "kB";
    int_qlen_[i].series.set_max_points(cfg.int_track_points);
    int_util_[i].name = "int f" + id + " util";
    int_util_[i].unit = "frac";
    int_util_[i].series.set_max_points(cfg.int_track_points);
  }
  hop_state_.resize(static_cast<size_t>(n) * core::kMaxIntHops);
}

unsigned TelemetryRecorder::interests() const {
  return kEnqueue | kDequeue | kDrop | kPause | kCcUpdate | kIntEcho;
}

void TelemetryRecorder::OnEnqueue(uint32_t, int, const net::Packet& pkt,
                                  int64_t) {
  ++counters_.enqueued_packets;
  counters_.enqueued_bytes += pkt.size_bytes();
}

void TelemetryRecorder::OnDequeue(uint32_t, int, const net::Packet& pkt,
                                  int64_t) {
  ++counters_.dequeued_packets;
  counters_.dequeued_bytes += pkt.size_bytes();
}

void TelemetryRecorder::OnDequeueBurst(uint32_t, int,
                                       const check::DequeueRecord* recs,
                                       size_t n) {
  counters_.dequeued_packets += n;
  for (size_t i = 0; i < n; ++i) {
    counters_.dequeued_bytes += recs[i].pkt->size_bytes();
  }
}

void TelemetryRecorder::OnDrop(uint32_t, const net::Packet&,
                               check::DropReason reason) {
  const int idx = static_cast<int>(reason);
  if (idx >= 0 && idx < check::kNumDropReasons) {
    ++counters_.drops_by_reason[idx];
  }
}

void TelemetryRecorder::OnPauseChange(uint32_t, int, int, bool paused,
                                      sim::TimePs) {
  if (paused) {
    ++counters_.pause_on;
  } else {
    ++counters_.pause_off;
  }
}

void TelemetryRecorder::OnCcUpdate(uint64_t, int64_t, int64_t, sim::TimePs) {
  ++counters_.cc_updates;
}

void TelemetryRecorder::OnIntEcho(uint64_t flow_id, const core::IntStack& stack,
                                  sim::TimePs now) {
  ++counters_.int_echoes;
  if (int_qlen_.empty()) return;
  // Flow ids are assigned 1.. in creation order, so ids 1..int_tracks are
  // the first flows — a stable flight-recorder selection.
  if (flow_id < 1 || flow_id > int_qlen_.size()) return;
  const size_t idx = static_cast<size_t>(flow_id - 1);
  int64_t max_qlen = 0;
  double max_util = 0;
  bool have_util = false;
  for (int h = 0; h < stack.n_hops(); ++h) {
    const core::IntHop& hop = stack.hop(h);
    max_qlen = std::max(max_qlen, hop.qlen_bytes);
    HopState& hs = hop_state_[idx * core::kMaxIntHops + h];
    if (hs.ts >= 0 && hop.ts > hs.ts && hop.tx_bytes >= hs.tx_bytes &&
        hop.bandwidth_bps > 0) {
      const double dt = sim::ToSec(hop.ts - hs.ts);
      const double bps =
          static_cast<double>(hop.tx_bytes - hs.tx_bytes) * 8.0 / dt;
      max_util = std::max(max_util, bps / hop.bandwidth_bps);
      have_util = true;
    }
    hs.ts = hop.ts;
    hs.tx_bytes = hop.tx_bytes;
  }
  int_qlen_[idx].series.Add(now, static_cast<double>(max_qlen) / 1000.0);
  if (have_util) int_util_[idx].series.Add(now, max_util);
}

// ---------------------------------------------------------------------------
// TelemetrySession

TelemetrySession::TelemetrySession(const TelemetryConfig& cfg,
                                   check::MonitorRegistry* registry,
                                   runner::Experiment* experiment)
    : TelemetrySession(cfg, std::vector<check::MonitorRegistry*>{registry},
                       experiment) {}

TelemetrySession::TelemetrySession(
    const TelemetryConfig& cfg,
    const std::vector<check::MonitorRegistry*>& registries,
    runner::Experiment* experiment)
    : cfg_(cfg), experiment_(experiment) {
  for (check::MonitorRegistry* registry : registries) {
    recorders_.push_back(static_cast<TelemetryRecorder*>(
        registry->Add(std::make_unique<TelemetryRecorder>(cfg))));
  }
  recorder_ = recorders_.front();
}

TelemetryCounters TelemetrySession::counters() const {
  TelemetryCounters total;
  for (const TelemetryRecorder* r : recorders_) {
    const TelemetryCounters& c = r->counters();
    total.enqueued_packets += c.enqueued_packets;
    total.enqueued_bytes += c.enqueued_bytes;
    total.dequeued_packets += c.dequeued_packets;
    total.dequeued_bytes += c.dequeued_bytes;
    for (int i = 0; i < check::kNumDropReasons; ++i) {
      total.drops_by_reason[i] += c.drops_by_reason[i];
    }
    total.pause_on += c.pause_on;
    total.pause_off += c.pause_off;
    total.cc_updates += c.cc_updates;
    total.int_echoes += c.int_echoes;
  }
  return total;
}

namespace {

sim::TimePs SampleInterval(double us) {
  return std::max<sim::TimePs>(
      1, sim::RoundToPs(us, static_cast<double>(sim::kPsPerUs)));
}

}  // namespace

void TelemetrySession::Start() {
  const runner::ExperimentConfig& c = experiment_->config();
  // Cover the drain window too — that is where incast queues empty out.
  until_ = c.duration +
           static_cast<sim::TimePs>(c.drain_factor *
                                    static_cast<double>(c.duration));
  topo::Topology& topo = experiment_->topology();
  if (cfg_.trace && cfg_.queue_tracks > 0 && cfg_.queue_sample_us > 0) {
    trace_queues_.interval = SampleInterval(cfg_.queue_sample_us);
    for (uint32_t id : topo.switches()) {
      const net::Node& node = topo.node(id);
      for (int p = 0; p < node.num_ports(); ++p) {
        QueueProbe qp;
        qp.node = id;
        qp.port = p;
        qp.series.set_max_points(cfg_.queue_track_points);
        trace_queues_.queues.push_back(std::move(qp));
      }
    }
    Arm(&trace_queues_);
  }
  if (cfg_.trace && cfg_.flow_tracks > 0 && cfg_.flow_sample_us > 0) {
    trace_flows_.interval = SampleInterval(cfg_.flow_sample_us);
    trace_flows_.max_flows = static_cast<size_t>(cfg_.flow_tracks);
    trace_flows_.flow_points = static_cast<size_t>(cfg_.flow_track_points);
    Arm(&trace_flows_);
  }
  const SeriesConfig& sc = cfg_.series;
  if (!sc.queues.empty()) {
    series_queues_.interval = SampleInterval(cfg_.queue_sample_us);
    series_queues_.dense = true;
    const std::vector<topo::LinkSpec>& links = topo.links();
    for (size_t link : sc.queues) {
      if (link >= links.size()) {
        throw std::invalid_argument(
            "telemetry.series queue link " + std::to_string(link) +
            " out of range (topology has " + std::to_string(links.size()) +
            " links)");
      }
      QueueProbe qp;
      qp.node = links[link].b;
      qp.port = links[link].port_b;
      series_queues_.queues.push_back(std::move(qp));
    }
    Arm(&series_queues_);
  }
  if (sc.flows > 0) {
    series_flows_.interval = SampleInterval(cfg_.flow_sample_us);
    series_flows_.dense = true;
    series_flows_.max_flows = static_cast<size_t>(sc.flows);
    Arm(&series_flows_);
  }
}

void TelemetrySession::Arm(Sampler* s) {
  // Probes live at fixed addresses from here on: lanes write their own
  // concurrently.
  s->flows.resize(s->max_flows);
  s->lanes.resize(static_cast<size_t>(experiment_->shards()));
  const std::vector<int>& lane_of = experiment_->partition().lane_of_node;
  for (size_t i = 0; i < s->queues.size(); ++i) {
    s->lanes[static_cast<size_t>(lane_of[s->queues[i].node])].queues.push_back(
        i);
  }
  for (int lane = 0; lane < experiment_->shards(); ++lane) Schedule(s, lane);
}

void TelemetrySession::Schedule(Sampler* s, int lane) {
  experiment_->lane_simulator(lane).ScheduleIn(
      s->interval, [this, s, lane] { Tick(s, lane); });
}

size_t TelemetrySession::PacketOrdinal(uint64_t flow_id) const {
  size_t fluid_before = 0;
  if (const analytic::FluidRegion* fluid = experiment_->fluid_region()) {
    const auto& recs = fluid->flows();
    fluid_before = static_cast<size_t>(
        std::lower_bound(recs.begin(), recs.end(), flow_id,
                         [](const analytic::FluidRegion::FlowRecord& r,
                            uint64_t id) { return r.id < id; }) -
        recs.begin());
  }
  return static_cast<size_t>(flow_id - 1) - fluid_before;
}

void TelemetrySession::Tick(Sampler* s, int lane) {
  const sim::TimePs now = experiment_->lane_simulator(lane).now();
  topo::Topology& topo = experiment_->topology();
  LaneProbes& mine = s->lanes[static_cast<size_t>(lane)];
  for (size_t qi : mine.queues) {
    QueueProbe& qp = s->queues[qi];
    const int64_t q = topo.node(qp.node).port(qp.port).queue_bytes(
        net::kDataPriority);
    if (!s->dense) {
      // Idle ports stay pointless (most of a big fabric never queues); the
      // first nonzero sample retroactively adds a zero so ramps render.
      if (q == 0 && qp.series.empty()) continue;
      if (qp.series.empty() && now > s->interval) {
        qp.series.Add(now - s->interval, 0);
      }
    }
    qp.max_bytes = std::max(qp.max_bytes, q);
    qp.series.Add(now, static_cast<double>(q) / 1000.0);
  }

  // Adopt the lane's new flows among the first max_flows. A flow is
  // adopted at the first tick after its creation, so its first sample
  // counts every byte acked since it started.
  const std::vector<host::Flow*>& flows = experiment_->lane_flows(lane);
  for (; s->max_flows > 0 && mine.scanned < flows.size(); ++mine.scanned) {
    const host::Flow* f = flows[mine.scanned];
    const size_t slot = PacketOrdinal(f->spec().id);
    if (slot >= s->max_flows) continue;
    FlowProbe& fp = s->flows[slot];
    fp.flow_id = f->spec().id;
    fp.adopted = true;
    if (!s->dense) fp.series.set_max_points(s->flow_points);
    mine.flows.emplace_back(slot, f);
  }
  const double interval_sec = sim::ToSec(s->interval);
  for (const auto& [slot, f] : mine.flows) {
    FlowProbe& fp = s->flows[slot];
    const uint64_t acked = std::min(f->snd_una, f->spec().size_bytes);
    const double gbps =
        static_cast<double>(acked - fp.last_acked) * 8.0 / interval_sec / 1e9;
    fp.last_acked = acked;
    if (s->dense) {
      fp.gbps.resize(mine.ticks + 1, 0.0);
      fp.gbps[mine.ticks] = gbps;
    } else if (gbps != 0 || (!f->done && !fp.series.empty())) {
      // Sparse tracks suppress flat zero tails after completion (and
      // before the first byte).
      fp.series.Add(now, gbps);
    }
  }
  if (s->dense && s->max_flows > 0 && lane == 0) s->tick_times.push_back(now);
  ++mine.ticks;

  if (now + s->interval <= until_) Schedule(s, lane);
}

std::vector<TelemetryTrack> TelemetrySession::TopQueueTracks() const {
  std::vector<const QueueProbe*> active;
  for (const QueueProbe& qp : trace_queues_.queues) {
    if (qp.max_bytes > 0 && !qp.series.empty()) active.push_back(&qp);
  }
  std::sort(active.begin(), active.end(),
            [](const QueueProbe* a, const QueueProbe* b) {
              if (a->max_bytes != b->max_bytes)
                return a->max_bytes > b->max_bytes;
              if (a->node != b->node) return a->node < b->node;
              return a->port < b->port;
            });
  if (active.size() > static_cast<size_t>(cfg_.queue_tracks)) {
    active.resize(cfg_.queue_tracks);
  }
  std::vector<TelemetryTrack> out;
  out.reserve(active.size());
  for (const QueueProbe* qp : active) {
    TelemetryTrack t;
    t.name = "q sw" + std::to_string(qp->node) + " p" +
             std::to_string(qp->port);
    t.unit = "kB";
    t.series = qp->series;
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<TelemetryTrack> TelemetrySession::FlowTracks() const {
  std::vector<TelemetryTrack> out;
  for (const FlowProbe& fp : trace_flows_.flows) {
    if (!fp.adopted) continue;
    TelemetryTrack t;
    t.name = "flow " + std::to_string(fp.flow_id);
    t.unit = "Gbps";
    t.series = fp.series;
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<TelemetryTrack> TelemetrySession::MergedIntTracks(
    const std::vector<TelemetryTrack>& (TelemetryRecorder::*tracks)()
        const) const {
  // A flow's INT echoes all reach its source host, so at most one lane's
  // recorder holds points for each track.
  std::vector<TelemetryTrack> out = (recorder_->*tracks)();
  for (const TelemetryRecorder* r : recorders_) {
    const std::vector<TelemetryTrack>& lane = (r->*tracks)();
    for (size_t i = 0; i < out.size(); ++i) {
      if (!lane[i].series.empty()) out[i] = lane[i];
    }
  }
  return out;
}

std::vector<TelemetryTrack> TelemetrySession::IntQlenTracks() const {
  return MergedIntTracks(&TelemetryRecorder::int_qlen_tracks);
}

std::vector<TelemetryTrack> TelemetrySession::IntUtilTracks() const {
  return MergedIntTracks(&TelemetryRecorder::int_util_tracks);
}

std::vector<stats::TimeSeries> TelemetrySession::SeriesQueues() const {
  std::vector<stats::TimeSeries> out;
  for (const QueueProbe& qp : series_queues_.queues) out.push_back(qp.series);
  return out;
}

std::vector<stats::TimeSeries> TelemetrySession::SeriesFlows() const {
  // A flow reads 0 at the ticks before it exists.
  const std::vector<sim::TimePs>& ticks = series_flows_.tick_times;
  std::vector<stats::TimeSeries> out(series_flows_.flows.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const std::vector<double>& gbps = series_flows_.flows[i].gbps;
    for (size_t j = 0; j < ticks.size(); ++j) {
      out[i].Add(ticks[j], j < gbps.size() ? gbps[j] : 0.0);
    }
  }
  return out;
}

stats::TimeSeries TelemetrySession::SeriesAggregate() const {
  stats::TimeSeries sum;
  if (series_flows_.flows.empty()) return sum;
  const std::vector<stats::TimeSeries> flows = SeriesFlows();
  for (size_t j = 0; j < series_flows_.tick_times.size(); ++j) {
    double total = 0;
    for (const stats::TimeSeries& f : flows) total += f.points()[j].second;
    sum.Add(series_flows_.tick_times[j], total);
  }
  return sum;
}

}  // namespace hpcc::obs
