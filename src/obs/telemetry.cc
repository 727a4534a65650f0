#include "obs/telemetry.h"

#include <algorithm>
#include <stdexcept>

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
  return std::max<sim::TimePs>(1, static_cast<sim::TimePs>(us * sim::kPsPerUs));
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
    Schedule(&trace_queues_);
  }
  if (cfg_.trace && cfg_.flow_tracks > 0 && cfg_.flow_sample_us > 0) {
    trace_flows_.interval = SampleInterval(cfg_.flow_sample_us);
    trace_flows_.max_flows = static_cast<size_t>(cfg_.flow_tracks);
    trace_flows_.flow_points = static_cast<size_t>(cfg_.flow_track_points);
    Schedule(&trace_flows_);
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
    Schedule(&series_queues_);
  }
  if (sc.flows > 0) {
    series_flows_.interval = SampleInterval(cfg_.flow_sample_us);
    series_flows_.dense = true;
    series_flows_.max_flows = static_cast<size_t>(sc.flows);
    series_flows_.flows.resize(series_flows_.max_flows);
    Schedule(&series_flows_);
  }
}

void TelemetrySession::Schedule(Sampler* s) {
  experiment_->simulator().ScheduleIn(s->interval, [this, s] { Tick(s); });
}

void TelemetrySession::Tick(Sampler* s) {
  const sim::TimePs now = experiment_->simulator().now();
  topo::Topology& topo = experiment_->topology();
  for (QueueProbe& qp : s->queues) {
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

  const std::vector<host::Flow*>& flows = experiment_->flows();
  // Sparse: adopt newly created flows (creation order) until the budget
  // fills. A flow is adopted at the first tick after its creation, so its
  // first sample counts every byte acked since it started.
  while (!s->dense &&
         s->flows.size() < std::min(flows.size(), s->max_flows)) {
    FlowProbe fp;
    fp.series.set_max_points(s->flow_points);
    s->flows.push_back(std::move(fp));
  }
  const double interval_sec = sim::ToSec(s->interval);
  double sum = 0;
  for (size_t i = 0; i < s->flows.size(); ++i) {
    FlowProbe& fp = s->flows[i];
    double gbps = 0;
    if (i < flows.size()) {
      const host::Flow* f = flows[i];
      fp.flow_id = f->spec().id;
      const uint64_t acked = std::min(f->snd_una, f->spec().size_bytes);
      gbps = static_cast<double>(acked - fp.last_acked) * 8.0 /
             interval_sec / 1e9;
      fp.last_acked = acked;
      // Sparse tracks suppress flat zero tails after completion (and
      // before the first byte).
      if (!s->dense && gbps == 0 && (f->done || fp.series.empty())) continue;
    }
    fp.series.Add(now, gbps);
    sum += gbps;
  }
  if (s->dense && !s->flows.empty()) s->aggregate.Add(now, sum);

  if (now + s->interval <= until_) Schedule(s);
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
  out.reserve(trace_flows_.flows.size());
  for (const FlowProbe& fp : trace_flows_.flows) {
    TelemetryTrack t;
    t.name = "flow " + std::to_string(fp.flow_id);
    t.unit = "Gbps";
    t.series = fp.series;
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<stats::TimeSeries> TelemetrySession::SeriesQueues() const {
  std::vector<stats::TimeSeries> out;
  for (const QueueProbe& qp : series_queues_.queues) out.push_back(qp.series);
  return out;
}

std::vector<stats::TimeSeries> TelemetrySession::SeriesFlows() const {
  std::vector<stats::TimeSeries> out;
  for (const FlowProbe& fp : series_flows_.flows) out.push_back(fp.series);
  return out;
}

}  // namespace hpcc::obs
