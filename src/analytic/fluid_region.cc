#include "analytic/fluid_region.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hpcc::analytic {

FluidRegion::FluidRegion(sim::Simulator* simulator, topo::Topology* topology,
                         const FluidRegionParams& params)
    : simulator_(simulator), topology_(topology), params_(params) {
  if (params_.tick <= 0) {
    throw std::invalid_argument("FluidRegion requires a positive tick");
  }
  tick_seconds_ =
      static_cast<double>(params_.tick) / static_cast<double>(sim::kPsPerSec);
}

uint32_t FluidRegion::InternDirectedLink(size_t link_index, bool a_to_b) {
  const uint64_t key = static_cast<uint64_t>(link_index) * 2 + (a_to_b ? 0 : 1);
  auto it = dlink_index_.find(key);
  if (it != dlink_index_.end()) return it->second;
  const topo::LinkSpec& l = topology_->links()[link_index];
  DirectedLink d;
  const uint32_t egress_node = a_to_b ? l.a : l.b;
  const int egress_port = a_to_b ? l.port_a : l.port_b;
  d.port = &topology_->node(egress_node).port(egress_port);
  d.cap_per_tick =
      static_cast<double>(l.bps) / 8.0 * tick_seconds_;  // B*T in bytes
  d.last_pkt_tx = d.port->tx_bytes();
  const uint32_t index = static_cast<uint32_t>(dlinks_.size());
  dlinks_.push_back(d);
  dlink_index_.emplace(key, index);
  return index;
}

void FluidRegion::WalkPath(size_t i) {
  Flow& f = flows_[i];
  const FlowRecord& rec = records_[i];
  f.links.clear();
  if (!topology_->EcmpPath(rec.src, rec.dst, rec.id, &hops_scratch_)) return;
  f.window_cap = std::numeric_limits<double>::max();
  for (const topo::Topology::Hop& h : hops_scratch_) {
    const uint32_t di = InternDirectedLink(h.link, h.a_to_b);
    f.links.push_back(di);
    f.window_cap = std::min(f.window_cap, dlinks_[di].cap_per_tick);
  }
  f.window = std::min(f.window, f.window_cap);
}

void FluidRegion::AddFlow(uint64_t id, uint32_t src, uint32_t dst,
                          uint64_t size_bytes, sim::TimePs start) {
  if (src == dst) throw std::invalid_argument("fluid flow src == dst");

  FlowRecord rec;
  rec.id = id;
  rec.src = src;
  rec.dst = dst;
  rec.size_bytes = size_bytes;
  rec.start = start;
  records_.push_back(rec);
  Flow f;
  f.remaining = static_cast<double>(size_bytes);
  f.owed = size_bytes;
  // Line-rate start (RDMA semantics): one path-bottleneck BDP, or the whole
  // flow if smaller (WalkPath applies the bound).
  f.window = static_cast<double>(size_bytes);
  flows_.push_back(std::move(f));
  WalkPath(flows_.size() - 1);
  live_.push_back(static_cast<uint32_t>(flows_.size() - 1));
  admitted_bytes_ += size_bytes;

  if (!ticking_) {
    ticking_ = true;
    // First round one full tick out: the flow's first window of bytes takes
    // one fluid RTT to traverse the region, like FluidLink's first Step.
    simulator_->SchedulePeriodic(simulator_->now() + params_.tick,
                                 params_.tick, [this]() { return Tick(); });
  }
}

void FluidRegion::Repath() {
  for (const uint32_t i : live_) WalkPath(i);
}

std::vector<const net::Port*> FluidRegion::FlowPath(size_t i) const {
  std::vector<const net::Port*> ports;
  for (const uint32_t di : flows_[i].links) ports.push_back(dlinks_[di].port);
  return ports;
}

bool FluidRegion::Tick() {
  ++ticks_;
  const sim::TimePs now = simulator_->now();

  // Pass 1: read every coupled port's real tx counter. This settles due
  // fast-path train work *before* any fluid state changes, so packets
  // emitted at or before this tick are stamped with the pre-tick fluid
  // state under both transmit engines (the Port::SetFluidState contract).
  for (DirectedLink& d : dlinks_) {
    const uint64_t tx = d.port->tx_bytes();
    const double pkt = static_cast<double>(tx - d.last_pkt_tx);
    d.last_pkt_tx = tx;
    d.sum_w = 0;
    // Stash pkt in `served` until pass 3 reuses the field.
    d.served = pkt;
  }

  // Pass 2: offered fluid load per link (stalled flows offer nothing).
  for (const uint32_t i : live_) {
    const Flow& f = flows_[i];
    for (uint32_t di : f.links) dlinks_[di].sum_w += f.window;
  }

  // Pass 3: link service + utilization (the FluidLink map, minus the
  // capacity consumed by real packets), pushed straight into the shared
  // port: every port read happened in pass 1, so this is the first write.
  // The served rate drives the INT virtual-txBytes interpolation until the
  // next tick; the backlog adds to stamped qLen (clamped to the buffer
  // bound). A down link carries no fluid: no live flow routes over it, and
  // any backlog it held is dropped.
  bool backlog = false;
  for (DirectedLink& d : dlinks_) {
    const double pkt = d.served;
    if (d.port->link_up()) {
      const double avail = std::max(0.0, d.cap_per_tick - pkt);
      const double supply = d.queue + d.sum_w;
      d.served = std::min(supply, avail);
      d.share = supply > 0 ? d.served / supply : 1.0;
      d.queue = supply - d.served;
      d.u = d.queue / d.cap_per_tick +
            std::min(1.0, (d.sum_w + pkt) / d.cap_per_tick);
    } else {
      d.served = 0;
      d.share = 0;
      d.queue = 0;
      d.u = 0;
    }
    const int64_t qlen = std::llround(d.queue);
    peak_queue_bytes_ = std::max(peak_queue_bytes_, qlen);
    if (qlen > 0) backlog = true;
    const int64_t rate =
        std::llround(d.served / tick_seconds_);  // bytes per second
    const bool idle = qlen == 0 && rate == 0;
    // A port already holding (0, 0) stays put: with a zero rate, re-basing
    // the interpolation changes nothing.
    if (idle && d.pushed_idle) continue;
    d.port->SetFluidState(qlen, rate, params_.qlen_cap_bytes);
    d.pushed_idle = idle;
  }

  // Pass 4: per-flow delivery + HPCC window update against the path max U.
  // Finished flows leave the live list here (order-preserving compaction).
  size_t kept = 0;
  for (const uint32_t i : live_) {
    Flow& f = flows_[i];
    if (f.links.empty()) {  // stalled: no delivery, window kept
      live_[kept++] = i;
      continue;
    }
    double u = 0;
    double share = 1.0;
    for (uint32_t di : f.links) {
      u = std::max(u, dlinks_[di].u);
      share = std::min(share, dlinks_[di].share);
    }
    const double delivered = std::min(f.remaining, f.window * share);
    f.remaining -= delivered;
    const bool done = f.remaining <= 0.5;
    // Whole bytes still owed: ceil(remaining), so delivered_bytes_ never
    // runs ahead of what was admitted.
    uint64_t owed = done ? 0 : static_cast<uint64_t>(f.remaining);
    if (!done && static_cast<double>(owed) < f.remaining) ++owed;
    delivered_bytes_ += f.owed - owed;
    f.owed = owed;
    if (done) {
      FlowRecord& rec = records_[i];
      ++completed_;
      rec.finish = now;
      rec.done = true;
      f.links.clear();
      if (completion_) completion_(rec, now);
      continue;
    }
    live_[kept++] = i;
    if (u >= params_.eta || f.stage >= params_.max_stage) {
      f.window =
          f.window * params_.eta / std::max(u, 1e-12) + params_.wai_bytes;
      f.stage = 0;
    } else {
      f.window += params_.wai_bytes;
      ++f.stage;
    }
    f.window = std::clamp(f.window, 1.0, f.window_cap);
  }
  live_.resize(kept);

  if (tick_observer_) tick_observer_(now);

  if (live_.empty() && !backlog) {
    // Idle: zero every port's fluid rate so interpolation stops advancing,
    // and end the periodic series (AddFlow restarts it).
    for (DirectedLink& d : dlinks_) {
      d.port->SetFluidState(0, 0, params_.qlen_cap_bytes);
      d.pushed_idle = true;
      d.queue = 0;
    }
    ticking_ = false;
    return false;
  }
  return true;
}

}  // namespace hpcc::analytic
