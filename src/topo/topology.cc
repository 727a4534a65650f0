#include "topo/topology.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "net/packet.h"

namespace hpcc::topo {

Topology::Topology(sim::Simulator* simulator) : simulator_(simulator) {
  // Enabled by HPCC_ROUTE_ORACLE=1 (any non-empty value other than "0");
  // =0 or empty must keep the expensive oracle off.
  const char* oracle = std::getenv("HPCC_ROUTE_ORACLE");
  route_oracle_ =
      oracle != nullptr && oracle[0] != '\0' && std::string(oracle) != "0";
}

uint32_t Topology::AddHost(const host::HostConfig& config,
                           const std::string& name) {
  const auto id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(
      std::make_unique<host::HostNode>(simulator_, id, name, config));
  hosts_.push_back(id);
  adj_.emplace_back();
  return id;
}

uint32_t Topology::AddSwitch(const net::SwitchConfig& config,
                             const std::string& name) {
  const auto id = static_cast<uint32_t>(nodes_.size());
  auto sw = std::make_unique<net::SwitchNode>(simulator_, id, name, config);
  switch_ptrs_.push_back(sw.get());
  nodes_.push_back(std::move(sw));
  switches_.push_back(id);
  adj_.emplace_back();
  return id;
}

void Topology::AddLink(uint32_t a, uint32_t b, int64_t bps,
                       sim::TimePs delay) {
  assert(!finalized_);
  net::Node& na = *nodes_[a];
  net::Node& nb = *nodes_[b];
  const int pa = na.AddPort(std::make_unique<net::Port>(&na, na.num_ports(),
                                                        bps, delay));
  const int pb = nb.AddPort(std::make_unique<net::Port>(&nb, nb.num_ports(),
                                                        bps, delay));
  na.port(pa).ConnectTo(&nb, pb);
  nb.port(pb).ConnectTo(&na, pa);
  const size_t link = links_.size();
  links_.push_back(LinkSpec{a, pa, b, pb, bps, delay});
  adj_[a].push_back(Edge{link, pa, b});
  adj_[b].push_back(Edge{link, pb, a});
}

host::HostNode& Topology::host(uint32_t id) {
  auto* h = dynamic_cast<host::HostNode*>(nodes_[id].get());
  if (h == nullptr) throw std::invalid_argument("node is not a host");
  return *h;
}

net::SwitchNode& Topology::switch_node(uint32_t id) {
  auto* s = dynamic_cast<net::SwitchNode*>(nodes_[id].get());
  if (s == nullptr) throw std::invalid_argument("node is not a switch");
  return *s;
}

std::vector<int> Topology::Bfs(const std::vector<std::vector<Edge>>& adj,
                               uint32_t from, bool respect_link_state) const {
  std::vector<int> dist(nodes_.size(), -1);
  std::vector<uint32_t> queue{from};
  dist[from] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const uint32_t n = queue[head];
    for (const Edge& e : adj[n]) {
      if (respect_link_state && !links_[e.link].up) continue;
      if (dist[e.peer] < 0) {
        dist[e.peer] = dist[n] + 1;
        queue.push_back(e.peer);
      }
    }
  }
  return dist;
}

std::vector<int> Topology::BfsDistances(uint32_t from,
                                        bool respect_link_state) const {
  return Bfs(adj_, from, respect_link_state);
}

std::vector<int> Topology::RouteDistances(uint32_t from) const {
  // The route graph holds live links only; rack-keyed hosts stay at -1.
  return Bfs(route_adj_, from, /*respect_link_state=*/false);
}

void Topology::RebuildRouteEdges(uint32_t n) {
  std::vector<Edge>& out = route_adj_[n];
  out.clear();
  if (RackSwitchOf(n) != kNoNode) return;
  for (const Edge& e : adj_[n]) {
    if (links_[e.link].up && RackSwitchOf(e.peer) == kNoNode) {
      out.push_back(e);
    }
  }
}

uint32_t Topology::RackSwitchOf(uint32_t n) const {
  if (nodes_[n]->IsSwitch() || adj_[n].size() != 1) return kNoNode;
  const uint32_t peer = adj_[n].front().peer;
  return nodes_[peer]->IsSwitch() ? peer : kNoNode;
}

void Topology::AssignRouteKeys() {
  // Key 0 is kUnreachable; then keys in host order: a rack key the first
  // time a rack switch shows up, an own key for every other host. Numbering
  // is structural (link states only pick kUnreachable), so identically
  // built topologies number identically and can share snapshot tables.
  route_keys_.key.assign(nodes_.size(), net::RouteKeys::kUnreachable);
  route_keys_.nic_port.assign(nodes_.size(), 0);
  key_target_.assign(1, kNoNode);
  std::vector<uint32_t> rack_key(nodes_.size(), net::RouteKeys::kNoKey);
  for (const uint32_t h : hosts_) {
    const uint32_t via = RackSwitchOf(h);
    if (via == kNoNode) {
      route_keys_.key[h] = static_cast<uint32_t>(key_target_.size());
      key_target_.push_back(h);
      continue;
    }
    if (rack_key[via] == net::RouteKeys::kNoKey) {
      rack_key[via] = static_cast<uint32_t>(key_target_.size());
      key_target_.push_back(via);
    }
    const LinkSpec& l = links_[adj_[h].front().link];
    route_keys_.nic_port[h] =
        static_cast<uint16_t>(l.a == via ? l.port_a : l.port_b);
    if (l.up) route_keys_.key[h] = rack_key[via];
  }
  for (net::SwitchNode* sw : switch_ptrs_) {
    sw->SetRouteKeys(&route_keys_, rack_key[sw->id()]);
  }
  route_adj_.assign(nodes_.size(), {});
  for (uint32_t n = 0; n < nodes_.size(); ++n) RebuildRouteEdges(n);
}

void Topology::CollectCandidates(uint32_t node, const std::vector<int>& dist,
                                 std::vector<uint16_t>* cand) const {
  // A node's ECMP set toward the BFS root: every live port whose peer is
  // one hop closer. Candidate order is adjacency order == ascending port
  // index, the canonical group order.
  cand->clear();
  if (dist[node] <= 0) return;
  for (const Edge& e : route_adj_[node]) {
    if (dist[e.peer] == dist[node] - 1) {
      cand->push_back(static_cast<uint16_t>(e.port));
    }
  }
}

void Topology::RebuildKeys(const std::vector<uint32_t>& keys) {
  // One BFS per key, from the node the key routes toward. A rack switch's
  // slot for its own key stays empty: it answers its hosts by NIC port.
  std::vector<uint16_t>& cand = cand_scratch_;
  for (const uint32_t key : keys) {
    const uint32_t target = key_target_[key];
    const std::vector<int> dist = RouteDistances(target);
    for (net::SwitchNode* sw : switch_ptrs_) {
      if (sw->id() == target) continue;
      CollectCandidates(sw->id(), dist, &cand);
      sw->mutable_routes().SetRoute(key, cand.data(),
                                    static_cast<uint32_t>(cand.size()));
    }
  }
}

class Topology::RouteTimer {
 public:
  explicit RouteTimer(Topology* t) : t_(t) {
    if (t_->route_timer_depth_++ == 0) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~RouteTimer() {
    if (--t_->route_timer_depth_ == 0) {
      t_->route_compute_seconds_ +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
    }
  }
  RouteTimer(const RouteTimer&) = delete;
  RouteTimer& operator=(const RouteTimer&) = delete;

 private:
  Topology* t_;
  std::chrono::steady_clock::time_point start_;
};

void Topology::RecomputeRoutes() {
  RouteTimer timer(this);
  const auto num_keys = static_cast<uint32_t>(key_target_.size());
  for (net::SwitchNode* sw : switch_ptrs_) {
    // Reset rebuilds from scratch, so a shared snapshot view detaches
    // without the copy.
    sw->mutable_routes(/*preserve=*/false).Reset(num_keys);
  }
  std::vector<uint32_t> keys;
  for (uint32_t key = 1; key < num_keys; ++key) keys.push_back(key);
  RebuildKeys(keys);
}

void Topology::Finalize() {
  assert(!finalized_);
  finalized_ = true;
  {
    RouteTimer timer(this);
    AssignRouteKeys();
  }
  if (adopted_snapshot_ != nullptr &&
      adopted_snapshot_->routes.size() == switches_.size() &&
      (switches_.empty() ||
       adopted_snapshot_->routes.front().num_keys() == key_target_.size())) {
    // Warm start: alias the snapshot's immutable tables instead of running
    // the route BFS. A later mutation (link event) detaches just the
    // switches it touches (SwitchNode::mutable_routes).
    for (size_t i = 0; i < switches_.size(); ++i) {
      switch_ptrs_[i]->AdoptRouteView(&adopted_snapshot_->routes[i]);
    }
    if (adopted_snapshot_->path_model != nullptr) {
      path_model_ = adopted_snapshot_->path_model;
    }
    max_base_rtt_cache_ = adopted_snapshot_->max_base_rtt;
  } else {
    adopted_snapshot_ = nullptr;
    RecomputeRoutes();
  }
  for (uint32_t s : switches_) {
    switch_node(s).FinishSetup();
  }
}

std::shared_ptr<const FabricSnapshot> Topology::ExportSnapshot(
    uint64_t signature) const {
  assert(finalized_);
  auto snap = std::make_shared<FabricSnapshot>();
  snap->signature = signature;
  snap->routes.reserve(switches_.size());
  for (const net::SwitchNode* sw : switch_ptrs_) {
    snap->routes.push_back(sw->routes());
  }
  snap->path_model = path_model_;
  snap->max_base_rtt = MaxBaseRtt();
  return snap;
}

void Topology::SetLinkUp(size_t link_index, bool up) {
  LinkSpec& l = links_[link_index];
  if (l.up == up) return;
  if (!finalized_) {
    // No routing tables exist yet (Reset runs at Finalize, which will build
    // routes from the link states current then); classifying against the
    // unsized tables would read out of bounds.
    l.up = up;
    nodes_[l.a]->port(l.port_a).SetLinkUp(up);
    nodes_[l.b]->port(l.port_b).SetLinkUp(up);
    return;
  }

  RouteTimer timer(this);
  // The NIC link of a rack-keyed host: the host is a leaf on no other
  // key's path, and its rack key's slots keep routing toward the rack
  // switch whether or not any of its hosts is up. Only its key changes.
  for (const uint32_t end : {l.a, l.b}) {
    const uint32_t via = RackSwitchOf(end);
    if (via == kNoNode) continue;
    l.up = up;
    nodes_[l.a]->port(l.port_a).SetLinkUp(up);
    nodes_[l.b]->port(l.port_b).SetLinkUp(up);
    route_keys_.key[end] = up ? static_cast<const net::SwitchNode&>(*nodes_[via]).rack_key()
                              : net::RouteKeys::kUnreachable;
    if (route_oracle_) VerifyRoutesAgainstOracle();
    return;
  }

  // Classify every route key against the flapped link using two BFS
  // passes seeded at its endpoints, over the pre-change fabric. `t` is the
  // node the key routes toward (its rack switch, or the host itself):
  //
  //   |d(a,t) - d(b,t)| == 0  ->  the link is on no shortest path to t and
  //       (up or down) opens/closes none: untouched.
  //   |diff| == 1  ->  only the farther endpoint's ECMP group toward t
  //       changes (it gains/loses the port across the link); distances are
  //       provably unchanged as long as, on a down, the farther endpoint
  //       keeps at least one other parent. O(1) group patch.
  //   otherwise (|diff| >= 2 on up, lost-last-parent on down, or a
  //       partition heal)  ->  distances shift and changes can cascade:
  //       rebuild that key with one BFS, or fall back to a full
  //       RecomputeRoutes when too many keys need it.
  const std::vector<int> da = RouteDistances(l.a);
  const std::vector<int> db = RouteDistances(l.b);

  struct Patch {
    net::SwitchNode* sw;
    uint32_t key;
    uint16_t port;
    bool add;
  };
  std::vector<Patch> patches;
  std::vector<uint32_t> rebuild;
  for (uint32_t key = 1; key < key_target_.size(); ++key) {
    const uint32_t t = key_target_[key];
    const int xa = da[t];
    const int xb = db[t];
    if (xa < 0 && xb < 0) continue;  // neither endpoint reaches t
    if (xa < 0 || xb < 0) {
      // Only possible on an up: the link heals a partition for t.
      rebuild.push_back(key);
      continue;
    }
    const int diff = xa - xb;
    if (diff == 0) continue;
    if (diff > 1 || diff < -1) {
      // Only possible on an up (endpoints were not adjacent): the new link
      // shortens paths toward t.
      rebuild.push_back(key);
      continue;
    }
    // |diff| == 1: the endpoint farther from t routes across the link.
    const uint32_t farther = diff > 0 ? l.a : l.b;
    const uint16_t fport =
        static_cast<uint16_t>(diff > 0 ? l.port_a : l.port_b);
    net::Node& fn = *nodes_[farther];
    if (!fn.IsSwitch()) {
      // Hosts hold no routing table. A degree-1 host is a leaf nothing
      // routes through, so no switch table changes; a multi-homed host
      // losing a parent can shift distances for switches routing through
      // it — rebuild exactly.
      if (!up && adj_[farther].size() > 1) rebuild.push_back(key);
      continue;
    }
    auto* sw = static_cast<net::SwitchNode*>(&fn);
    if (up) {
      patches.push_back(Patch{sw, key, fport, /*add=*/true});
      continue;
    }
    const net::NextHopTable::Group g = sw->routes().Lookup(key);
    const bool has_port =
        std::binary_search(g.ports, g.ports + g.size, fport);
    if (g.size >= 2 && has_port) {
      patches.push_back(Patch{sw, key, fport, /*add=*/false});
    } else {
      // Last parent lost (or an unexpected table state): exact rebuild.
      rebuild.push_back(key);
    }
  }

  l.up = up;
  nodes_[l.a]->port(l.port_a).SetLinkUp(up);
  nodes_[l.b]->port(l.port_b).SetLinkUp(up);
  RebuildRouteEdges(l.a);
  RebuildRouteEdges(l.b);

  // Beyond this bound incremental repair is no cheaper than one
  // from-scratch pass, so it degrades gracefully to the full rebuild.
  const size_t bound = std::max<size_t>(key_target_.size() / 2, 16);
  if (rebuild.size() > bound) {
    RecomputeRoutes();
  } else {
    for (const Patch& p : patches) {
      if (p.add) {
        p.sw->mutable_routes().AddPort(p.key, p.port);
      } else {
        p.sw->mutable_routes().RemovePort(p.key, p.port);
      }
    }
    RebuildKeys(rebuild);
  }
  if (route_oracle_) VerifyRoutesAgainstOracle();
}

void Topology::VerifyRoutesAgainstOracle() {
  // Dense from-scratch recomputation (the seed algorithm, shared with
  // nothing above): one BFS per host, candidates re-derived directly.
  for (const uint32_t dst : hosts_) {
    const std::vector<int> dist = BfsDistances(dst);
    for (net::SwitchNode* sw : switch_ptrs_) {
      const uint32_t s = sw->id();
      std::vector<uint16_t> want;
      if (s != dst && dist[s] > 0) {
        for (const Edge& e : adj_[s]) {
          if (!links_[e.link].up) continue;
          if (dist[e.peer] >= 0 && dist[e.peer] == dist[s] - 1) {
            want.push_back(static_cast<uint16_t>(e.port));
          }
        }
      }
      if (want != sw->PortsOf(dst)) {
        throw std::logic_error(
            "route oracle mismatch: switch " + sw->name() + " dst " +
            nodes_[dst]->name() + " has a different ECMP set than a dense "
            "recomputation");
      }
    }
  }
  for (net::SwitchNode* sw : switch_ptrs_) {
    if (!sw->routes().CheckConsistency()) {
      throw std::logic_error("next-hop table inconsistency on switch " +
                             sw->name());
    }
  }
}

int Topology::Distance(uint32_t from, uint32_t to) const {
  return BfsDistances(from)[to];
}

int Topology::PathHops(uint32_t src, uint32_t dst) const {
  return Distance(src, dst);
}

std::vector<size_t> Topology::ShortestPathLinks(uint32_t src,
                                                uint32_t dst) const {
  // Ideal-FCT/base-RTT queries describe the *designed* topology, ignoring
  // transient link failures: a flow whose last ACK lands just after a
  // failure partitions the fabric must normalize against the same
  // denominator as one completing just before it. (Walking live distances
  // here also used to loop forever on a partitioned graph — found by
  // fuzz_scenarios, pinned by topology_test.IdealFctStableAcrossLinkFlap.)
  const std::vector<int> dist = BfsDistances(dst, /*respect_link_state=*/false);
  assert(dist[src] >= 0 && "no path");
  std::vector<size_t> path;
  uint32_t n = src;
  while (n != dst) {
    bool advanced = false;
    for (const Edge& e : adj_[n]) {
      if (dist[e.peer] == dist[n] - 1) {
        path.push_back(e.link);
        n = e.peer;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;  // disconnected-by-construction: never loop
  }
  return path;
}

bool Topology::EcmpPath(uint32_t src, uint32_t dst, uint64_t flow_id,
                        std::vector<Hop>* out) const {
  out->clear();
  if (src == dst || nodes_[src]->IsSwitch() || adj_[src].empty()) {
    return false;
  }
  uint32_t n = src;
  int port =
      static_cast<const host::HostNode&>(*nodes_[src]).PickPort(flow_id);
  // Tables built by BFS strictly decrease the distance to dst at every hop;
  // the bound only guards against a walk that never arrives.
  for (size_t hops = 0; hops < nodes_.size(); ++hops) {
    // adj_[n] lists n's links in port order (AddLink adds both together).
    const Edge& e = adj_[n][static_cast<size_t>(port)];
    const LinkSpec& l = links_[e.link];
    if (!l.up) return false;
    out->push_back(
        Hop{static_cast<uint32_t>(e.link), l.a == n && l.port_a == port});
    n = e.peer;
    if (n == dst) return true;
    if (!nodes_[n]->IsSwitch()) return false;
    port = static_cast<const net::SwitchNode&>(*nodes_[n]).RoutePort(flow_id,
                                                                     dst);
    if (port < 0) return false;
  }
  return false;
}

sim::TimePs Topology::LinkRttCost(int64_t bps, sim::TimePs delay) {
  const int data_bytes = net::kPayloadBytes + net::kDataHeaderBytes +
                         core::IntStack::kWorstCaseWireBytes;
  return 2 * delay +                                  // both directions
         sim::SerializationTime(data_bytes, bps) +    // data forward
         sim::SerializationTime(net::kAckHeaderBytes, bps);  // ack back
}

sim::TimePs Topology::BaseRttViaBfs(uint32_t src, uint32_t dst) const {
  sim::TimePs rtt = 0;
  for (size_t li : ShortestPathLinks(src, dst)) {
    const LinkSpec& l = links_[li];
    rtt += LinkRttCost(l.bps, l.delay);
  }
  return rtt;
}

sim::TimePs Topology::BaseRtt(uint32_t src, uint32_t dst) const {
  PathModel::Profile p;
  if (path_model_ != nullptr && path_model_->Links(src, dst, &p)) {
    sim::TimePs rtt = 0;
    for (int i = 0; i < p.num_segs; ++i) {
      rtt += p.segs[i].count * LinkRttCost(p.segs[i].bps, p.segs[i].delay);
    }
    return rtt;
  }
  return BaseRttViaBfs(src, dst);
}

sim::TimePs Topology::MaxBaseRtt() const {
  // Adopted-snapshot fast path: the exporting topology already measured it.
  if (max_base_rtt_cache_ >= 0) return max_base_rtt_cache_;
  if (path_model_ != nullptr) {
    uint32_t src = 0;
    uint32_t dst = 0;
    if (path_model_->MaxRttPair(&src, &dst)) return BaseRtt(src, dst);
    // Fall through to the exact sweep when the model declines.
  }
  // Exact over every host pair: one BFS per destination, then propagate the
  // first-parent path cost down the distance layers — cost[src] equals
  // BaseRtt(src, dst) because ShortestPathLinks walks the same first
  // adjacent parent at every step.
  sim::TimePs best = 0;
  std::vector<uint32_t> order(nodes_.size());
  std::vector<sim::TimePs> cost(nodes_.size());
  for (const uint32_t dst : hosts_) {
    const std::vector<int> dist =
        BfsDistances(dst, /*respect_link_state=*/false);
    order.clear();
    for (uint32_t n = 0; n < nodes_.size(); ++n) {
      if (dist[n] >= 0) order.push_back(n);
    }
    std::sort(order.begin(), order.end(),
              [&dist](uint32_t x, uint32_t y) { return dist[x] < dist[y]; });
    for (const uint32_t n : order) {
      if (dist[n] == 0) {
        cost[n] = 0;
        continue;
      }
      for (const Edge& e : adj_[n]) {
        if (dist[e.peer] == dist[n] - 1) {
          cost[n] = cost[e.peer] + LinkRttCost(links_[e.link].bps,
                                               links_[e.link].delay);
          break;
        }
      }
    }
    for (const uint32_t src : hosts_) {
      if (src != dst && dist[src] > 0) best = std::max(best, cost[src]);
    }
  }
  return best;
}

int64_t Topology::BottleneckBpsViaBfs(uint32_t src, uint32_t dst) const {
  int64_t bps = std::numeric_limits<int64_t>::max();
  for (size_t li : ShortestPathLinks(src, dst)) {
    bps = std::min(bps, links_[li].bps);
  }
  return bps;
}

int64_t Topology::BottleneckBps(uint32_t src, uint32_t dst) const {
  PathModel::Profile p;
  if (path_model_ != nullptr && path_model_->Links(src, dst, &p)) {
    int64_t bps = std::numeric_limits<int64_t>::max();
    for (int i = 0; i < p.num_segs; ++i) bps = std::min(bps, p.segs[i].bps);
    return bps;
  }
  return BottleneckBpsViaBfs(src, dst);
}

sim::TimePs Topology::IdealFct(uint32_t src, uint32_t dst,
                               uint64_t bytes) const {
  // Standalone transfer: all packets back-to-back at the bottleneck, plus one
  // base RTT (first byte propagation + last ACK). Header overhead uses the
  // INT-free header so the denominator is identical across schemes.
  const int64_t bottleneck = BottleneckBps(src, dst);
  const uint64_t mtu = net::kPayloadBytes;
  const uint64_t full = bytes / mtu;
  const uint64_t rem = bytes % mtu;
  uint64_t wire_bytes =
      full * (mtu + net::kDataHeaderBytes) +
      (rem > 0 ? rem + net::kDataHeaderBytes : 0);
  if (bytes == 0) wire_bytes = net::kDataHeaderBytes;
  return sim::SerializationTime(static_cast<int64_t>(wire_bytes),
                                bottleneck) +
         BaseRtt(src, dst);
}

size_t Topology::RoutingResidentBytes() const {
  size_t total = route_keys_.resident_bytes();
  for (const net::SwitchNode* sw : switch_ptrs_) {
    total += sw->routes().resident_bytes();
  }
  return total;
}

size_t Topology::RoutingExpandedPortEntries() const {
  size_t total = 0;
  for (const net::SwitchNode* sw : switch_ptrs_) {
    for (uint32_t dst = 0; dst < nodes_.size(); ++dst) {
      total += sw->Lookup(dst).size;
    }
  }
  return total;
}

size_t Topology::RoutingGroups() const {
  size_t total = 0;
  for (const net::SwitchNode* sw : switch_ptrs_) {
    total += sw->routes().num_groups();
  }
  return total;
}

}  // namespace hpcc::topo
