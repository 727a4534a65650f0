// Topology: owns all nodes, wires links, computes shortest-path ECMP routes,
// and provides base-RTT / ideal-FCT queries for FCT-slowdown accounting.
//
// Routing state (net/nexthop.h) is one fabric-wide destination -> route key
// map plus, per switch, an interned next-hop-group table: route key ->
// shared ECMP port set. A degree-1 host is keyed by its rack switch, so
// per-switch state grows with racks, not hosts. Topology is the only writer:
// Finalize() numbers the keys, Finalize()/RecomputeRoutes() build the
// tables from scratch, and SetLinkUp() repairs them per key (see the
// implementation notes on SetLinkUp) instead of rebuilding every table on
// every link event.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "host/host_node.h"
#include "net/node.h"
#include "net/switch_node.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "topo/snapshot.h"

namespace hpcc::topo {

struct LinkSpec {
  uint32_t a;
  int port_a;
  uint32_t b;
  int port_b;
  int64_t bps;
  sim::TimePs delay;
  bool up = true;
};

// Analytic path model a regular-fabric builder can install so the
// designed-topology queries (BaseRtt / BottleneckBps / IdealFct /
// MaxBaseRtt) answer in O(1) from structural arithmetic instead of a BFS
// per call. The model must agree exactly with the BFS answers — the routing
// tests compare them pairwise — since IdealFct is the denominator of FCT
// slowdown and any drift would shift every reported number.
class PathModel {
 public:
  struct Seg {
    int64_t bps = 0;
    sim::TimePs delay = 0;
    int count = 0;
  };
  // Link composition of one designed-topology shortest path, grouped by
  // (bps, delay). Order is irrelevant: every per-link quantity we sum is
  // commutative.
  struct Profile {
    std::array<Seg, 3> segs;
    int num_segs = 0;
  };
  virtual ~PathModel() = default;
  // Fills the composition of a shortest src -> dst path. Returns false when
  // the model cannot answer (caller falls back to BFS).
  virtual bool Links(uint32_t src, uint32_t dst, Profile* out) const = 0;
  // A host pair attaining the maximum BaseRtt. False when fewer than two
  // hosts exist.
  virtual bool MaxRttPair(uint32_t* src, uint32_t* dst) const = 0;
};

class Topology {
 public:
  explicit Topology(sim::Simulator* simulator);

  uint32_t AddHost(const host::HostConfig& config, const std::string& name);
  uint32_t AddSwitch(const net::SwitchConfig& config, const std::string& name);
  // Full-duplex link: one egress port on each side.
  void AddLink(uint32_t a, uint32_t b, int64_t bps, sim::TimePs delay);

  // Computes BFS ECMP routing tables and finalizes switch buffers. Must be
  // called once after all nodes/links are added, before the simulation runs.
  void Finalize();

  // Link failure / repair: takes the link down (both directions stop
  // transmitting; in-flight packets still arrive) and repairs the routing
  // tables around it. Flows rehash onto surviving paths; HPCC senders
  // notice via the INT pathID and reset their link records (§4.1).
  //
  // Repair is incremental and per route key. The NIC link of a rack-keyed
  // host only flips that host's key between its rack and kUnreachable.
  // Any other link: two BFS passes seeded at the link endpoints classify
  // every key as untouched, patchable in O(1) (one ECMP group gains/loses
  // the flapped port), or distance-changed (rebuilt with one BFS from the
  // key's rack switch or host); a full RecomputeRoutes runs only when the
  // distance-changed set exceeds a bound. The result is exactly equal to a
  // from-scratch rebuild — pinned by the storm tests and, when
  // set_route_oracle(true) (or HPCC_ROUTE_ORACLE=1), re-verified against a
  // dense recomputation after every call.
  void SetLinkUp(size_t link_index, bool up);
  // Rebuilds every ECMP table from the current link states.
  void RecomputeRoutes();

  // Installs an analytic designed-topology path model (regular builders).
  void SetPathModel(std::unique_ptr<PathModel> model) {
    path_model_ = std::move(model);
  }

  // --- Fabric snapshots (warm-start sweeps; topo/snapshot.h) -------------
  // Captures the finalized routing tables, path model and measured
  // MaxBaseRtt into an immutable snapshot shareable across sweep jobs.
  // Call after Finalize and before any link event mutates routes.
  // `signature` is the caller's cache key for this fabric configuration
  // (recorded in the snapshot for manifest provenance).
  std::shared_ptr<const FabricSnapshot> ExportSnapshot(
      uint64_t signature = 0) const;
  // Pre-Finalize: Finalize() will adopt `snap`'s tables as shared read
  // views instead of running the route BFS. The snapshot must come from an
  // identically built topology (same nodes, links, initial link states) —
  // the sweep runner keys its cache on the topology configuration.
  void AdoptSnapshot(std::shared_ptr<const FabricSnapshot> snap) {
    adopted_snapshot_ = std::move(snap);
  }
  // The snapshot Finalize adopted (null on a cold build).
  const std::shared_ptr<const FabricSnapshot>& adopted_snapshot() const {
    return adopted_snapshot_;
  }

  // Cumulative wall-clock seconds spent building or repairing routes
  // (Finalize, RecomputeRoutes, SetLinkUp). Telemetry self-profiling only —
  // machine-dependent, never part of deterministic output.
  double route_compute_seconds() const { return route_compute_seconds_; }

  net::Node& node(uint32_t id) { return *nodes_[id]; }
  host::HostNode& host(uint32_t id);
  net::SwitchNode& switch_node(uint32_t id);
  size_t num_nodes() const { return nodes_.size(); }
  const std::vector<uint32_t>& hosts() const { return hosts_; }
  const std::vector<uint32_t>& switches() const { return switches_; }
  const std::vector<LinkSpec>& links() const { return links_; }
  sim::Simulator& simulator() { return *simulator_; }

  // Number of links on a shortest path src -> dst over currently-up links
  // (-1 when the live topology has no path).
  int PathHops(uint32_t src, uint32_t dst) const;
  // Base (unloaded) RTT: forward MTU-sized data + returning ACK.
  sim::TimePs BaseRtt(uint32_t src, uint32_t dst) const;
  // Max base RTT over all host pairs (the "T" configured into CC, §5.1).
  // Exact: either the builder's analytic model answers, or every host pair
  // is covered by one cost-propagating BFS per destination — sampling
  // against an arbitrary anchor host under-reports T on asymmetric fabrics
  // and would mis-configure every scheme's RTT constant.
  sim::TimePs MaxBaseRtt() const;
  // Lowest link capacity on a shortest path.
  int64_t BottleneckBps(uint32_t src, uint32_t dst) const;
  // Standalone FCT of a `bytes`-long flow (denominator of FCT slowdown):
  // wire time of all its packets at the bottleneck + base RTT. Like BaseRtt
  // and BottleneckBps, computed over the designed topology (link failures
  // ignored) so the normalization is stable across a run with link events.
  sim::TimePs IdealFct(uint32_t src, uint32_t dst, uint64_t bytes) const;

  // BFS hop distance between any two nodes (PFC propagation depth metric).
  int Distance(uint32_t from, uint32_t to) const;

  // One shortest path (first-parent BFS) as a sequence of LinkSpec indices
  // in src -> dst walk order, over the designed topology (link state
  // ignored): the oracle behind BaseRttViaBfs / BottleneckBpsViaBfs.
  std::vector<size_t> ShortestPathLinks(uint32_t src, uint32_t dst) const;

  // One traversed link of an EcmpPath, with the egress side it leaves from.
  struct Hop {
    uint32_t link = 0;
    bool a_to_b = true;  // egress is LinkSpec::a (else LinkSpec::b)
  };
  // The links a packet of flow `flow_id` traverses src -> dst right now:
  // the NIC HostNode::PickPort chooses, then SwitchNode::RoutePort over the
  // live routing tables at every switch. O(hops), no BFS. Fills `out` in
  // walk order and returns true; returns false (with `out` partial) when
  // the flow has no live path — a down link on the way, a switch without a
  // route, or a walk that strays to another host.
  bool EcmpPath(uint32_t src, uint32_t dst, uint64_t flow_id,
                std::vector<Hop>* out) const;

  // BFS-only variants bypassing the analytic model — the oracle the model
  // equality tests compare against.
  sim::TimePs BaseRttViaBfs(uint32_t src, uint32_t dst) const;
  int64_t BottleneckBpsViaBfs(uint32_t src, uint32_t dst) const;

  // Routing footprint: every switch's table plus the shared key map
  // (memory benchmarks).
  size_t RoutingResidentBytes() const;
  // The fabric-wide destination -> route key map (valid after Finalize).
  const net::RouteKeys& route_keys() const { return route_keys_; }
  // Port entries a dense per-destination table would hold, and the number of
  // distinct interned groups actually holding them.
  size_t RoutingExpandedPortEntries() const;
  size_t RoutingGroups() const;

  // Debug oracle: when enabled, every SetLinkUp re-derives the dense tables
  // from scratch and throws std::logic_error on any divergence. Defaults to
  // the HPCC_ROUTE_ORACLE environment variable.
  void set_route_oracle(bool on) { route_oracle_ = on; }
  // Compares every switch's per-destination answer against a dense
  // recomputation (and each table's internal invariants); throws
  // std::logic_error on mismatch.
  void VerifyRoutesAgainstOracle();

 private:
  // RAII wall-clock accumulator into route_compute_seconds_; nesting-aware
  // so SetLinkUp falling back to RecomputeRoutes counts once.
  class RouteTimer;

  // adjacency: node -> list of (link index, out port, peer)
  struct Edge {
    size_t link;
    int port;
    uint32_t peer;
  };
  std::vector<int> Bfs(const std::vector<std::vector<Edge>>& adj,
                       uint32_t from, bool respect_link_state) const;
  std::vector<int> BfsDistances(uint32_t from,
                                bool respect_link_state = true) const;
  // Live-link distances over the route graph (route_adj_).
  std::vector<int> RouteDistances(uint32_t from) const;
  // Re-derives route_adj_[n] from adj_ and the current link states.
  void RebuildRouteEdges(uint32_t n);
  // RTT contribution of one traversed link: both-way propagation + forward
  // data serialization + returning ACK serialization.
  static sim::TimePs LinkRttCost(int64_t bps, sim::TimePs delay);

  static constexpr uint32_t kNoNode = 0xffffffffu;
  // The switch a degree-1 host hangs off (its rack), whatever the link's
  // state; kNoNode for a switch, a multi-homed host, or a host on a host.
  uint32_t RackSwitchOf(uint32_t n) const;
  // Numbers the route keys (structural: kUnreachable, then one per rack
  // switch and one per other host, in host order), fills the key map from
  // the current NIC link states, points every switch at it and builds the
  // route graph.
  void AssignRouteKeys();
  // ECMP candidates of `node` toward the root of the `dist` BFS (ascending
  // port order) — the single definition the full and incremental rebuild
  // paths share. The oracle keeps its own independent copy on purpose.
  void CollectCandidates(uint32_t node, const std::vector<int>& dist,
                         std::vector<uint16_t>* cand) const;
  // Rebuilds every switch's group toward each of `keys`, one BFS per key.
  // Both the full pass (every key, on freshly reset tables) and incremental
  // repair (the distance-changed subset) funnel through this, so the two
  // can never diverge.
  void RebuildKeys(const std::vector<uint32_t>& keys);

  sim::Simulator* simulator_;
  std::vector<std::unique_ptr<net::Node>> nodes_;
  std::vector<uint32_t> hosts_;
  std::vector<uint32_t> switches_;
  std::vector<net::SwitchNode*> switch_ptrs_;  // switches_, typed
  std::vector<LinkSpec> links_;
  std::vector<std::vector<Edge>> adj_;
  // The route graph: adj_ restricted to live links, without rack-keyed
  // hosts. A rack-keyed host is a leaf — on no shortest path between two
  // other nodes, never a key's target, never a switch's candidate toward
  // one — so route BFS and ECMP candidate collection skip it and a rack
  // costs its switch's uplinks only. Empty before Finalize.
  std::vector<std::vector<Edge>> route_adj_;
  // dst -> route key, and key -> the node it routes toward (its rack switch
  // or the host itself; entry 0, kUnreachable, is unused).
  net::RouteKeys route_keys_;
  std::vector<uint32_t> key_target_;
  std::shared_ptr<const PathModel> path_model_;
  // Keeps an adopted snapshot's tables alive while switches alias them.
  std::shared_ptr<const FabricSnapshot> adopted_snapshot_;
  sim::TimePs max_base_rtt_cache_ = -1;  // < 0 = not cached
  std::vector<uint16_t> cand_scratch_;
  bool finalized_ = false;
  bool route_oracle_ = false;
  double route_compute_seconds_ = 0;
  int route_timer_depth_ = 0;
};

}  // namespace hpcc::topo
