// Immutable fabric snapshot: the routing state of a finalized topology,
// shareable read-only across every job of a sweep.
//
// Building a big fabric's routes (one BFS per rack plus group interning) is
// the dominant per-job setup cost, yet the tables depend only on the graph
// shape — not on the CC scheme, load, or seed a sweep varies. A sweep
// therefore builds them once, exports this snapshot, and every other job
// adopts it: each switch's read view aliases the snapshot's table and only
// detaches onto a private copy on its first route mutation (link-event
// scripts fork just the switches they touch — see
// net::SwitchNode::mutable_routes). Sweep setup drops from
// O(jobs x fabric) to O(fabric).
//
// The tables are keyed by route key (net/nexthop.h). Key numbering is
// structural, so every identically built topology numbers its keys the same
// way; each job builds its own destination -> key map (O(nodes), a NIC
// flap edits it in place) and only the per-switch tables are shared.
//
// Thread-safety: all members are immutable after construction; concurrent
// sweep workers read them without synchronization. NextHopTable::Lookup and
// the PathModel queries are const and allocation-free.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/nexthop.h"
#include "sim/time.h"

namespace hpcc::topo {

class PathModel;

struct FabricSnapshot {
  // Per-switch routing tables (route key -> ECMP group), in
  // Topology::switches() order.
  std::vector<net::NextHopTable> routes;
  // The builder's analytic path model (may be null for irregular fabrics);
  // shared because its queries are const.
  std::shared_ptr<const PathModel> path_model;
  // Cached Topology::MaxBaseRtt() — the expensive all-pairs sweep runs once
  // per grid, not once per job.
  sim::TimePs max_base_rtt = 0;
  // Hash of the topology configuration that built this snapshot (the cache
  // key; recorded as manifest provenance).
  uint64_t signature = 0;
};

}  // namespace hpcc::topo
