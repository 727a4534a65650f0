// Interned ECMP next-hop groups: the routing table of one switch, keyed by
// route key rather than by destination.
//
// A fabric-wide map (RouteKeys, owned by topo::Topology) gives every
// destination a route key: a degree-1 host is keyed by the switch it hangs
// off (its rack), a multi-homed host has a key of its own, and a host whose
// NIC link is down is keyed kUnreachable. Every path to a degree-1 host ends
// at its NIC link, so any other switch's ECMP candidates toward the host
// equal its candidates toward the rack switch: one slot per (switch, key)
// serves every host of a rack, and the rack switch answers its own hosts
// with their NIC port (net::SwitchNode::Lookup). Each distinct ordered port
// list is stored once ("group"):
//
//   key_group_[key] --> groups_[gid] --> ports_[offset .. offset+size)
//
// A table used on its own (no fabric key map) keys by destination node id.
// Group 0 is the interned empty group ("no route"); a fresh table routes
// nothing, and key kUnreachable is never assigned. Candidate order inside a
// group is preserved exactly as handed to SetRoute (ascending port index,
// the order Topology's BFS emits), so ECMP hashing (`SplitMix64(flow) %
// size`) picks byte-identical ports to a dense per-destination table.
//
// Groups are reference-counted: SetRoute/AddPort/RemovePort re-intern and
// move the refs; dead groups go to a free list and their port storage is
// compacted once more than half of it is garbage. Group ids are 16 bits (a
// switch holds at most one live group per key, far below 65535 on any
// builder; interning past that throws). All mutations are deterministic
// functions of the call sequence, so two identical runs build identical
// tables. Lookup() is the forwarding hot path; everything else is
// control-plane-only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpcc::net {

// Fabric-wide destination -> route key map, one per topology, shared read-only
// by all of its switches. Indexed by node id; switches (never destinations)
// are kUnreachable.
struct RouteKeys {
  static constexpr uint32_t kUnreachable = 0;
  static constexpr uint32_t kNoKey = 0xffffffffu;  // a switch with no rack
  std::vector<uint32_t> key;
  // For a rack-keyed host: the port its rack switch reaches it on.
  std::vector<uint16_t> nic_port;

  size_t resident_bytes() const {
    return key.capacity() * sizeof(uint32_t) +
           nic_port.capacity() * sizeof(uint16_t);
  }
};

class NextHopTable {
 public:
  static constexpr uint32_t kNoGroup = 0;  // the interned empty group

  NextHopTable() { InitEmptyGroup(); }

  // Drops every route and group and resizes the key map; all keys route
  // nowhere until SetRoute is called.
  void Reset(uint32_t num_keys);

  // Interns `ports[0..count)` (must be strictly ascending) and points `key`
  // at the resulting group. count == 0 maps key back to the empty group.
  void SetRoute(uint32_t key, const uint16_t* ports, uint32_t count);

  // Incremental repair: inserts/removes one port from key's candidate list
  // (keeping ascending order) by re-interning the patched list.
  void AddPort(uint32_t key, uint16_t port);
  void RemovePort(uint32_t key, uint16_t port);

  // Hot path: the candidate port list for key. size == 0 means no route.
  struct Group {
    const uint16_t* ports;
    uint32_t size;
  };
  Group Lookup(uint32_t key) const {
    const Meta& m = groups_[key_group_[key]];
    return Group{ports_.data() + m.offset, m.size};
  }
  uint32_t group_id(uint32_t key) const { return key_group_[key]; }

  uint32_t num_keys() const {
    return static_cast<uint32_t>(key_group_.size());
  }
  // Live (referenced) groups, excluding the always-present empty group.
  size_t num_groups() const { return live_groups_; }
  // Bytes resident in the table proper (key map + group metadata + port
  // storage + intern index). The figure the memory benchmarks report.
  size_t resident_bytes() const;

  // Copy of key's candidate list (tests and the route oracle).
  std::vector<uint16_t> PortsOf(uint32_t key) const;

  // Internal-invariant audit for tests: refcounts match key references,
  // groups are ascending and deduplicated. Returns false on corruption.
  bool CheckConsistency() const;

 private:
  struct Meta {
    uint32_t offset = 0;
    uint32_t size = 0;
    uint32_t refs = 0;
    uint64_t hash = 0;
  };

  // Interns an ordered port list once; AssignGroup points a key at it.
  // `ports` must not point into this table's own storage (interning may
  // reallocate it).
  uint32_t InternGroup(const uint16_t* ports, uint32_t count);
  void AssignGroup(uint32_t key, uint32_t gid);
  void InitEmptyGroup();
  static uint64_t HashPorts(const uint16_t* ports, uint32_t count);
  bool GroupEquals(uint32_t gid, const uint16_t* ports, uint32_t count) const;
  void ReleaseGroup(uint32_t gid);
  void MaybeCompact();

  std::vector<uint16_t> key_group_;
  std::vector<uint16_t> ports_;      // group port storage, append-only
  std::vector<Meta> groups_;         // gid -> meta; slot 0 = empty group
  // Open-addressing intern index: hash -> gid chains, rebuilt on growth.
  std::vector<uint32_t> index_;      // power-of-two; kEmptySlot when free
  static constexpr uint32_t kEmptySlot = 0xffffffffu;
  std::vector<uint32_t> free_gids_;  // dead group slots for reuse
  size_t live_groups_ = 0;
  size_t dead_port_slots_ = 0;
  size_t index_used_ = 0;

  void IndexInsert(uint32_t gid);
  void IndexErase(uint32_t gid);
  uint32_t IndexFind(uint64_t hash, const uint16_t* ports,
                     uint32_t count) const;
  void IndexGrow();
  std::vector<uint16_t> scratch_;    // patch buffer for Add/RemovePort
  uint32_t last_interned_ = kNoGroup;  // live group InternGroup last returned
};

}  // namespace hpcc::net
