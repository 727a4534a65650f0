// Scale-out routing core: interned next-hop groups keyed by route key (a
// rack, not a host), incremental link-event repair (vs a from-scratch dense
// oracle), a k=64-shaped routing smoke, the fat-tree analytic path model,
// exact MaxBaseRtt on asymmetric fabrics, and the Release-safe out-of-range
// destination drop.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/nexthop.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "topo/fattree.h"
#include "topo/simple.h"
#include "topo/testbed.h"
#include "topo/topology.h"

namespace hpcc::topo {
namespace {

// ---- NextHopTable unit coverage ---------------------------------------------

TEST(NextHopTable, InternsAndSharesGroups) {
  net::NextHopTable t;
  t.Reset(8);
  const uint16_t ab[] = {1, 3};
  const uint16_t c[] = {2};
  t.SetRoute(0, ab, 2);
  t.SetRoute(1, ab, 2);
  t.SetRoute(2, c, 1);
  EXPECT_EQ(t.group_id(0), t.group_id(1));  // shared across destinations
  EXPECT_NE(t.group_id(0), t.group_id(2));
  EXPECT_EQ(t.num_groups(), 2u);
  EXPECT_EQ(t.PortsOf(0), (std::vector<uint16_t>{1, 3}));
  EXPECT_EQ(t.PortsOf(3), std::vector<uint16_t>{});  // unset: no route
  EXPECT_EQ(t.Lookup(3).size, 0u);
  EXPECT_TRUE(t.CheckConsistency());
}

TEST(NextHopTable, AddRemovePortKeepsOrderAndRefcounts) {
  net::NextHopTable t;
  t.Reset(4);
  const uint16_t ab[] = {1, 3};
  t.SetRoute(0, ab, 2);
  t.SetRoute(1, ab, 2);
  t.AddPort(0, 2);  // copy-on-write: dst 1 must keep {1,3}
  EXPECT_EQ(t.PortsOf(0), (std::vector<uint16_t>{1, 2, 3}));
  EXPECT_EQ(t.PortsOf(1), (std::vector<uint16_t>{1, 3}));
  t.RemovePort(0, 1);
  t.RemovePort(0, 3);
  EXPECT_EQ(t.PortsOf(0), std::vector<uint16_t>{2});
  t.RemovePort(0, 2);
  EXPECT_EQ(t.Lookup(0).size, 0u);
  EXPECT_TRUE(t.CheckConsistency());
}

TEST(NextHopTable, GroupChurnCompactsStorage) {
  net::NextHopTable t;
  t.Reset(2);
  sim::Rng rng(7);
  // Thousands of distinct transient groups on one destination: dead port
  // storage must be reclaimed instead of growing without bound.
  for (int round = 0; round < 20'000; ++round) {
    uint16_t ports[3] = {static_cast<uint16_t>(rng.Index(64)), 0, 0};
    ports[1] = static_cast<uint16_t>(64 + rng.Index(64));
    ports[2] = static_cast<uint16_t>(128 + rng.Index(64));
    t.SetRoute(0, ports, 3);
  }
  EXPECT_TRUE(t.CheckConsistency());
  EXPECT_LT(t.resident_bytes(), 1u << 20);  // bounded despite 20k rewrites
}

// ---- Independent dense oracle ----------------------------------------------

// The seed algorithm, reimplemented here so the product code shares nothing
// with it: per-destination BFS, candidates = up-ports one hop closer.
std::vector<int> DenseDistancesTo(Topology& t, uint32_t dst) {
  const size_t n = t.num_nodes();
  std::vector<int> dist(n, -1);
  std::vector<uint32_t> q{dst};
  dist[dst] = 0;
  for (size_t head = 0; head < q.size(); ++head) {
    const uint32_t u = q[head];
    net::Node& node = t.node(u);
    for (int p = 0; p < node.num_ports(); ++p) {
      if (!node.port(p).link_up()) continue;
      const uint32_t peer = node.port(p).peer()->id();
      if (dist[peer] < 0) {
        dist[peer] = dist[u] + 1;
        q.push_back(peer);
      }
    }
  }
  return dist;
}

std::vector<uint16_t> DenseCandidates(Topology& t, const std::vector<int>& dist,
                                      uint32_t u) {
  std::vector<uint16_t> out;
  if (dist[u] <= 0) return out;
  net::Node& node = t.node(u);
  for (int p = 0; p < node.num_ports(); ++p) {
    if (!node.port(p).link_up()) continue;
    const uint32_t peer = node.port(p).peer()->id();
    if (dist[peer] >= 0 && dist[peer] == dist[u] - 1) {
      out.push_back(static_cast<uint16_t>(p));
    }
  }
  return out;
}

std::vector<std::vector<uint16_t>> DenseRoutesFor(Topology& t, uint32_t dst) {
  const std::vector<int> dist = DenseDistancesTo(t, dst);
  std::vector<std::vector<uint16_t>> routes(t.num_nodes());
  for (uint32_t u = 0; u < t.num_nodes(); ++u) {
    if (u != dst) routes[u] = DenseCandidates(t, dist, u);
  }
  return routes;
}

void ExpectTablesMatchDenseOracle(Topology& t, const char* context) {
  for (const uint32_t dst : t.hosts()) {
    const auto dense = DenseRoutesFor(t, dst);
    for (const uint32_t s : t.switches()) {
      ASSERT_EQ(t.switch_node(s).PortsOf(dst), dense[s])
          << context << ": switch " << t.switch_node(s).name() << " dst "
          << t.node(dst).name();
    }
  }
  for (const uint32_t s : t.switches()) {
    ASSERT_TRUE(t.switch_node(s).routes().CheckConsistency())
        << context << ": switch " << s;
  }
}

TEST(Routing, FullRecomputeMatchesDenseOracle) {
  sim::Simulator s;
  FatTreeOptions o;  // mini fat-tree, ToR-shared BFS path
  auto ft = MakeFatTree(&s, o);
  ExpectTablesMatchDenseOracle(*ft.topo, "fattree defaults");

  sim::Simulator s2;
  TestbedOptions to;  // dual-homed hosts: the per-destination path
  to.servers_per_pair = 4;
  auto tb = MakeTestbed(&s2, to);
  ExpectTablesMatchDenseOracle(*tb.topo, "testbed");
}

TEST(Routing, InterningCollapsesFatTreeGroups) {
  sim::Simulator s;
  FatTreeOptions o;  // a k=16-shaped slice: 512 hosts, 112 switches
  o.pods = 8;
  o.tors_per_pod = 8;
  o.aggs_per_pod = 4;
  o.cores_per_agg = 4;
  o.hosts_per_tor = 8;
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  // Dense storage would hold one candidate list per (switch, host) pair;
  // interning collapses hosts behind the same rack/pod to shared groups.
  const size_t pairs = t.switches().size() * t.hosts().size();
  EXPECT_LT(t.RoutingGroups(), pairs / 50);
  // And the resident footprint beats a dense vector-per-destination layout
  // by over the 5x the acceptance bar asks for (counting only the dense
  // layout's vector headers + port payload, i.e. ignoring its per-vector
  // heap-block overhead — the comparison is conservative).
  const size_t dense_bytes =
      t.switches().size() * t.num_nodes() * sizeof(std::vector<uint16_t>) +
      t.RoutingExpandedPortEntries() * sizeof(uint16_t);
  EXPECT_GT(dense_bytes, 5 * t.RoutingResidentBytes());
}

TEST(Routing, RouteStateDoesNotGrowWithHostsPerRack) {
  // Per-switch state is one slot per route key (rack), so sixteen times the
  // hosts behind every ToR leaves every switch's table byte-for-byte the
  // same size; only the one shared destination -> key map grows.
  FatTreeOptions o;
  o.pods = 4;
  o.tors_per_pod = 4;
  o.aggs_per_pod = 2;
  o.cores_per_agg = 2;
  o.hosts_per_tor = 4;
  sim::Simulator s4;
  auto small = MakeFatTree(&s4, o);
  o.hosts_per_tor = 64;
  sim::Simulator s64;
  auto big = MakeFatTree(&s64, o);
  Topology& a = *small.topo;
  Topology& b = *big.topo;
  ASSERT_EQ(a.switches().size(), b.switches().size());
  size_t per_switch = 0;
  for (size_t i = 0; i < a.switches().size(); ++i) {
    const size_t bytes =
        a.switch_node(a.switches()[i]).routes().resident_bytes();
    EXPECT_EQ(b.switch_node(b.switches()[i]).routes().resident_bytes(), bytes)
        << a.switch_node(a.switches()[i]).name();
    per_switch += bytes;
  }
  EXPECT_EQ(a.RoutingResidentBytes() - a.route_keys().resident_bytes(),
            per_switch);
  EXPECT_EQ(b.RoutingResidentBytes() - b.route_keys().resident_bytes(),
            per_switch);
  EXPECT_GT(b.route_keys().resident_bytes(), a.route_keys().resident_bytes());
  ExpectTablesMatchDenseOracle(b, "64 hosts per rack");
}

// ---- Link-flap storm: incremental repair == from-scratch rebuild -----------

// Random downs and ups; returns every link it flapped.
std::vector<size_t> FlapStorm(Topology& t, uint64_t seed, int flaps,
                              bool verify_each) {
  sim::Rng rng(seed);
  const auto& links = t.links();
  std::vector<size_t> down;
  std::vector<size_t> flapped;
  for (int i = 0; i < flaps; ++i) {
    if (!down.empty() && rng.Uniform() < 0.4) {
      const size_t pick = rng.Index(down.size());
      t.SetLinkUp(down[pick], true);
      down.erase(down.begin() + static_cast<long>(pick));
    } else {
      const size_t li = rng.Index(links.size());
      if (!links[li].up) continue;
      t.SetLinkUp(li, false);
      down.push_back(li);
      flapped.push_back(li);
    }
    if (verify_each) {
      EXPECT_NO_FATAL_FAILURE(
          ExpectTablesMatchDenseOracle(t, "after random flap"));
      if (testing::Test::HasFatalFailure()) return flapped;
    }
  }
  for (const size_t li : down) t.SetLinkUp(li, true);
  ExpectTablesMatchDenseOracle(t, "after repairing all links");
  return flapped;
}

// Applies (link, up) steps in order, checking every table after each.
void FlapScript(Topology& t, const std::vector<std::pair<size_t, bool>>& steps,
                const char* context) {
  for (const auto& [li, up] : steps) {
    t.SetLinkUp(li, up);
    ASSERT_NO_FATAL_FAILURE(ExpectTablesMatchDenseOracle(t, context));
  }
}

TEST(Routing, LinkFlapStormMatchesOracleOnFatTree) {
  sim::Simulator s;
  FatTreeOptions o;
  o.pods = 4;
  o.tors_per_pod = 3;
  o.aggs_per_pod = 3;
  o.cores_per_agg = 2;
  o.hosts_per_tor = 3;
  auto ft = MakeFatTree(&s, o);
  FlapStorm(*ft.topo, 0xf1a5, 24, /*verify_each=*/true);
}

TEST(Routing, EmptiedRackKeepsRoutingTowardItsSwitch) {
  // Every NIC link of one rack goes down, so its rack key has no live host;
  // fabric links then flap while the rack is empty (the key's slots must
  // still be patched and rebuilt), and the hosts come back one by one.
  sim::Simulator s;
  FatTreeOptions o;
  o.pods = 3;
  o.tors_per_pod = 2;
  o.aggs_per_pod = 2;
  o.cores_per_agg = 2;
  o.hosts_per_tor = 3;
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  const uint32_t tor = ft.tor_ids[0];
  std::vector<size_t> nic, uplinks;
  for (size_t i = 0; i < t.links().size(); ++i) {
    const LinkSpec& l = t.links()[i];
    if (l.a != tor && l.b != tor) continue;
    const uint32_t peer = l.a == tor ? l.b : l.a;
    (t.node(peer).IsSwitch() ? uplinks : nic).push_back(i);
  }
  ASSERT_EQ(nic.size(), 3u);
  ASSERT_EQ(uplinks.size(), 2u);
  // An agg-core link above the rack's pod: the remote side of its path.
  size_t aggcore = t.links().size();
  for (size_t i = 0; i < t.links().size(); ++i) {
    const LinkSpec& l = t.links()[i];
    if (l.a == ft.agg_ids[0] && t.node(l.b).IsSwitch() &&
        l.b != ft.tor_ids[0] && l.b != ft.tor_ids[1]) {
      aggcore = i;
      break;
    }
  }
  ASSERT_LT(aggcore, t.links().size());

  std::vector<std::pair<size_t, bool>> steps;
  for (const size_t li : nic) steps.emplace_back(li, false);
  steps.emplace_back(uplinks[0], false);  // one parent left: O(1) patches
  steps.emplace_back(aggcore, false);
  steps.emplace_back(uplinks[1], false);  // rack cut off: rebuilds
  steps.emplace_back(uplinks[0], true);
  steps.emplace_back(nic[1], true);
  steps.emplace_back(uplinks[1], true);
  steps.emplace_back(aggcore, true);
  steps.emplace_back(nic[0], true);
  steps.emplace_back(nic[2], true);
  FlapScript(t, steps, "emptied rack");

  // And a random storm that also hits NIC links, on the same fabric.
  FlapStorm(t, 0x7ac4, 40, /*verify_each=*/true);
}

TEST(Routing, LinkFlapStormMatchesOracleOnTestbed) {
  // Multi-homed hosts: link flaps hit NIC links too (farther-endpoint-is-a-
  // host classification, both degree-1 skip and multi-homed rebuild).
  sim::Simulator s;
  TestbedOptions o;
  o.servers_per_pair = 3;
  auto tb = MakeTestbed(&s, o);
  Topology& t = *tb.topo;
  const std::vector<size_t> flapped =
      FlapStorm(t, 0xbed5, 30, /*verify_each=*/true);
  // The storm really took down NIC links of multi-homed hosts.
  std::vector<int> degree(t.num_nodes(), 0);
  for (const LinkSpec& l : t.links()) {
    ++degree[l.a];
    ++degree[l.b];
  }
  size_t multihomed_nic = 0;
  for (const size_t li : flapped) {
    const LinkSpec& l = t.links()[li];
    for (const uint32_t end : {l.a, l.b}) {
      if (!t.node(end).IsSwitch() && degree[end] > 1) ++multihomed_nic;
    }
  }
  EXPECT_GT(multihomed_nic, 0u);
}

TEST(Routing, BuiltInOracleAcceptsIncrementalRepair) {
  // The debug-mode oracle wired into SetLinkUp itself (HPCC_ROUTE_ORACLE):
  // it must stay silent through a partitioning down + heal cycle.
  sim::Simulator s;
  FatTreeOptions o;
  o.pods = 2;
  o.aggs_per_pod = 1;
  o.cores_per_agg = 1;  // single spine: taking it down partitions the pods
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  t.set_route_oracle(true);
  size_t spine = t.links().size();
  for (size_t i = 0; i < t.links().size(); ++i) {
    if (t.node(t.links()[i].a).IsSwitch() && t.node(t.links()[i].b).IsSwitch())
      spine = i;
  }
  ASSERT_LT(spine, t.links().size());
  EXPECT_NO_THROW(t.SetLinkUp(spine, false));
  EXPECT_NO_THROW(t.SetLinkUp(spine, true));
  // And a NIC-link flap (degree-1 host endpoint).
  EXPECT_NO_THROW(t.SetLinkUp(t.links().size() - 1, false));
  EXPECT_NO_THROW(t.SetLinkUp(t.links().size() - 1, true));
}

TEST(Routing, WideFatTreeSingleFlapMatchesOracle) {
  // A k=16-shaped slice (the fattree16/fattree32 scenario family): one
  // fabric flap repaired incrementally must equal the dense rebuild.
  sim::Simulator s;
  FatTreeOptions o;
  o.pods = 8;
  o.tors_per_pod = 4;
  o.aggs_per_pod = 4;
  o.cores_per_agg = 4;
  o.hosts_per_tor = 4;  // 128 hosts, 80 switches
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  // First ToR-agg link of pod 0.
  size_t toragg = t.links().size();
  for (size_t i = 0; i < t.links().size(); ++i) {
    const auto& l = t.links()[i];
    if (t.node(l.a).IsSwitch() && t.node(l.b).IsSwitch() &&
        (t.node(l.a).name().rfind("tor", 0) == 0 ||
         t.node(l.b).name().rfind("tor", 0) == 0)) {
      toragg = i;
      break;
    }
  }
  ASSERT_LT(toragg, t.links().size());
  t.SetLinkUp(toragg, false);
  ExpectTablesMatchDenseOracle(t, "wide fat-tree, ToR-agg down");
  t.SetLinkUp(toragg, true);
  ExpectTablesMatchDenseOracle(t, "wide fat-tree, ToR-agg repaired");
}

// ---- k=64-shaped routing smoke ---------------------------------------------

TEST(Routing, FatTree64ShapedRoutesFitAndMatchOracle) {
  // 64 pods x 32 ToRs x 32 aggs, 32 cores per agg position, 32 hosts per
  // ToR: 65,536 hosts and 5,120 switches, routing only. A dense layout would
  // need ~335 M entries; keyed tables hold one slot per (switch, rack).
  sim::Simulator s;
  FatTreeOptions o;
  o.pods = 64;
  o.tors_per_pod = 32;
  o.aggs_per_pod = 32;
  o.cores_per_agg = 32;
  o.hosts_per_tor = 32;
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  ASSERT_EQ(t.hosts().size(), 65'536u);
  ASSERT_EQ(t.switches().size(), 5'120u);
  EXPECT_LE(t.RoutingResidentBytes(), 64u << 20);

  // 256 seeded (switch, host) pairs, eight switches per sampled host so
  // one dense BFS serves eight pairs. Half the switches are uniform; the
  // other half, and every odd host, aim at what the flap below changes:
  // hosts in pod 0 seen from core group 0 and agg position 0.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr int kHosts = 4;  // sanitizer runs are ~5x slower
#else
  constexpr int kHosts = 32;
#endif
  std::vector<uint32_t> near;
  for (int c = 0; c < o.cores_per_agg; ++c) near.push_back(ft.core_ids[c]);
  for (int p = 0; p < o.pods; ++p) {
    near.push_back(ft.agg_ids[static_cast<size_t>(p * o.aggs_per_pod)]);
  }
  const size_t pod_hosts =
      static_cast<size_t>(o.tors_per_pod) * o.hosts_per_tor;
  sim::Rng rng(0x64);
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> samples;
  for (int i = 0; i < kHosts; ++i) {
    const uint32_t dst = i % 2 == 0 ? t.hosts()[rng.Index(t.hosts().size())]
                                    : ft.host_ids[rng.Index(pod_hosts)];
    std::vector<uint32_t> sws;
    for (int j = 0; j < 8; ++j) {
      sws.push_back(j % 2 == 0 ? t.switches()[rng.Index(t.switches().size())]
                               : near[rng.Index(near.size())]);
    }
    samples.emplace_back(dst, std::move(sws));
  }
  const auto check = [&](const char* context) {
    for (const auto& [dst, sws] : samples) {
      const std::vector<int> dist = DenseDistancesTo(t, dst);
      for (const uint32_t sw : sws) {
        ASSERT_EQ(t.switch_node(sw).PortsOf(dst), DenseCandidates(t, dist, sw))
            << context << ": switch " << t.switch_node(sw).name() << " dst "
            << t.node(dst).name();
      }
    }
  };
  ASSERT_NO_FATAL_FAILURE(check("k=64 shape, all links up"));

  // Link 0 joins agg0_0 to core0 (MakeFatTree wires agg-core links first).
  const LinkSpec& l0 = t.links()[0];
  ASSERT_EQ(l0.a, ft.agg_ids[0]);
  ASSERT_EQ(l0.b, ft.core_ids[0]);
  t.SetLinkUp(0, false);
  ASSERT_NO_FATAL_FAILURE(check("k=64 shape, agg-core link down"));
  EXPECT_LE(t.RoutingResidentBytes(), 64u << 20);
}

// ---- Out-of-range destination: checked kNoRoute drop ------------------------

TEST(Routing, OutOfRangeDestinationIsCheckedDrop) {
  sim::Simulator s;
  StarOptions o;
  o.num_hosts = 2;
  auto star = MakeStar(&s, o);
  net::SwitchNode& sw = star.topo->switch_node(star.switch_id);
  // A corrupt destination, far past the node table: used to be an
  // assert-only OOB read.
  EXPECT_EQ(sw.RoutePort(/*flow_id=*/1, /*dst=*/0xdeadbeef), -1);

  // End to end: the switch counts it as a drop instead of crashing or
  // forwarding garbage.
  const uint64_t drops_before = sw.dropped_packets();
  auto pkt = net::MakeDataPacket(/*flow_id=*/1, /*src=*/0,
                                 /*dst=*/0xdeadbeef, /*seq=*/0,
                                 /*payload_bytes=*/1000,
                                 /*int_enabled=*/false, /*ecn_capable=*/false);
  sw.Receive(std::move(pkt), /*in_port=*/0);
  EXPECT_EQ(sw.dropped_packets(), drops_before + 1);
}

// ---- Analytic fat-tree path model vs BFS ------------------------------------

void ExpectModelMatchesBfs(const FatTreeOptions& o, const char* context) {
  sim::Simulator s;
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  for (const uint32_t a : t.hosts()) {
    for (const uint32_t b : t.hosts()) {
      if (a == b) continue;
      ASSERT_EQ(t.BaseRtt(a, b), t.BaseRttViaBfs(a, b))
          << context << " hosts " << a << "->" << b;
      ASSERT_EQ(t.BottleneckBps(a, b), t.BottleneckBpsViaBfs(a, b))
          << context << " hosts " << a << "->" << b;
    }
  }
}

TEST(FatTreeModel, MatchesBfsOnEveryPair) {
  FatTreeOptions mini;  // 2 pods
  ExpectModelMatchesBfs(mini, "mini");

  FatTreeOptions one_pod;
  one_pod.pods = 1;
  one_pod.tors_per_pod = 3;
  one_pod.hosts_per_tor = 3;
  ExpectModelMatchesBfs(one_pod, "one pod");

  FatTreeOptions skewed;  // non-default speeds: host faster than fabric
  skewed.pods = 3;
  skewed.tors_per_pod = 2;
  skewed.aggs_per_pod = 2;
  skewed.cores_per_agg = 1;
  skewed.hosts_per_tor = 2;
  skewed.host_bps = 400'000'000'000;
  skewed.fabric_bps = 100'000'000'000;
  skewed.link_delay = sim::Us(2);
  ExpectModelMatchesBfs(skewed, "skewed speeds");
}

TEST(FatTreeModel, MaxBaseRttMatchesExhaustiveSearch) {
  sim::Simulator s;
  FatTreeOptions o;
  o.pods = 3;
  o.tors_per_pod = 2;
  o.hosts_per_tor = 3;
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  sim::TimePs brute = 0;
  for (const uint32_t a : t.hosts()) {
    for (const uint32_t b : t.hosts()) {
      if (a != b) brute = std::max(brute, t.BaseRttViaBfs(a, b));
    }
  }
  EXPECT_EQ(t.MaxBaseRtt(), brute);
}

// ---- Exact MaxBaseRtt on asymmetric fabrics ---------------------------------

TEST(MaxBaseRtt, ExactOnAsymmetricChain) {
  // h1 - s0 - s1 - s2 - h2, with h0 hanging off the middle switch: the old
  // sample-against-host-0 shortcut saw only 3-hop paths and under-reported
  // the true 4-hop h1<->h2 maximum — mis-configuring every CC scheme's RTT
  // constant T on testbed-like asymmetric builds.
  sim::Simulator sim;
  Topology t(&sim);
  host::HostConfig hc;
  net::SwitchConfig sc;
  const int64_t bps = 100'000'000'000;
  const uint32_t h0 = t.AddHost(hc, "h0");  // hosts_[0]: the old anchor
  const uint32_t h1 = t.AddHost(hc, "h1");
  const uint32_t h2 = t.AddHost(hc, "h2");
  const uint32_t s0 = t.AddSwitch(sc, "s0");
  const uint32_t s1 = t.AddSwitch(sc, "s1");
  const uint32_t s2 = t.AddSwitch(sc, "s2");
  t.AddLink(s0, s1, bps, sim::Us(1));
  t.AddLink(s1, s2, bps, sim::Us(1));
  t.AddLink(h0, s1, bps, sim::Us(1));  // middle
  t.AddLink(h1, s0, bps, sim::Us(1));  // far left
  t.AddLink(h2, s2, bps, sim::Us(1));  // far right
  t.Finalize();

  const sim::TimePs anchored =
      std::max({t.BaseRtt(h0, h1), t.BaseRtt(h1, h0), t.BaseRtt(h0, h2),
                t.BaseRtt(h2, h0)});
  const sim::TimePs true_max = t.BaseRtt(h1, h2);
  ASSERT_GT(true_max, anchored);  // the shape the old shortcut got wrong
  EXPECT_EQ(t.MaxBaseRtt(), true_max);
}

TEST(MaxBaseRtt, TestbedMatchesExhaustiveSearch) {
  sim::Simulator s;
  TestbedOptions o;
  o.servers_per_pair = 4;
  auto tb = MakeTestbed(&s, o);
  Topology& t = *tb.topo;
  sim::TimePs brute = 0;
  for (const uint32_t a : t.hosts()) {
    for (const uint32_t b : t.hosts()) {
      if (a != b) brute = std::max(brute, t.BaseRttViaBfs(a, b));
    }
  }
  EXPECT_EQ(t.MaxBaseRtt(), brute);
}

}  // namespace
}  // namespace hpcc::topo
