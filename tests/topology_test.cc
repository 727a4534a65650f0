// Tests for topology building, BFS/ECMP routing, base-RTT and ideal-FCT math.
#include <gtest/gtest.h>

#include "net/packet.h"
#include "topo/fattree.h"
#include "topo/simple.h"
#include "topo/testbed.h"
#include "topo/topology.h"

namespace hpcc::topo {
namespace {

TEST(Star, BuildsAndRoutes) {
  sim::Simulator s;
  StarOptions o;
  o.num_hosts = 5;
  auto star = MakeStar(&s, o);
  EXPECT_EQ(star.host_ids.size(), 5u);
  Topology& t = *star.topo;
  EXPECT_EQ(t.switches().size(), 1u);
  // Every host pair is 2 hops apart via the switch.
  EXPECT_EQ(t.PathHops(star.host_ids[0], star.host_ids[4]), 2);
  EXPECT_EQ(t.Distance(star.host_ids[0], star.switch_id), 1);
}

TEST(Star, BaseRttMatchesHandComputation) {
  sim::Simulator s;
  StarOptions o;
  o.num_hosts = 3;
  o.host_bps = 100'000'000'000;
  o.link_delay = sim::Us(1);
  auto star = MakeStar(&s, o);
  // 2 links each way: 4 us propagation + 2 data serializations (1090 B incl
  // INT worst case) + 2 ACK serializations (60 B) at 100 Gbps.
  const sim::TimePs expected =
      sim::Us(4) +
      2 * sim::SerializationTime(1000 + 48 + 42, 100'000'000'000) +
      2 * sim::SerializationTime(60, 100'000'000'000);
  EXPECT_EQ(star.topo->BaseRtt(star.host_ids[0], star.host_ids[1]), expected);
}

TEST(Dumbbell, TrunkIsBottleneck) {
  sim::Simulator s;
  DumbbellOptions o;
  o.hosts_per_side = 2;
  o.host_bps = 100'000'000'000;
  o.trunk_bps = 40'000'000'000;
  auto db = MakeDumbbell(&s, o);
  Topology& t = *db.topo;
  EXPECT_EQ(t.BottleneckBps(db.left_hosts[0], db.right_hosts[0]),
            40'000'000'000);
  // Same side: host links only.
  EXPECT_EQ(t.BottleneckBps(db.left_hosts[0], db.left_hosts[1]),
            100'000'000'000);
  EXPECT_EQ(t.PathHops(db.left_hosts[0], db.right_hosts[1]), 3);
}

TEST(Testbed, MatchesPaperShape) {
  sim::Simulator s;
  TestbedOptions o;  // defaults = paper scale
  auto tb = MakeTestbed(&s, o);
  EXPECT_EQ(tb.host_ids.size(), 32u);
  EXPECT_EQ(tb.tor_ids.size(), 4u);
  Topology& t = *tb.topo;
  // Dual-homed hosts: 2 ports each.
  EXPECT_EQ(t.node(tb.host_ids[0]).num_ports(), 2);
  // Intra-pair: host -> ToR -> host = 2 hops.
  EXPECT_EQ(t.PathHops(tb.host_ids[0], tb.host_ids[1]), 2);
  // Cross-pair: host -> ToR -> Agg -> ToR -> host = 4 hops.
  EXPECT_EQ(t.PathHops(tb.host_ids[0], tb.host_ids[16]), 4);
  // Cross-rack RTT > intra-rack RTT (5.4us vs 8.5us in the paper).
  EXPECT_GT(t.BaseRtt(tb.host_ids[0], tb.host_ids[16]),
            t.BaseRtt(tb.host_ids[0], tb.host_ids[1]));
}

TEST(FatTree, DefaultsBuildConsistently) {
  sim::Simulator s;
  FatTreeOptions o;  // mini scale
  auto ft = MakeFatTree(&s, o);
  EXPECT_EQ(ft.host_ids.size(), static_cast<size_t>(o.num_hosts()));
  EXPECT_EQ(ft.tor_ids.size(), static_cast<size_t>(o.pods * o.tors_per_pod));
  EXPECT_EQ(ft.agg_ids.size(), static_cast<size_t>(o.pods * o.aggs_per_pod));
  EXPECT_EQ(ft.core_ids.size(),
            static_cast<size_t>(o.aggs_per_pod * o.cores_per_agg));
  Topology& t = *ft.topo;
  // Same rack: 2 hops. Same pod: 4. Cross pod: 6.
  EXPECT_EQ(t.PathHops(ft.host_ids[0], ft.host_ids[1]), 2);
  EXPECT_EQ(t.PathHops(ft.host_ids[0], ft.host_ids[o.hosts_per_tor]), 4);
  const uint32_t other_pod =
      ft.host_ids[static_cast<size_t>(o.tors_per_pod * o.hosts_per_tor)];
  EXPECT_EQ(t.PathHops(ft.host_ids[0], other_pod), 6);
}

TEST(FatTree, PaperScaleCounts) {
  sim::Simulator s;
  auto o = FatTreeOptions::PaperScale();
  EXPECT_EQ(o.num_hosts(), 320);
  auto ft = MakeFatTree(&s, o);
  EXPECT_EQ(ft.host_ids.size(), 320u);
  EXPECT_EQ(ft.tor_ids.size(), 20u);
  EXPECT_EQ(ft.agg_ids.size(), 20u);
  EXPECT_EQ(ft.core_ids.size(), 20u);
  // §5.1: 1 us links yield a max base RTT ~ 12-13 us.
  const sim::TimePs t_max = ft.topo->MaxBaseRtt();
  EXPECT_GT(t_max, sim::Us(12));
  EXPECT_LT(t_max, sim::Us(14));
}

TEST(FatTree, TiersRecorded) {
  sim::Simulator s;
  FatTreeOptions o;
  auto ft = MakeFatTree(&s, o);
  EXPECT_EQ(ft.tiers[ft.host_ids[0]], FatTreeTopology::Tier::kHost);
  EXPECT_EQ(ft.tiers[ft.tor_ids[0]], FatTreeTopology::Tier::kTor);
  EXPECT_EQ(ft.tiers[ft.agg_ids[0]], FatTreeTopology::Tier::kAgg);
  EXPECT_EQ(ft.tiers[ft.core_ids[0]], FatTreeTopology::Tier::kCore);
}

TEST(IdealFct, ScalesWithSizeAndIncludesBaseRtt) {
  sim::Simulator s;
  StarOptions o;
  o.num_hosts = 2;
  auto star = MakeStar(&s, o);
  Topology& t = *star.topo;
  const uint32_t a = star.host_ids[0];
  const uint32_t b = star.host_ids[1];
  const sim::TimePs rtt = t.BaseRtt(a, b);
  // A zero-ish flow costs about one RTT.
  EXPECT_GE(t.IdealFct(a, b, 1), rtt);
  EXPECT_LT(t.IdealFct(a, b, 1), rtt + sim::Us(1));
  // 10x the bytes ~ 10x the serialization component.
  const sim::TimePs f1 = t.IdealFct(a, b, 1'000'000) - rtt;
  const sim::TimePs f10 = t.IdealFct(a, b, 10'000'000) - rtt;
  EXPECT_NEAR(static_cast<double>(f10) / static_cast<double>(f1), 10.0, 0.01);
}

TEST(IdealFct, AccountsPerPacketHeaders) {
  sim::Simulator s;
  StarOptions o;
  o.num_hosts = 2;
  o.host_bps = 100'000'000'000;
  auto star = MakeStar(&s, o);
  Topology& t = *star.topo;
  const uint32_t a = star.host_ids[0];
  const uint32_t b = star.host_ids[1];
  const sim::TimePs rtt = t.BaseRtt(a, b);
  // 2000 bytes = 2 MTU packets = 2 * 1048 wire bytes.
  const sim::TimePs want =
      sim::SerializationTime(2 * 1048, 100'000'000'000) + rtt;
  EXPECT_EQ(t.IdealFct(a, b, 2000), want);
}

TEST(Topology, HostAccessorTypechecks) {
  sim::Simulator s;
  StarOptions o;
  o.num_hosts = 2;
  auto star = MakeStar(&s, o);
  EXPECT_NO_THROW(star.topo->host(star.host_ids[0]));
  EXPECT_THROW(star.topo->host(star.switch_id), std::invalid_argument);
  EXPECT_THROW(star.topo->switch_node(star.host_ids[0]),
               std::invalid_argument);
}

// Property: in any mini fattree, every switch has at least one route to
// every host and all ECMP ports lead strictly closer to the destination.
class FatTreeRouting : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeRouting, EcmpPortsAreShortestPaths) {
  sim::Simulator s;
  FatTreeOptions o;
  o.pods = GetParam();
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  for (uint32_t sw : t.switches()) {
    for (uint32_t dst : t.hosts()) {
      for (uint64_t flow = 1; flow <= 8; ++flow) {
        const int port = t.switch_node(sw).RoutePort(flow, dst);
        ASSERT_GE(port, 0);
        net::Node* peer = t.switch_node(sw).port(port).peer();
        ASSERT_NE(peer, nullptr);
        EXPECT_EQ(t.Distance(peer->id(), dst), t.Distance(sw, dst) - 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pods, FatTreeRouting, ::testing::Values(1, 2, 3));

// Regression (found by fuzz_scenarios): IdealFct/BaseRtt are denominators of
// FCT slowdown and must describe the designed topology. Querying them while
// a link failure partitions the fabric used to walk live BFS distances and
// loop forever for disconnected pairs.
TEST(TopologyTest, IdealFctStableAcrossLinkFlap) {
  sim::Simulator s;
  FatTreeOptions o;
  o.pods = 2;
  o.tors_per_pod = 2;
  o.aggs_per_pod = 1;  // single agg/core: an agg-core link down partitions
  o.cores_per_agg = 1;
  o.hosts_per_tor = 2;
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  const uint32_t a = t.hosts().front();
  const uint32_t b = t.hosts().back();  // other pod
  const sim::TimePs ideal_before = t.IdealFct(a, b, 100'000);
  ASSERT_GT(ideal_before, 0);

  // Take down a switch-switch link that disconnects the pods.
  const auto& links = t.links();
  size_t trunk = links.size();
  for (size_t i = 0; i < links.size(); ++i) {
    if (t.node(links[i].a).IsSwitch() && t.node(links[i].b).IsSwitch()) {
      trunk = i;
    }
  }
  ASSERT_LT(trunk, links.size());
  t.SetLinkUp(trunk, false);
  EXPECT_EQ(t.IdealFct(a, b, 100'000), ideal_before);  // and no hang
  EXPECT_EQ(t.BaseRtt(a, b), t.BaseRtt(b, a));
  t.SetLinkUp(trunk, true);
  EXPECT_EQ(t.IdealFct(a, b, 100'000), ideal_before);
}

}  // namespace
}  // namespace hpcc::topo
