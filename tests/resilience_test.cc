// Failure injection: link failures, rerouting, disconnection, and HPCC's
// path-change handling (§4.1's pathID mechanism end to end).
#include <gtest/gtest.h>

#include "runner/experiment.h"
#include "topo/fattree.h"

namespace hpcc::runner {
namespace {

// Builds a mini fattree experiment plus the link index of an Agg<->Core
// link, whose failure forces cross-pod flows onto other cores.
struct FailureFixture {
  explicit FailureFixture(const std::string& scheme) {
    ExperimentConfig cfg;
    cfg.topology = TopologyKind::kFatTree;
    cfg.fattree.pods = 2;
    cfg.fattree.tors_per_pod = 1;
    cfg.fattree.aggs_per_pod = 2;
    cfg.fattree.cores_per_agg = 2;
    cfg.fattree.hosts_per_tor = 2;
    cfg.cc.scheme = scheme;
    e = std::make_unique<Experiment>(cfg);
  }

  size_t FirstFabricLink() const {
    const auto& links = e->topology().links();
    for (size_t i = 0; i < links.size(); ++i) {
      // Both endpoints are switches -> fabric link.
      if (e->topology().node(links[i].a).IsSwitch() &&
          e->topology().node(links[i].b).IsSwitch()) {
        return i;
      }
    }
    return 0;
  }

  std::unique_ptr<Experiment> e;
};

TEST(Resilience, RoutesRecomputeAroundFailedLink) {
  FailureFixture f("hpcc");
  topo::Topology& t = f.e->topology();
  const auto& links = t.links();
  const size_t li = f.FirstFabricLink();
  // Distances exist before and after; failing one redundant fabric link must
  // keep every host pair connected (fattree has ECMP redundancy).
  t.SetLinkUp(li, false);
  for (uint32_t a : t.hosts()) {
    for (uint32_t b : t.hosts()) {
      if (a != b) {
        EXPECT_GT(t.Distance(a, b), 0);
      }
    }
  }
  t.SetLinkUp(li, true);
  EXPECT_TRUE(links[li].up);
}

TEST(Resilience, EcmpPortsStayValidAfterFailure) {
  FailureFixture f("hpcc");
  topo::Topology& t = f.e->topology();
  const size_t li = f.FirstFabricLink();
  t.SetLinkUp(li, false);
  const auto& l = t.links()[li];
  for (uint32_t sw : t.switches()) {
    for (uint32_t dst : t.hosts()) {
      for (uint64_t flow = 1; flow <= 4; ++flow) {
        const int port = t.switch_node(sw).RoutePort(flow, dst);
        ASSERT_GE(port, 0);
        // Never route over the dead link.
        const bool dead = (sw == l.a && port == l.port_a) ||
                          (sw == l.b && port == l.port_b);
        EXPECT_FALSE(dead);
      }
    }
  }
}

TEST(Resilience, FlowSurvivesMidFlightFailure) {
  FailureFixture f("hpcc");
  topo::Topology& t = f.e->topology();
  const auto& h = f.e->hosts();
  // Cross-pod flow (hosts 0..1 in pod 0, 2..3 in pod 1).
  host::Flow* flow = f.e->AddFlow(h[0], h[2], 20'000'000, 0);
  f.e->RunUntil(sim::Us(200));
  ASSERT_FALSE(flow->done);
  const uint64_t acked_before = flow->snd_una;
  t.SetLinkUp(f.FirstFabricLink(), false);
  f.e->RunUntil(sim::Ms(8));
  EXPECT_TRUE(flow->done);
  EXPECT_GT(flow->snd_una, acked_before);
}

TEST(Resilience, HpccPathChangeKeepsWindowSane) {
  FailureFixture f("hpcc");
  topo::Topology& t = f.e->topology();
  const auto& h = f.e->hosts();
  host::Flow* flow = f.e->AddFlow(h[0], h[2], 50'000'000, 0);
  f.e->RunUntil(sim::Us(300));
  const int64_t nic_bdp =
      t.host(h[0]).port(0).bandwidth_bps() / 8 *
      f.e->base_rtt() / sim::kPsPerSec;
  t.SetLinkUp(f.FirstFabricLink(), false);
  // After the reroute, the INT pathID changes; HPCC must re-prime rather
  // than reacting to bogus cross-path txBytes deltas. The window stays in
  // (0, Winit] the whole time.
  for (int i = 0; i < 50; ++i) {
    f.e->RunUntil(sim::Us(300 + 10 * i));
    EXPECT_GT(flow->cc().window_bytes(), 0);
    EXPECT_LE(flow->cc().window_bytes(), nic_bdp + 1);
  }
}

TEST(Resilience, DisconnectionDropsThenRepairRecovers) {
  // Star: killing the only link to the destination drops packets (no route
  // or frozen port); RTO keeps retrying; repair lets the flow finish.
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 2;
  cfg.cc.scheme = "hpcc";
  Experiment e(cfg);
  topo::Topology& t = e.topology();
  const auto& h = e.hosts();
  host::Flow* flow = e.AddFlow(h[0], h[1], 5'000'000, 0);
  e.RunUntil(sim::Us(100));
  ASSERT_FALSE(flow->done);
  // Link index 1 = h1 <-> switch.
  t.SetLinkUp(1, false);
  e.RunUntil(sim::Ms(3));
  EXPECT_FALSE(flow->done);
  t.SetLinkUp(1, true);
  e.RunUntil(sim::Ms(20));
  EXPECT_TRUE(flow->done);
}

TEST(Resilience, FrozenPortHoldsQueuedPacketsUntilRepair) {
  // Packets already queued on an egress when its link dies freeze in place
  // (buffer accounting intact) and flush on repair; packets arriving while
  // the destination is unroutable are dropped and recovered by GBN/RTO.
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 3;
  cfg.cc.scheme = "hpcc";
  Experiment e(cfg);
  topo::Topology& t = e.topology();
  net::SwitchNode& sw = t.switch_node(t.switches()[0]);
  const auto& h = e.hosts();
  // 2:1 burst builds a queue on the receiver downlink (switch port 2).
  host::Flow* f1 = e.AddFlow(h[0], h[2], 200'000, 0);
  host::Flow* f2 = e.AddFlow(h[1], h[2], 200'000, 0);
  e.RunUntil(sim::Us(5));
  ASSERT_GT(sw.port(2).queue_bytes(net::kDataPriority), 0);
  t.SetLinkUp(2, false);  // links 0,1,2 = h0,h1,h2 uplinks
  const int64_t frozen = sw.port(2).queue_bytes(net::kDataPriority);
  EXPECT_GT(frozen, 0);
  e.RunUntil(sim::Us(300));
  // Still frozen: nothing left the dead port.
  EXPECT_EQ(sw.port(2).queue_bytes(net::kDataPriority), frozen);
  EXPECT_FALSE(f1->done);
  t.SetLinkUp(2, true);
  e.RunUntil(sim::Ms(30));
  EXPECT_TRUE(f1->done);
  EXPECT_TRUE(f2->done);
}

class FailureSchemes : public ::testing::TestWithParam<const char*> {};

TEST_P(FailureSchemes, WorkloadSurvivesFabricFailure) {
  FailureFixture f(GetParam());
  const auto& h = f.e->hosts();
  std::vector<host::Flow*> flows;
  for (int i = 0; i < 6; ++i) {
    flows.push_back(f.e->AddFlow(h[i % 2], h[2 + i % 2], 2'000'000,
                                 i * sim::Us(20)));
  }
  f.e->RunUntil(sim::Us(150));
  f.e->topology().SetLinkUp(f.FirstFabricLink(), false);
  f.e->RunUntil(sim::Ms(20));
  for (auto* fl : flows) EXPECT_TRUE(fl->done);
}

INSTANTIATE_TEST_SUITE_P(Schemes, FailureSchemes,
                         ::testing::Values("hpcc", "dcqcn", "dctcp",
                                           "timely+win"));

}  // namespace
}  // namespace hpcc::runner
