// Tests for the experiment runner: configuration wiring, monitors, metrics.
#include <gtest/gtest.h>

#include "runner/experiment.h"

namespace hpcc::runner {
namespace {

TEST(Runner, MeasuresBaseRttFromTopology) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 3;
  Experiment e(cfg);
  EXPECT_GT(e.base_rtt(), sim::Us(3));
  EXPECT_LT(e.base_rtt(), sim::Us(6));
}

TEST(Runner, BaseRttOverride) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 2;
  cfg.base_rtt_override = sim::Us(42);
  Experiment e(cfg);
  EXPECT_EQ(e.base_rtt(), sim::Us(42));
}

TEST(Runner, SwitchConfigFollowsScheme) {
  auto red_enabled = [](const char* scheme) {
    ExperimentConfig cfg;
    cfg.topology = TopologyKind::kStar;
    cfg.star.num_hosts = 2;
    cfg.cc.scheme = scheme;
    Experiment e(cfg);
    return e.topology()
        .switch_node(e.topology().switches()[0])
        .config()
        .red.enabled;
  };
  EXPECT_TRUE(red_enabled("dcqcn"));
  EXPECT_TRUE(red_enabled("dctcp"));
  EXPECT_FALSE(red_enabled("hpcc"));
  EXPECT_FALSE(red_enabled("timely"));
}

TEST(Runner, RedOverrideWins) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 2;
  cfg.cc.scheme = "hpcc";
  cfg.red_override = net::RedConfig::Dcqcn(12, 50);
  Experiment e(cfg);
  const auto& red =
      e.topology().switch_node(e.topology().switches()[0]).config().red;
  EXPECT_TRUE(red.enabled);
  EXPECT_DOUBLE_EQ(red.kmin_bytes, 12'000.0);
}

TEST(Runner, PfcDisableFlagPropagates) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 2;
  cfg.pfc_enabled = false;
  Experiment e(cfg);
  EXPECT_FALSE(e.topology()
                   .switch_node(e.topology().switches()[0])
                   .config()
                   .pfc_enabled);
}

TEST(Runner, PoissonRunCompletesAndRecordsEverything) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 6;
  cfg.cc.scheme = "hpcc";
  cfg.load = 0.4;
  cfg.trace = "fbhadoop";
  cfg.max_flows = 80;
  cfg.duration = sim::Ms(2);
  Experiment e(cfg);
  ExperimentResult r = e.Run();
  EXPECT_EQ(r.flows_created, 80u);
  EXPECT_EQ(r.flows_completed, 80u);
  EXPECT_EQ(r.fct->total_flows(), 80u);
  EXPECT_GT(r.events_executed, 1000u);
  EXPECT_GT(r.queue_dist.Count(), 0u);
  EXPECT_FALSE(r.Summary().empty());
}

TEST(Runner, ShortFlowLatencyTracked) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 3;
  cfg.short_flow_bytes = 3'000;
  Experiment e(cfg);
  const auto& h = e.hosts();
  e.AddFlow(h[0], h[2], 1'000, 0);     // short
  e.AddFlow(h[1], h[2], 500'000, 0);   // long
  e.RunUntil(sim::Ms(5));
  ExperimentResult r = e.Collect();
  EXPECT_EQ(r.short_fct_us.Count(), 1u);
  EXPECT_GT(r.short_fct_us.Percentile(50), 0.0);
}

TEST(Runner, DrainFinishesTailFlows) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 4;
  cfg.cc.scheme = "hpcc";
  cfg.load = 0.5;
  cfg.trace = "websearch";  // heavy tail: some flows outlive `duration`
  cfg.max_flows = 30;
  cfg.duration = sim::Ms(1);
  cfg.drain_factor = 50.0;
  Experiment e(cfg);
  ExperimentResult r = e.Run();
  EXPECT_EQ(r.flows_completed, r.flows_created);
  EXPECT_GE(r.sim_time, cfg.duration);
}

TEST(Runner, DrainStopsAtItsCap) {
  // Two 1 GB flows outlive any drain: the run ends exactly at
  // duration * (1 + drain_factor), not at the next 1 ms drain step past it.
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 3;
  cfg.duration = sim::Us(300);
  cfg.drain_factor = 0.5;
  Experiment e(cfg);
  e.AddFlow(e.hosts()[0], e.hosts()[2], 1'000'000'000, 0);
  e.AddFlow(e.hosts()[1], e.hosts()[2], 1'000'000'000, 0);
  const ExperimentResult r = e.Run();
  EXPECT_EQ(r.sim_time, sim::Us(450));
  EXPECT_EQ(r.flows_completed, 0u);
}

TEST(Runner, SeedsChangeWorkload) {
  auto run = [](uint64_t seed) {
    ExperimentConfig cfg;
    cfg.topology = TopologyKind::kStar;
    cfg.star.num_hosts = 4;
    cfg.load = 0.3;
    cfg.max_flows = 20;
    cfg.duration = sim::Ms(2);
    cfg.seed = seed;
    Experiment e(cfg);
    ExperimentResult r = e.Run();
    return r.events_executed;
  };
  EXPECT_NE(run(1), run(2));
  EXPECT_EQ(run(3), run(3));  // and identical seeds reproduce exactly
}

TEST(Runner, TestbedTopologyWiring) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kTestbed;
  cfg.testbed.servers_per_pair = 4;
  Experiment e(cfg);
  EXPECT_EQ(e.hosts().size(), 8u);
  // Dual-homed: every host has two NIC ports.
  EXPECT_EQ(e.topology().host(e.hosts()[0]).num_ports(), 2);
}

TEST(Runner, DumbbellHostOrdering) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kDumbbell;
  cfg.dumbbell.hosts_per_side = 3;
  Experiment e(cfg);
  ASSERT_EQ(e.hosts().size(), 6u);
  // Left hosts first, then right (documented for bench writers).
  EXPECT_EQ(e.topology().PathHops(e.hosts()[0], e.hosts()[1]), 2);
  EXPECT_EQ(e.topology().PathHops(e.hosts()[0], e.hosts()[3]), 3);
}

TEST(Runner, AddFlowRejectsSelfTraffic) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 2;
  Experiment e(cfg);
  EXPECT_THROW(e.AddFlow(e.hosts()[0], e.hosts()[0], 1000, 0),
               std::invalid_argument);
  EXPECT_THROW(e.AddReadFlow(e.hosts()[1], e.hosts()[1], 1000, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace hpcc::runner
