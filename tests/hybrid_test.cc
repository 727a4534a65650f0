// Hybrid fluid/packet co-simulation gates: config + scenario-schema
// validation, fluid-engine accounting, the determinism suite (equal trace
// hashes across runs, --jobs values and both fastpath engines), the k=16
// incast A/B tolerance pin (pure-packet vs hybrid background), and the
// fluid path contract: fluid flows take the packets' ECMP path, follow link
// state, and spread over the fabric exactly as their packet twins do.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "check/monitors.h"
#include "net/port.h"
#include "runner/experiment.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/rng.h"

namespace hpcc {
namespace {

runner::ExperimentConfig SmallHybridConfig() {
  runner::ExperimentConfig cfg;
  cfg.topology = runner::TopologyKind::kFatTree;  // default 2x2x2x8 = 32 hosts
  cfg.cc.scheme = "hpcc";
  cfg.load = 0.3;
  cfg.trace = "websearch";
  cfg.max_flows = 40;
  cfg.flow_class = workload::FlowClass::kFluid;
  cfg.hybrid.enabled = true;
  cfg.duration = sim::Ms(1);
  cfg.seed = 5;
  return cfg;
}

TEST(Hybrid, ConfigValidation) {
  {
    runner::ExperimentConfig cfg = SmallHybridConfig();
    cfg.shards = 4;  // fluid engine needs one event arena
    EXPECT_THROW(runner::Experiment e(cfg), std::invalid_argument);
  }
  {
    runner::ExperimentConfig cfg = SmallHybridConfig();
    cfg.cc.scheme = "dcqcn";  // no INT state to couple into
    EXPECT_THROW(runner::Experiment e(cfg), std::invalid_argument);
  }
  {
    runner::ExperimentConfig cfg = SmallHybridConfig();
    cfg.hybrid.enabled = false;  // fluid flows with no engine to carry them
    EXPECT_THROW(runner::Experiment e(cfg), std::invalid_argument);
  }
  {
    runner::ExperimentConfig cfg = SmallHybridConfig();
    cfg.flow_class = workload::FlowClass::kPacket;
    cfg.hybrid.enabled = false;
    cfg.incast = true;
    cfg.incast_opts.flow_class = workload::FlowClass::kFluid;
    EXPECT_THROW(runner::Experiment e(cfg), std::invalid_argument);
  }
}

TEST(Hybrid, ScenarioSchemaValidation) {
  auto expect_parse_error = [](const std::string& text) {
    EXPECT_THROW(scenario::ParseScenarioText(text), scenario::ScenarioError)
        << text;
  };
  const std::string topo =
      R"("topology": {"kind": "fattree"}, "cc": {"scheme": "hpcc"}, )";
  // fluid class without the hybrid block — background, incast, and event.
  expect_parse_error(R"({"name": "x", )" + topo +
                     R"("workload": {"load": 0.2, "flow_class": "fluid"}})");
  expect_parse_error(
      R"({"name": "x", )" + topo +
      R"("workload": {"incast": {"fan_in": 4, "flow_class": "fluid"}}})");
  expect_parse_error(
      R"({"name": "x", )" + topo +
      R"("events": [{"type": "incast", "at_us": 10, "flow_class": "fluid"}]})");
  // hybrid demands one lane and an INT-carrying scheme.
  expect_parse_error(R"({"name": "x", )" + topo +
                     R"("hybrid": {}, "shards": 4})");
  expect_parse_error(
      R"({"name": "x", "topology": {"kind": "fattree"},
          "cc": {"scheme": "dcqcn"}, "hybrid": {}})");
  expect_parse_error(R"({"name": "x", )" + topo +
                     R"("workload": {"load": 0.2, "flow_class": "plasma"}})");

  // A valid hybrid scenario survives the ToJson/Parse round trip intact.
  const scenario::Scenario s = scenario::ParseScenarioText(
      R"({"name": "x", )" + topo +
      R"("workload": {"load": 0.2, "flow_class": "fluid"},
          "hybrid": {"tick_us": 8}})");
  EXPECT_TRUE(s.config.hybrid.enabled);
  EXPECT_EQ(s.config.hybrid.tick, sim::Us(8));
  EXPECT_EQ(s.config.flow_class, workload::FlowClass::kFluid);
  const scenario::Scenario back =
      scenario::ParseScenario(scenario::ScenarioToJson(s));
  EXPECT_TRUE(back.config.hybrid.enabled);
  EXPECT_EQ(back.config.hybrid.tick, sim::Us(8));
  EXPECT_EQ(back.config.flow_class, workload::FlowClass::kFluid);
  EXPECT_EQ(scenario::ScenarioToJson(back).Dump(),
            scenario::ScenarioToJson(s).Dump());
}

TEST(Hybrid, FluidMapFollowsCcParameters) {
  // eta, max_stage and an explicit W_AI reach the fluid per-RTT map: a
  // fluid-only run changes with each of them.
  const uint64_t base = runner::Experiment(SmallHybridConfig()).Run().trace_hash;
  runner::ExperimentConfig eta = SmallHybridConfig();
  eta.cc.hpcc.eta = 0.8;
  EXPECT_NE(runner::Experiment(eta).Run().trace_hash, base);
  runner::ExperimentConfig wai = SmallHybridConfig();
  wai.cc.hpcc.wai_bytes = 4000;
  EXPECT_NE(runner::Experiment(wai).Run().trace_hash, base);
  // The derived-W_AI default (wai_bytes <= 0) keeps the map's own W_AI.
  runner::ExperimentConfig derived = SmallHybridConfig();
  derived.cc.hpcc.expected_flows = 3;
  EXPECT_EQ(runner::Experiment(derived).Run().trace_hash, base);
}

TEST(Hybrid, FluidFlowsAreAccountedAndComplete) {
  runner::ExperimentConfig cfg = SmallHybridConfig();
  runner::Experiment e(cfg);
  runner::ExperimentResult r = e.Run();
  EXPECT_EQ(r.fluid_flows_created, cfg.max_flows);
  EXPECT_EQ(r.flows_created, r.fluid_flows_created);  // all background = fluid
  EXPECT_EQ(r.fluid_flows_completed, r.fluid_flows_created);
  EXPECT_EQ(r.flows_completed, r.fluid_flows_completed);
  EXPECT_GT(r.fluid_ticks, 0u);
  EXPECT_GT(r.fluid_coupled_links, 0u);
  EXPECT_GT(r.fluid_delivered_bytes, 0u);
  EXPECT_NE(r.trace_hash, 0u);
}

TEST(Hybrid, MixedRunInterleavesEnginesInOneFlowIdSpace) {
  runner::ExperimentConfig cfg = SmallHybridConfig();
  cfg.incast = true;
  cfg.incast_opts.fan_in = 8;
  cfg.incast_opts.flow_bytes = 30'000;
  cfg.incast_opts.first_event = sim::Us(100);
  cfg.incast_opts.period = sim::Us(300);
  runner::Experiment e(cfg);
  runner::ExperimentResult r = e.Run();
  EXPECT_EQ(r.fluid_flows_created, cfg.max_flows);
  EXPECT_GT(r.flows_created, r.fluid_flows_created);  // + packet incast flows
  EXPECT_GT(r.packets_forwarded, 0u);                 // packets really flowed
  EXPECT_EQ(r.flows_completed, r.flows_created);
}

// The determinism contract: a hybrid run's trace hash is a pure function of
// its scenario document — across repeat runs, across --jobs, and across the
// fastpath/reference transmit engines (fluid state is read at tick instants
// that are engine-independent).
constexpr char kHybridScenario[] = R"({
  "name": "hybrid_determinism",
  "topology": {"kind": "fattree", "pods": 2, "tors_per_pod": 2,
               "aggs_per_pod": 2, "cores_per_agg": 2, "hosts_per_tor": 4},
  "cc": {"scheme": "hpcc"},
  "workload": {
    "load": 0.3, "trace": "websearch", "max_flows": 30, "flow_class": "fluid",
    "incast": {"fan_in": 8, "flow_bytes": 30000, "first_event_us": 100,
               "period_us": 300}
  },
  "hybrid": {},
  "duration_ms": 1,
  "seed": 3
})";

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Hybrid, DeterministicAcrossJobsAndRepeats) {
  scenario::Json doc = scenario::Json::Parse(kHybridScenario);
  scenario::Json sweep = scenario::Json::MakeObject();
  scenario::Json loads = scenario::Json::MakeArray();
  loads.Append(scenario::Json::MakeNumber(0.2));
  loads.Append(scenario::Json::MakeNumber(0.4));
  sweep.Set("workload.load", loads);
  doc.Set("sweep", sweep);
  const scenario::Scenario sc = scenario::ParseScenario(doc);
  const std::vector<scenario::ScenarioRun> runs = scenario::ExpandSweep(sc);
  ASSERT_EQ(runs.size(), 2u);

  scenario::ScenarioRunnerOptions o1;
  o1.jobs = 1;
  scenario::ScenarioRunnerOptions o4;
  o4.jobs = 4;
  const auto r1 = scenario::ScenarioRunner(o1).RunAll(runs);
  const auto r1b = scenario::ScenarioRunner(o1).RunAll(runs);
  const auto r4 = scenario::ScenarioRunner(o4).RunAll(runs);
  ASSERT_EQ(r1.size(), runs.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    SCOPED_TRACE(r1[i].label);
    ASSERT_TRUE(r1[i].error.empty()) << r1[i].error;
    ASSERT_TRUE(r4[i].error.empty()) << r4[i].error;
    EXPECT_NE(r1[i].result.trace_hash, 0u);
    EXPECT_EQ(r1[i].result.trace_hash, r1b[i].result.trace_hash);
    EXPECT_EQ(r1[i].result.trace_hash, r4[i].result.trace_hash);
  }

  const std::string f1 = "hybrid_jobs1.csv";
  const std::string f4 = "hybrid_jobs4.csv";
  ASSERT_TRUE(scenario::ScenarioRunner::WriteCsv(f1, r1));
  ASSERT_TRUE(scenario::ScenarioRunner::WriteCsv(f4, r4));
  const std::string b1 = ReadFile(f1);
  EXPECT_FALSE(b1.empty());
  EXPECT_EQ(b1, ReadFile(f4));
  std::remove(f1.c_str());
  std::remove(f4.c_str());
}

TEST(Hybrid, DeterministicAcrossFastpathEnginesAndMonitorClean) {
  const scenario::Json doc = scenario::Json::Parse(kHybridScenario);
  const check::FuzzRunReport trains =
      check::RunScenarioDocChecked(doc, 50'000'000, nullptr,
                                   /*fastpath_override=*/1);
  const check::FuzzRunReport reference =
      check::RunScenarioDocChecked(doc, 50'000'000, nullptr,
                                   /*fastpath_override=*/0);
  ASSERT_TRUE(trains.error.empty()) << trains.error;
  ASSERT_TRUE(reference.error.empty()) << reference.error;
  EXPECT_EQ(trains.violation_count, 0u)
      << trains.violations.front().Format();
  EXPECT_EQ(reference.violation_count, 0u)
      << reference.violations.front().Format();
  EXPECT_NE(trains.trace_hash, 0u);
  EXPECT_EQ(trains.trace_hash, reference.trace_hash);
  EXPECT_GT(trains.flows_created, 0u);
}

// The k=16 A/B gate: the same foreground (16-way incast of short packet
// flows, every 300 us) over the same offered background load, carried once
// as packet flows and once as fluid trajectories. The hybrid approximation
// must keep the foreground's FCT distribution in the packet run's
// neighborhood — this pins how far the coupling is allowed to drift.
TEST(Hybrid, K16IncastAbFctWithinTolerance) {
  auto run = [](bool hybrid) {
    runner::ExperimentConfig cfg;
    cfg.topology = runner::TopologyKind::kFatTree;  // 32 hosts
    cfg.cc.scheme = "hpcc";
    cfg.load = 0.3;
    cfg.trace = "websearch";
    cfg.max_flows = 60;
    cfg.duration = sim::Ms(2);
    cfg.seed = 11;
    cfg.incast = true;
    cfg.incast_opts.fan_in = 16;
    cfg.incast_opts.flow_bytes = 3'000;  // short-flow class, tracked apart
    cfg.incast_opts.first_event = sim::Us(100);
    cfg.incast_opts.period = sim::Us(300);
    if (hybrid) {
      cfg.flow_class = workload::FlowClass::kFluid;
      cfg.hybrid.enabled = true;
    }
    runner::Experiment e(cfg);
    return e.Run();
  };
  const runner::ExperimentResult packet = run(false);
  const runner::ExperimentResult hybrid = run(true);
  ASSERT_EQ(packet.flows_completed, packet.flows_created);
  ASSERT_EQ(hybrid.flows_completed, hybrid.flows_created);

  // Foreground short-flow completion (the incast flows are packet-class in
  // BOTH runs; only the background engine differs).
  const double p_p95 = packet.short_fct_us.Percentile(95);
  const double h_p95 = hybrid.short_fct_us.Percentile(95);
  ASSERT_GT(p_p95, 0.0);
  ASSERT_GT(h_p95, 0.0);
  const double ratio = h_p95 / p_p95;
  std::cout << "[ A/B      ] packet p95 " << p_p95 << " us, hybrid p95 "
            << h_p95 << " us, ratio " << ratio << "\n";
  // Measured 0.92 at this configuration (fluid backgrounds run marginally
  // smoother than their packet twins — no per-packet burstiness). The band
  // is the acceptance gate for coupling changes: drifting outside it means
  // the fluid backpressure no longer resembles the packet background.
  EXPECT_GT(ratio, 0.7) << "hybrid p95 " << h_p95 << " vs packet " << p_p95;
  EXPECT_LT(ratio, 1.4) << "hybrid p95 " << h_p95 << " vs packet " << p_p95;
}

// The hop-by-hop packet route of flow `id`, followed port by port: the NIC
// the host picks, then RoutePort at every switch. Empty when a packet of
// the flow could not reach dst right now.
std::vector<const net::Port*> PacketRoute(topo::Topology& t, uint32_t src,
                                          uint32_t dst, uint64_t id) {
  std::vector<const net::Port*> route;
  net::Node* n = &t.node(src);
  int port = t.host(src).PickPort(id);
  while (route.size() < t.num_nodes()) {
    const net::Port& p = n->port(port);
    if (!p.link_up()) return {};
    route.push_back(&p);
    n = p.peer();
    if (n->id() == dst) return route;
    if (!n->IsSwitch()) return {};
    port = t.switch_node(n->id()).RoutePort(id, dst);
    if (port < 0) return {};
  }
  return {};
}

// Index of the link `egress` transmits onto.
size_t LinkOf(topo::Topology& t, const net::Port* egress) {
  for (size_t li = 0; li < t.links().size(); ++li) {
    const topo::LinkSpec& l = t.links()[li];
    if (&t.node(l.a).port(l.port_a) == egress ||
        &t.node(l.b).port(l.port_b) == egress) {
      return li;
    }
  }
  return t.links().size();
}

TEST(Hybrid, FluidPathIsThePacketEcmpPath) {
  runner::ExperimentConfig cfg;
  cfg.topology = runner::TopologyKind::kFatTree;  // k=8: 128 hosts
  cfg.fattree.pods = 8;
  cfg.fattree.tors_per_pod = 4;
  cfg.fattree.aggs_per_pod = 4;
  cfg.fattree.cores_per_agg = 4;
  cfg.fattree.hosts_per_tor = 4;
  cfg.cc.scheme = "hpcc";
  cfg.hybrid.enabled = true;
  runner::Experiment e(cfg);
  topo::Topology& t = e.topology();
  analytic::FluidRegion& region = *e.fluid_region();

  struct Triple {
    uint32_t src, dst;
    uint64_t id;
  };
  std::vector<Triple> triples;
  sim::Rng rng(20190819);
  const std::vector<uint32_t>& hosts = e.hosts();
  for (int i = 0; i < 256; ++i) {
    const std::vector<size_t> pair = rng.SampleDistinct(2, hosts.size());
    const uint64_t id = rng.engine()();
    triples.push_back({hosts[pair[0]], hosts[pair[1]], id});
    region.AddFlow(id, hosts[pair[0]], hosts[pair[1]], 1'000'000, 0);
  }
  auto expect_paths_match = [&](const char* when) {
    size_t routed = 0;
    for (size_t i = 0; i < triples.size(); ++i) {
      const Triple& tr = triples[i];
      const std::vector<const net::Port*> packet =
          PacketRoute(t, tr.src, tr.dst, tr.id);
      EXPECT_EQ(region.FlowPath(i), packet) << when << ", flow " << i;
      if (!packet.empty()) ++routed;
    }
    return routed;
  };
  EXPECT_EQ(expect_paths_match("designed fabric"), triples.size());

  // ECMP spread: first-hop aggs of cross-pod flows cover every agg, instead
  // of the BFS's first parent.
  std::map<const net::Node*, int> first_aggs;
  for (size_t i = 0; i < triples.size(); ++i) {
    const std::vector<const net::Port*> path = region.FlowPath(i);
    if (path.size() == 6) ++first_aggs[path[1]->peer()];
  }
  EXPECT_EQ(first_aggs.size(), 4u * static_cast<size_t>(cfg.fattree.pods));

  // Take down the ToR -> agg uplink of a cross-pod flow `a` and the source
  // NIC of another flow `b`: the first reroutes every flow on that uplink,
  // the second strands b's host.
  size_t a = 0;
  while (region.FlowPath(a).size() != 6) ++a;
  size_t b = 0;
  while (triples[b].src == triples[a].src || triples[b].src == triples[a].dst) {
    ++b;
  }
  const std::vector<const net::Port*> before_a = region.FlowPath(a);
  const size_t uplink = LinkOf(t, before_a[1]);
  const size_t nic = LinkOf(t, region.FlowPath(b)[0]);
  t.SetLinkUp(uplink, false);
  t.SetLinkUp(nic, false);
  region.Repath();
  EXPECT_LT(expect_paths_match("after link_down"), triples.size());
  EXPECT_TRUE(region.FlowPath(b).empty());
  EXPECT_NE(region.FlowPath(a), before_a);
  for (size_t i = 0; i < triples.size(); ++i) {
    for (const net::Port* p : region.FlowPath(i)) {
      EXPECT_TRUE(p->link_up()) << "flow " << i << " routed over a down link";
    }
  }

  // Repair restores every path.
  t.SetLinkUp(uplink, true);
  t.SetLinkUp(nic, true);
  region.Repath();
  EXPECT_EQ(expect_paths_match("after link_up"), triples.size());
  EXPECT_EQ(region.FlowPath(a), before_a);
}

// A ToR uplink fails under a live fluid flow: at the link_down every flow on
// it moves to a surviving uplink (the fluid-sanity monitor flags any fluid
// offered to a down link), and after the repair every flow completes.
TEST(Hybrid, LinkFlapRepathsLiveFluidFlowsUnderMonitors) {
  runner::Experiment e(SmallHybridConfig());
  check::MonitorRegistry reg;
  check::StandardMonitorOptions mo;
  mo.topology_mutates = true;
  check::InstallStandardMonitors(reg, e, mo);
  e.StartWorkload();
  e.RunUntil(sim::Us(200));

  const analytic::FluidRegion& region = *e.fluid_region();
  size_t victim = 0;
  while (victim < region.flows().size() &&
         (region.flows()[victim].done || region.FlowPath(victim).size() < 4)) {
    ++victim;
  }
  ASSERT_LT(victim, region.flows().size()) << "no live cross-ToR fluid flow";
  const size_t hops = region.FlowPath(victim).size();
  const net::Port* uplink_port = region.FlowPath(victim)[1];
  const size_t uplink = LinkOf(e.topology(), uplink_port);
  const sim::TimePs now = e.simulator().now();
  e.InstallLinkEvent(now + sim::Us(1), uplink, /*up=*/false);
  e.InstallLinkEvent(now + sim::Us(300), uplink, /*up=*/true);
  e.RunUntil(now + sim::Us(1));
  const std::vector<const net::Port*> rerouted = region.FlowPath(victim);
  ASSERT_EQ(rerouted.size(), hops);
  EXPECT_NE(rerouted[1], uplink_port);

  const runner::ExperimentResult r = e.FinishRun();
  reg.Finish(e.simulator().now());
  EXPECT_EQ(reg.violation_count(), 0u) << reg.Summary();
  EXPECT_EQ(r.flows_completed, r.flows_created);
}

// The trunk-down repro: a dumbbell whose only trunk dies at t = 1 us and
// never returns. Fluid flows crossing it have no path, so they stall: no
// fluid byte crosses the dead trunk and none of them completes, while the
// flows that stay on one side finish — the same flows the packet twin of
// this background completes.
TEST(Hybrid, DeadTrunkCarriesNoFluidAndStallsCrossingFlows) {
  auto config = [](bool fluid) {
    runner::ExperimentConfig cfg;
    cfg.topology = runner::TopologyKind::kDumbbell;
    cfg.dumbbell.hosts_per_side = 4;
    cfg.cc.scheme = "hpcc";
    cfg.load = 0.6;
    cfg.trace = "websearch";
    cfg.max_flows = 36;
    cfg.duration = sim::Ms(2);
    cfg.seed = 7;
    if (fluid) {
      cfg.flow_class = workload::FlowClass::kFluid;
      cfg.hybrid.enabled = true;
    }
    return cfg;
  };
  runner::Experiment e(config(true));
  topo::Topology& t = e.topology();
  const uint32_t left_sw = t.switches()[0];
  ASSERT_EQ(t.links()[0].a, left_sw);  // link 0 is the trunk
  e.InstallLinkEvent(sim::Us(1), 0, /*up=*/false);
  const runner::ExperimentResult r = e.Run();
  ASSERT_EQ(r.fluid_flows_created, 36u);

  const topo::LinkSpec& trunk = t.links()[0];
  const sim::TimePs now = e.simulator().now();
  EXPECT_EQ(t.node(trunk.a).port(trunk.port_a).FluidTxAt(now), 0u);
  EXPECT_EQ(t.node(trunk.b).port(trunk.port_b).FluidTxAt(now), 0u);

  auto left = [&](uint32_t host) {
    return t.node(host).port(0).peer()->id() == left_sw;
  };
  size_t crossing = 0;
  size_t local = 0;
  for (const auto& rec : e.fluid_region()->flows()) {
    if (left(rec.src) != left(rec.dst)) {
      ++crossing;
      EXPECT_FALSE(rec.done) << "flow " << rec.id << " crossed a dead trunk";
    } else {
      ++local;
      EXPECT_TRUE(rec.done) << "same-side flow " << rec.id;
    }
  }
  EXPECT_GT(crossing, 0u);
  EXPECT_EQ(r.fluid_flows_completed, local);

  runner::Experiment packet(config(false));
  packet.InstallLinkEvent(sim::Us(1), 0, /*up=*/false);
  EXPECT_EQ(packet.Run().flows_completed, r.fluid_flows_completed);
}

// Per-tier spread of fabric load: max/mean of the bytes each switch-to-switch
// directed link carried (real + fluid), by tier.
std::map<std::string, double> TierImbalance(runner::Experiment& e) {
  topo::Topology& t = e.topology();
  const sim::TimePs now = e.simulator().now();
  auto tier_of = [&](uint32_t node) {
    const std::string& name = t.node(node).name();
    return name.substr(0, name.find_first_of("0123456789_"));
  };
  std::map<std::string, std::vector<double>> bytes;
  for (const topo::LinkSpec& l : t.links()) {
    if (!t.node(l.a).IsSwitch() || !t.node(l.b).IsSwitch()) continue;
    for (const bool a_to_b : {true, false}) {
      const uint32_t from = a_to_b ? l.a : l.b;
      const uint32_t to = a_to_b ? l.b : l.a;
      const net::Port& p = t.node(from).port(a_to_b ? l.port_a : l.port_b);
      bytes[tier_of(from) + "->" + tier_of(to)].push_back(
          static_cast<double>(p.tx_bytes() + p.FluidTxAt(now)));
    }
  }
  std::map<std::string, double> out;
  for (const auto& [tier, v] : bytes) {
    double sum = 0;
    for (double b : v) sum += b;
    const double mean = sum / static_cast<double>(v.size());
    out[tier] = mean > 0 ? *std::max_element(v.begin(), v.end()) / mean : 0;
  }
  return out;
}

// The k=16 no-incast A/B of fabric utilization: K16IncastAbFctWithinTolerance's
// fabric and background without the incast, carried once as packet flows
// and once as fluid trajectories. Fluid flows hash onto the packets' ECMP
// paths, so each fabric tier's imbalance (max/mean link bytes) must match
// the packet run's. A fluid engine pinned to one shortest path piles each
// ToR's flows onto its first agg and misses this band on every tier.
TEST(Hybrid, K16FabricUtilizationSpreadMatchesPacketBackground) {
  auto run = [](bool fluid) {
    runner::ExperimentConfig cfg;
    cfg.topology = runner::TopologyKind::kFatTree;  // 32 hosts
    cfg.cc.scheme = "hpcc";
    cfg.load = 0.3;
    cfg.trace = "websearch";
    cfg.max_flows = 300;
    cfg.duration = sim::Ms(2);
    cfg.seed = 11;
    if (fluid) {
      cfg.flow_class = workload::FlowClass::kFluid;
      cfg.hybrid.enabled = true;
    }
    runner::Experiment e(cfg);
    const runner::ExperimentResult r = e.Run();
    EXPECT_EQ(r.flows_completed, r.flows_created);
    return TierImbalance(e);
  };
  const std::map<std::string, double> packet = run(false);
  const std::map<std::string, double> fluid = run(true);
  ASSERT_EQ(packet.size(), 4u);  // tor->agg, agg->core, core->agg, agg->tor
  for (const auto& [tier, p] : packet) {
    const double f = fluid.at(tier);
    std::cout << "[ spread   ] " << tier << ": packet max/mean " << p
              << ", fluid " << f << "\n";
    ASSERT_GT(p, 0.0);
    EXPECT_GT(f / p, 0.8) << tier;
    EXPECT_LT(f / p, 1.25) << tier;
  }
}

}  // namespace
}  // namespace hpcc
