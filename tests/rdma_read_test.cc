// Tests for RDMA READ (§4.2): requester-initiated transfers where the
// responder does the sending.
#include <gtest/gtest.h>

#include "runner/experiment.h"

namespace hpcc::runner {
namespace {

ExperimentConfig StarCfg(int hosts, const char* scheme = "hpcc") {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = hosts;
  cfg.cc.scheme = scheme;
  return cfg;
}

TEST(RdmaRead, CompletesAndDeliversAllBytes) {
  Experiment e(StarCfg(2));
  const auto& h = e.hosts();
  host::Flow* f = e.AddReadFlow(/*requester=*/h[0], /*responder=*/h[1],
                                1'000'000, 0);
  e.RunUntil(sim::Ms(10));
  ASSERT_TRUE(f->done);
  // Data flowed responder -> requester.
  EXPECT_EQ(f->spec().src, h[1]);
  EXPECT_EQ(f->spec().dst, h[0]);
  const auto* rx = e.topology().host(h[0]).FindRxState(f->spec().id);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->rcv_nxt, 1'000'000u);
}

TEST(RdmaRead, DoesNotStartBeforeRequestArrives) {
  Experiment e(StarCfg(2));
  const auto& h = e.hosts();
  host::Flow* f = e.AddReadFlow(h[0], h[1], 100'000, sim::Us(500));
  e.RunUntil(sim::Us(499));
  EXPECT_FALSE(f->started);
  EXPECT_EQ(e.topology().host(h[1]).data_packets_sent(), 0u);
  // The request needs ~half an RTT to cross the fabric.
  e.RunUntil(sim::Us(500) + e.base_rtt());
  EXPECT_TRUE(f->started);
}

TEST(RdmaRead, FctIncludesRequestPropagation) {
  // Disjoint host pairs so the two transfers do not contend.
  Experiment e(StarCfg(5));
  const auto& h = e.hosts();
  host::Flow* write = e.AddFlow(h[1], h[2], 500'000, 0);
  host::Flow* read = e.AddReadFlow(h[3], h[4], 500'000, 0);
  e.RunUntil(sim::Ms(10));
  ASSERT_TRUE(write->done);
  ASSERT_TRUE(read->done);
  const sim::TimePs write_fct = write->finish_time - write->spec().start_time;
  const sim::TimePs read_fct = read->finish_time - read->spec().start_time;
  // READ pays the extra one-way request trip.
  EXPECT_GT(read_fct, write_fct);
  EXPECT_LT(read_fct, write_fct + e.base_rtt());
}

TEST(RdmaRead, ManyReadsFromOneRequesterFormIncast) {
  // A requester pulling from 8 responders at once creates an incast on its
  // own downlink; HPCC must keep it tame like any other incast.
  Experiment e(StarCfg(9));
  const auto& h = e.hosts();
  std::vector<host::Flow*> reads;
  for (int i = 1; i <= 8; ++i) {
    reads.push_back(e.AddReadFlow(h[0], h[i], 400'000, 0));
  }
  e.RunUntil(sim::Ms(10));
  ExperimentResult r = e.Collect();
  for (auto* f : reads) EXPECT_TRUE(f->done);
  EXPECT_EQ(r.pause_events, 0u);
  EXPECT_EQ(r.dropped_packets, 0u);
}

TEST(RdmaRead, MixesWithWritesOnSameHosts) {
  Experiment e(StarCfg(3));
  const auto& h = e.hosts();
  host::Flow* w = e.AddFlow(h[0], h[1], 300'000, 0);
  host::Flow* r1 = e.AddReadFlow(h[0], h[1], 300'000, 0);  // pull back
  host::Flow* r2 = e.AddReadFlow(h[2], h[0], 300'000, sim::Us(10));
  e.RunUntil(sim::Ms(10));
  EXPECT_TRUE(w->done);
  EXPECT_TRUE(r1->done);
  EXPECT_TRUE(r2->done);
}

TEST(RdmaRead, WorksUnderDcqcnToo) {
  Experiment e(StarCfg(2, "dcqcn"));
  const auto& h = e.hosts();
  host::Flow* f = e.AddReadFlow(h[0], h[1], 2'000'000, 0);
  e.RunUntil(sim::Ms(20));
  EXPECT_TRUE(f->done);
}

TEST(RdmaRead, ReadFlowsRecordFct) {
  Experiment e(StarCfg(2));
  const auto& h = e.hosts();
  e.AddReadFlow(h[0], h[1], 50'000, 0);
  e.RunUntil(sim::Ms(5));
  ExperimentResult r = e.Collect();
  EXPECT_EQ(r.flows_completed, 1u);
  EXPECT_EQ(r.fct->total_flows(), 1u);
}

// READ flows on lanes: every lane draws the id, the responder's lane owns
// the flow and the requester's lane posts the request, so two lanes give
// the one-lane results exactly.
TEST(RdmaRead, LanesMatchOneLane) {
  auto run = [](int shards) {
    ExperimentConfig cfg = StarCfg(9);
    cfg.shards = shards;
    Experiment e(cfg);
    EXPECT_EQ(e.shards(), shards);
    const auto& h = e.hosts();
    for (int i = 1; i <= 8; ++i) {
      e.AddReadFlow(h[0], h[i], 200'000 + 10'000 * static_cast<uint64_t>(i),
                    sim::Us(i));
    }
    e.AddReadFlow(h[8], h[1], 150'000, 0);
    e.AddFlow(h[2], h[7], 300'000, sim::Us(5));
    e.RunUntil(sim::Ms(10));
    return e.Collect();
  };
  const ExperimentResult one = run(1);
  const ExperimentResult two = run(2);
  EXPECT_EQ(one.flows_created, 10u);
  EXPECT_EQ(one.flows_completed, 10u);
  EXPECT_EQ(two.flows_created, one.flows_created);
  EXPECT_EQ(two.flows_completed, one.flows_completed);
  EXPECT_EQ(two.trace_hash, one.trace_hash);
  EXPECT_EQ(two.packets_forwarded, one.packets_forwarded);
  EXPECT_EQ(two.max_queue_bytes, one.max_queue_bytes);
}

}  // namespace
}  // namespace hpcc::runner
