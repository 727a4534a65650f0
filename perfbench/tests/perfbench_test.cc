// Unit tests of the benchmark's own code: span self-time arithmetic and the
// reproducibility of the seeded inputs.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>

#include "inputs.h"
#include "spans.h"
#include "workload/trace_replay.h"

namespace perfbench {
namespace {

TEST(CoveredSeconds, MergesOverlapsAndClipsToTheParent) {
  // [1,3] and [2,5] overlap into [1,5]; [8,12] is clipped to [8,10].
  EXPECT_DOUBLE_EQ(CoveredSeconds(0, 10, {{1, 3}, {2, 5}, {8, 12}}), 6);
  EXPECT_DOUBLE_EQ(CoveredSeconds(0, 10, {}), 0);
  EXPECT_DOUBLE_EQ(CoveredSeconds(0, 10, {{-5, 20}}), 10);
  EXPECT_DOUBLE_EQ(CoveredSeconds(0, 10, {{11, 12}}), 0);
  // A child nested inside another adds nothing.
  EXPECT_DOUBLE_EQ(CoveredSeconds(0, 10, {{2, 8}, {3, 4}}), 6);
}

TEST(SpanLog, SelfTimeSubtractsDirectChildrenOnly) {
  SpanLog log;
  const int root = log.Add("root", -1, 0, 10);
  const int a = log.Add("a", root, 1, 3);
  log.Add("b", root, 2, 5);
  log.Add("c", root, 8, 12);
  log.Add("a.child", a, 1.5, 2.5);
  const std::vector<double> self = log.SelfTimes();
  EXPECT_DOUBLE_EQ(self[0], 4);  // 10 - |[1,5] u [8,10]|
  EXPECT_DOUBLE_EQ(self[1], 1);  // 2 - 1: its grandchild counts only here
  EXPECT_DOUBLE_EQ(self[2], 3);
  EXPECT_DOUBLE_EQ(self[4], 1);
  EXPECT_DOUBLE_EQ(log.TotalSeconds("a"), 2);
  EXPECT_EQ(log.Count("c"), 1u);
}

TEST(SpanLog, ScopesNestAndCloseInOrder) {
  SpanLog log;
  {
    SpanLog::Scope outer(log, "outer");
    SpanLog::Scope inner(log, "inner");
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_LE(log.spans()[1].end_s, log.spans()[0].end_s);
  EXPECT_GE(log.SelfTimes()[0], 0);

  const int a = log.Begin("a");
  log.Begin("b");
  EXPECT_THROW(log.End(a), std::logic_error);
}

TEST(Inputs, SameSeedSameBytes) {
  for (const Workload& w : Workloads()) {
    const auto a = GenerateArrivals(w, 42);
    const auto b = GenerateArrivals(w, 42);
    EXPECT_EQ(a, b) << w.name;
    EXPECT_EQ(hpcc::workload::FormatFlowTrace(a),
              hpcc::workload::FormatFlowTrace(b));
    EXPECT_EQ(ScenarioDocument(w, 42, "t.csv"),
              ScenarioDocument(w, 42, "t.csv"));
  }
}

TEST(Inputs, DifferentSeedDifferentArrivals) {
  for (const Workload& w : Workloads()) {
    EXPECT_NE(GenerateArrivals(w, 1), GenerateArrivals(w, 2)) << w.name;
    EXPECT_NE(ScenarioDocument(w, 1, "t.csv"), ScenarioDocument(w, 2, "t.csv"));
  }
}

TEST(Inputs, ArrivalsAreValidTraceRows) {
  for (const Workload& w : Workloads()) {
    const uint64_t hosts =
        static_cast<uint64_t>(w.pods) * w.tors_per_pod * w.hosts_per_tor;
    const auto records = GenerateArrivals(w, 7);
    ASSERT_FALSE(records.empty()) << w.name;
    EXPECT_LE(records.size(), w.max_flows);
    hpcc::sim::TimePs last = 0;
    for (const auto& r : records) {
      EXPECT_GE(r.at, last);
      EXPECT_LE(hpcc::sim::ToUs(r.at), w.horizon_us);
      EXPECT_NE(r.src, r.dst);
      EXPECT_LT(r.src, hosts);
      EXPECT_LT(r.dst, hosts);
      EXPECT_GT(r.bytes, 0u);
      last = r.at;
    }
    // The trace file the simulator reads parses back to the same records.
    std::istringstream in(hpcc::workload::FormatFlowTrace(records));
    EXPECT_EQ(hpcc::workload::ParseFlowTrace(in), records) << w.name;
  }
}

TEST(Inputs, NamedWorkloads) {
  std::set<std::string> names;
  for (const Workload& w : Workloads()) names.insert(w.name);
  EXPECT_EQ(names, (std::set<std::string>{"fabric32_packet", "hybrid48_fluid",
                                          "sweep32_warm"}));
  EXPECT_EQ(FindWorkload("nope"), nullptr);
  ASSERT_NE(FindWorkload("sweep32_warm"), nullptr);
  EXPECT_EQ(FindWorkload("sweep32_warm")->sweep_fan_in.size(), 8u);
}

}  // namespace
}  // namespace perfbench
