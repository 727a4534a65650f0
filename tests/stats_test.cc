// Tests for percentile tracking, the switch-queue count distribution, FCT
// binning, time series and PFC stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <thread>

#include "runner/experiment.h"
#include "sim/rng.h"
#include "stats/count_distribution.h"
#include "stats/fct_recorder.h"
#include "stats/percentile.h"
#include "stats/pfc_monitor.h"
#include "stats/timeseries.h"

namespace hpcc::stats {
namespace {

TEST(Percentile, EmptyIsNaN) {
  // NaN (not 0) so "no samples" is distinguishable from a real 0 downstream;
  // CSV/manifest writers map it to an empty cell / JSON null.
  PercentileTracker t;
  EXPECT_TRUE(std::isnan(t.Percentile(50)));
  EXPECT_TRUE(std::isnan(t.Mean()));
  EXPECT_TRUE(std::isnan(t.Min()));
  EXPECT_TRUE(std::isnan(t.Max()));
  EXPECT_TRUE(t.Empty());
}

TEST(Percentile, ConstReadDoesNotMutate) {
  // Reading an unsorted tracker must not reorder samples_: concurrent
  // readers of a merged tracker would race otherwise. Exercised for real
  // under TSan by the ConcurrentReads test below.
  PercentileTracker a;
  for (int i = 100; i > 0; --i) a.Add(i);
  PercentileTracker b;
  b.Merge(a);  // unsorted
  const PercentileTracker& view = b;
  EXPECT_NEAR(view.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(view.Percentile(50), 50.5, 0.01);
  b.Sort();  // fast path gives identical answers
  EXPECT_NEAR(view.Percentile(50), 50.5, 0.01);
}

TEST(Percentile, ConcurrentReads) {
  // Cross-thread read of one merged tracker: the sweep-aggregation pattern
  // the TSan CI job guards. Both sorted and unsorted trackers are read from
  // two threads at once.
  PercentileTracker shared;
  sim::Rng rng(7);
  for (int i = 0; i < 20000; ++i) shared.Add(rng.Uniform() * 1e6);
  PercentileTracker unsorted;
  unsorted.Merge(shared);
  shared.Sort();
  auto reader = [&](const PercentileTracker& t, double* out) {
    double acc = 0;
    for (int i = 0; i < 50; ++i) {
      acc += t.Percentile(50) + t.Percentile(99) + t.Mean() + t.Max();
    }
    *out = acc;
  };
  double r1 = 0, r2 = 0, r3 = 0, r4 = 0;
  std::thread t1(reader, std::cref(shared), &r1);
  std::thread t2(reader, std::cref(shared), &r2);
  std::thread t3(reader, std::cref(unsorted), &r3);
  std::thread t4(reader, std::cref(unsorted), &r4);
  t1.join();
  t2.join();
  t3.join();
  t4.join();
  EXPECT_DOUBLE_EQ(r1, r2);
  EXPECT_DOUBLE_EQ(r3, r4);
  EXPECT_DOUBLE_EQ(r1, r3);
}

TEST(Percentile, SingleSample) {
  PercentileTracker t;
  t.Add(42);
  EXPECT_EQ(t.Percentile(0), 42);
  EXPECT_EQ(t.Percentile(50), 42);
  EXPECT_EQ(t.Percentile(100), 42);
}

TEST(Percentile, KnownQuantiles) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.Add(i);
  EXPECT_NEAR(t.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(t.Percentile(95), 95.05, 0.01);
  EXPECT_NEAR(t.Percentile(99), 99.01, 0.01);
  EXPECT_EQ(t.Min(), 1);
  EXPECT_EQ(t.Max(), 100);
  EXPECT_DOUBLE_EQ(t.Mean(), 50.5);
}

TEST(Percentile, InterleavedAddAndQuery) {
  PercentileTracker t;
  t.Add(10);
  EXPECT_EQ(t.Percentile(50), 10);
  t.Add(20);
  t.Add(30);
  EXPECT_EQ(t.Percentile(50), 20);  // re-sorts after new samples
}

class PercentileProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PercentileProperty, MatchesSortedVector) {
  sim::Rng rng(GetParam());
  PercentileTracker t;
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.Uniform() * 1e6;
    t.Add(x);
    v.push_back(x);
  }
  std::sort(v.begin(), v.end());
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0}) {
    const double rank = p / 100.0 * (v.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    const double want = v[lo] * (1 - frac) + v[std::min(lo + 1, v.size() - 1)] * frac;
    EXPECT_NEAR(t.Percentile(p), want, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty,
                         ::testing::Values(3, 5, 8));

constexpr double kCountPercentiles[] = {0, 0.1, 50, 90, 95, 99, 99.9, 100};

// Queue-occupancy-like samples: mostly zero, the rest a few packet-size
// multiples plus arbitrary byte counts, so values repeat and also stand alone.
std::vector<int64_t> QueueLikeSamples(uint64_t seed, int n) {
  sim::Rng rng(seed);
  std::vector<int64_t> v;
  v.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double u = rng.Uniform();
    if (u < 0.7) {
      v.push_back(0);
    } else if (u < 0.9) {
      v.push_back(1048 * rng.UniformInt(1, 40));
    } else {
      v.push_back(rng.UniformInt(1, 3'000'000));
    }
  }
  return v;
}

// Bit-for-bit equality of every checked percentile against the sample-vector
// tracker fed the same samples.
void ExpectSamePercentiles(const CountDistribution& d,
                           const std::vector<int64_t>& samples) {
  PercentileTracker t;
  for (int64_t s : samples) t.Add(static_cast<double>(s));
  ASSERT_EQ(d.Count(), t.Count());
  for (double p : kCountPercentiles) {
    EXPECT_EQ(std::bit_cast<uint64_t>(d.Percentile(p)),
              std::bit_cast<uint64_t>(t.Percentile(p)))
        << "p" << p << ": " << d.Percentile(p) << " vs " << t.Percentile(p);
  }
}

TEST(CountDistribution, MatchesPercentileTrackerBitForBit) {
  std::vector<std::vector<int64_t>> sets = {
      QueueLikeSamples(3, 20'000), QueueLikeSamples(11, 997),
      std::vector<int64_t>(500, 0), {7'340}, {0, 52'400}, {9'000, 1'048}};
  for (const std::vector<int64_t>& samples : sets) {
    SCOPED_TRACE(samples.size());
    CountDistribution d;
    for (int64_t s : samples) d.Add(s);
    ExpectSamePercentiles(d, samples);  // unsorted read
    d.Sort();
    ExpectSamePercentiles(d, samples);  // sorted read
  }
}

TEST(CountDistribution, MergeOrderDoesNotMatter) {
  // Four lanes of different sizes, one holding only zeros (no value slots).
  const std::vector<std::vector<int64_t>> lanes = {
      QueueLikeSamples(5, 3'000), QueueLikeSamples(6, 1'200),
      QueueLikeSamples(7, 17), std::vector<int64_t>(900, 0)};
  std::vector<int64_t> all;
  std::vector<CountDistribution> dists(lanes.size());
  for (size_t i = 0; i < lanes.size(); ++i) {
    for (int64_t s : lanes[i]) dists[i].Add(s);
    all.insert(all.end(), lanes[i].begin(), lanes[i].end());
  }
  std::vector<size_t> order(lanes.size());
  std::iota(order.begin(), order.end(), 0);
  do {
    CountDistribution d;
    for (size_t lane : order) d.Merge(dists[lane]);
    d.Sort();
    ExpectSamePercentiles(d, all);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(CountDistribution, EmptyIsNaNAndCountsMatch) {
  CountDistribution d;
  EXPECT_TRUE(d.Empty());
  EXPECT_EQ(d.Count(), 0u);
  EXPECT_TRUE(std::isnan(d.Percentile(50)));
  d.Merge(CountDistribution{});
  d.Sort();
  EXPECT_TRUE(std::isnan(d.Percentile(0)));
  d.Add(0);
  d.Add(0);
  d.Add(4'096);
  EXPECT_FALSE(d.Empty());
  EXPECT_EQ(d.Count(), 3u);
  EXPECT_EQ(d.Distinct(), 2u);
  EXPECT_EQ(d.Percentile(100), 4'096);
  EXPECT_EQ(d.Percentile(0), 0);
}

TEST(CountDistribution, QueueMonitorStorageIsDistinctOccupancies) {
  // 10,000 sampling ticks over every switch port of a small loaded
  // fat-tree: the monitor's distribution and its warm-checkpoint copy hold
  // one entry per distinct occupancy, not one per (port, tick) sample.
  runner::ExperimentConfig cfg;
  cfg.cc.scheme = "dcqcn";
  cfg.load = 0.6;
  cfg.duration = sim::Ms(1);
  cfg.drain_factor = 0;
  cfg.queue_sample_interval = sim::Ns(100);
  runner::Experiment e(cfg);
  const runner::ExperimentResult r = e.Run();
  uint64_t ports = 0;
  for (uint32_t s : e.topology().switches()) {
    ports += static_cast<uint64_t>(e.topology().switch_node(s).num_ports());
  }
  EXPECT_EQ(r.queue_dist.Count(), 10'000 * ports);
  EXPECT_GT(r.max_queue_bytes, 0);
  // Occupancies are whole bytes in [0, max], and far fewer of them occur
  // than samples are taken (~7 K distinct of 640 K here).
  EXPECT_GT(r.queue_dist.Distinct(), 1u);
  EXPECT_LE(r.queue_dist.Distinct(),
            static_cast<uint64_t>(r.max_queue_bytes) + 1);
  EXPECT_LT(r.queue_dist.Distinct() * 20, r.queue_dist.Count());
  const auto w = e.CaptureWarmState();
  ASSERT_EQ(w->lanes.size(), 1u);
  const CountDistribution& held = w->lanes[0].queue.dist;
  EXPECT_EQ(held.Count(), r.queue_dist.Count());
  EXPECT_EQ(held.Distinct(), r.queue_dist.Distinct());
}

TEST(FctRecorder, BinsBySizeAndFloorsSlowdownAtOne) {
  FctRecorder r({1'000, 10'000});
  r.Record(500, sim::Us(10), sim::Us(10));    // slowdown 1, bin 0
  r.Record(500, sim::Us(5), sim::Us(10));     // floored to 1
  r.Record(5'000, sim::Us(40), sim::Us(10));  // slowdown 4, bin 1
  r.Record(50'000, sim::Us(90), sim::Us(10)); // slowdown 9, bin 2
  EXPECT_EQ(r.bin(0).Count(), 2u);
  EXPECT_EQ(r.bin(1).Count(), 1u);
  EXPECT_EQ(r.bin(2).Count(), 1u);
  EXPECT_DOUBLE_EQ(r.bin(0).Percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(r.bin(1).Percentile(50), 4.0);
  EXPECT_EQ(r.total_flows(), 4u);
}

TEST(FctRecorder, EdgeSizesGoToLowerBin) {
  FctRecorder r({1'000});
  r.Record(1'000, sim::Us(10), sim::Us(10));  // exactly the edge
  EXPECT_EQ(r.bin(0).Count(), 1u);
  EXPECT_EQ(r.bin(1).Count(), 0u);
}

TEST(FctRecorder, PaperBinSets) {
  EXPECT_EQ(FctRecorder::WebSearchBins().size(), 10u);
  EXPECT_EQ(FctRecorder::WebSearchBins().back(), 30'000'000u);
  EXPECT_EQ(FctRecorder::FbHadoopBins().front(), 324u);
  EXPECT_EQ(FctRecorder::FbHadoopBins().back(), 10'000'000u);
}

TEST(FctRecorder, TableFormatsNonEmptyBins) {
  FctRecorder r(FctRecorder::WebSearchBins());
  r.Record(100, sim::Us(20), sim::Us(10));
  r.Record(25'000'000, sim::Us(400), sim::Us(100));
  const std::string table = r.FormatTable();
  EXPECT_NE(table.find("<=6.7K"), std::string::npos);
  EXPECT_NE(table.find("all"), std::string::npos);
}

TEST(TimeSeries, StoresAndSummarizesWindows) {
  TimeSeries ts;
  ts.Add(sim::Us(1), 10.0);
  ts.Add(sim::Us(2), 30.0);
  ts.Add(sim::Us(3), 20.0);
  EXPECT_EQ(ts.points().size(), 3u);
  // Windows are (from, to]: the sample at `from` belongs to the window
  // before.
  const PercentileTracker w = ts.Window(sim::Us(1), sim::Us(3));
  EXPECT_EQ(w.Count(), 2u);
  EXPECT_DOUBLE_EQ(w.Max(), 30.0);
  EXPECT_DOUBLE_EQ(w.Mean(), 25.0);
  EXPECT_DOUBLE_EQ(ts.Window(0, sim::Us(3)).Max(), 30.0);
}

TEST(TimeSeries, EmptyWindowReadsNaNNotZero) {
  TimeSeries ts;
  ts.Add(sim::Us(10), 5.0);
  const PercentileTracker w = ts.Window(sim::Us(10), sim::Us(20));
  EXPECT_EQ(w.Count(), 0u);
  EXPECT_TRUE(std::isnan(w.Max()));
  EXPECT_TRUE(std::isnan(w.Mean()));
  EXPECT_TRUE(std::isnan(w.Percentile(95)));
}

TEST(TimeSeries, JainIndex) {
  TimeSeries a;
  TimeSeries b;
  for (int i = 1; i <= 4; ++i) {
    a.Add(sim::Us(i), 10.0);
    b.Add(sim::Us(i), i <= 2 ? 0.0 : 10.0);
  }
  // Equal shares: 1. One flow idle over the window: 1/n.
  EXPECT_DOUBLE_EQ(JainIndex({a, a}, sim::Us(2), sim::Us(4)), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({a, b}, sim::Us(2), sim::Us(4)), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({a, b}, 0, sim::Us(2)), 0.5);
  // Undefined, never 0: all-zero series, an empty window, no series.
  EXPECT_TRUE(std::isnan(JainIndex({b, b}, 0, sim::Us(2))));
  EXPECT_TRUE(std::isnan(JainIndex({a, b}, sim::Us(4), sim::Us(9))));
  EXPECT_TRUE(std::isnan(JainIndex({}, 0, sim::Us(4))));
}

TEST(TimeSeries, MaxPointsCapsViaStrideDoubling) {
  TimeSeries ts(64);
  EXPECT_EQ(ts.max_points(), 64u);
  for (int i = 0; i < 100'000; ++i) {
    ts.Add(sim::Us(i), static_cast<double>(i));
  }
  // Bounded no matter how long the run...
  EXPECT_LE(ts.points().size(), 64u);
  EXPECT_GE(ts.points().size(), 32u);  // ...but not over-thinned
  // ...and the endpoints survive every compaction.
  EXPECT_EQ(ts.points().front().first, sim::Us(0));
  EXPECT_EQ(ts.points().back().first, sim::Us(99'999));
  // Time stays strictly increasing through compactions.
  for (size_t i = 1; i < ts.points().size(); ++i) {
    EXPECT_LT(ts.points()[i - 1].first, ts.points()[i].first);
  }
}

TEST(TimeSeries, CapAppliedToExistingPoints) {
  TimeSeries ts;
  for (int i = 0; i < 1000; ++i) ts.Add(sim::Us(i), 1.0);
  ts.set_max_points(16);
  EXPECT_LE(ts.points().size(), 16u);
  EXPECT_EQ(ts.points().front().first, sim::Us(0));
}

TEST(TimeSeries, TinyCapClampedToUsableMinimum) {
  TimeSeries ts(1);  // clamped to 4: first/last plus a thinned middle
  EXPECT_EQ(ts.max_points(), 4u);
  for (int i = 0; i < 100; ++i) ts.Add(sim::Us(i), 1.0);
  EXPECT_LE(ts.points().size(), 4u);
  EXPECT_FALSE(ts.empty());
}

TEST(PfcMonitor, TracksDurationsAndPeaks) {
  PfcMonitor m;
  const auto& obs = m.observer();
  // node 1 port 0 paused 10us..40us; node 2 port 1 paused 20us..50us.
  obs.on_change(1, 0, net::kDataPriority, sim::Us(10), true);
  obs.on_change(2, 1, net::kDataPriority, sim::Us(20), true);
  obs.on_change(1, 0, net::kDataPriority, sim::Us(40), false);
  obs.on_change(2, 1, net::kDataPriority, sim::Us(50), false);
  m.Finish(sim::Us(100));
  EXPECT_EQ(m.pause_count(), 2u);
  EXPECT_EQ(m.total_pause_time(), sim::Us(60));
  EXPECT_NEAR(m.PauseTimeFraction(sim::Us(100), 6), 0.1, 1e-9);
  const PercentileTracker d = m.DurationDistributionUs();
  EXPECT_DOUBLE_EQ(d.Percentile(100), 30.0);
}

TEST(PfcMonitor, OpenPausesClosedByFinish) {
  PfcMonitor m;
  m.observer().on_change(1, 0, net::kDataPriority, sim::Us(10), true);
  m.Finish(sim::Us(25));
  EXPECT_EQ(m.total_pause_time(), sim::Us(15));
}

TEST(PfcMonitor, IgnoresControlPriority) {
  PfcMonitor m;
  m.observer().on_change(1, 0, net::kControlPriority, sim::Us(10), true);
  EXPECT_EQ(m.pause_count(), 0u);
}

TEST(PfcMonitor, DuplicatePauseEventsIgnored) {
  PfcMonitor m;
  m.observer().on_change(1, 0, net::kDataPriority, sim::Us(10), true);
  m.observer().on_change(1, 0, net::kDataPriority, sim::Us(11), true);
  m.observer().on_change(1, 0, net::kDataPriority, sim::Us(20), false);
  m.observer().on_change(1, 0, net::kDataPriority, sim::Us(21), false);
  m.Finish(sim::Us(30));
  EXPECT_EQ(m.pause_count(), 1u);
  EXPECT_EQ(m.total_pause_time(), sim::Us(10));
}

}  // namespace
}  // namespace hpcc::stats
