// Shard-equivalence suite: a run on N lanes (conservative PDES over per-pod /
// per-block lanes, see topo/partition.h and runner::Experiment::RunLanes)
// must be observably indistinguishable from the one-lane run — equal
// golden-trace hashes, byte-identical scenario CSVs and byte-identical run
// manifests — at every shard count. Covers the committed example scenarios
// and the whole fuzz corpus at shards {1, 2, 4}, all under the full
// invariant-monitor set (each lane's registry must also stay clean). Every
// shard count must also reproduce the combined trace hashes in
// shard_equivalence_golden.txt, recorded from the former single-simulator
// engine, so the one-lane run cannot drift from that reference unnoticed.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runner/experiment.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace hpcc {
namespace {

constexpr int kShardCounts[] = {1, 2, 4};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// One full checked sweep of `runs` at `shards` lanes, with per-run manifests
// written under `tag`. Returns the results; registers failures for run
// errors and invariant violations.
std::vector<scenario::SweepRunResult> RunChecked(
    const std::vector<scenario::ScenarioRun>& runs, int shards,
    std::vector<std::string>* manifest_paths) {
  std::vector<scenario::SweepRunResult> results;
  results.reserve(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    scenario::RunOneOptions opts;
    opts.check = true;
    opts.shards_override = shards;
    obs::TelemetryConfig tcfg = runs[i].scenario.telemetry;
    tcfg.manifest = true;
    opts.telemetry = tcfg;
    opts.manifest_path = "shard_eq_s" + std::to_string(shards) + "_run" +
                         std::to_string(i) + ".manifest.json";
    manifest_paths->push_back(opts.manifest_path);
    results.push_back(scenario::ScenarioRunner::RunOne(runs[i], opts));
    const scenario::SweepRunResult& r = results.back();
    EXPECT_TRUE(r.error.empty()) << r.label << ": " << r.error;
    EXPECT_EQ(r.violation_count, 0u) << r.label;
    EXPECT_EQ(r.manifest_path, opts.manifest_path) << r.label;
  }
  return results;
}

// Golden combined trace hash of `rel_path` (relative to the source dir).
uint64_t GoldenHash(const std::string& rel_path) {
  static const std::map<std::string, uint64_t> golden = [] {
    std::map<std::string, uint64_t> m;
    std::ifstream in(std::string(HPCC_SOURCE_DIR) +
                     "/tests/shard_equivalence_golden.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string path;
      std::string hex;
      fields >> path >> hex;
      m[path] = std::stoull(hex, nullptr, 16);
    }
    return m;
  }();
  const auto it = golden.find(rel_path);
  EXPECT_NE(it, golden.end()) << "no golden hash for " << rel_path;
  return it == golden.end() ? 0 : it->second;
}

// Runs every sweep point of `rel_path` at shards {1, 2, 4} and expects the
// deterministic outputs — trace hashes, the aggregate CSV and every per-run
// manifest — byte-equal to the shards=1 run, and the combined trace hash
// equal to the golden one.
void ExpectShardEquivalence(const std::string& rel_path) {
  SCOPED_TRACE(rel_path);
  const uint64_t golden = GoldenHash(rel_path);
  const scenario::Scenario sc =
      scenario::LoadScenarioFile(std::string(HPCC_SOURCE_DIR) + "/" + rel_path);
  const std::vector<scenario::ScenarioRun> runs = scenario::ExpandSweep(sc);
  ASSERT_FALSE(runs.empty());

  std::vector<std::string> cleanup;
  std::string base_csv_bytes;
  std::vector<std::string> base_manifest_bytes;
  uint64_t base_hash = 0;
  for (int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::vector<std::string> manifests;
    const auto results = RunChecked(runs, shards, &manifests);
    cleanup.insert(cleanup.end(), manifests.begin(), manifests.end());

    const uint64_t hash = scenario::ScenarioRunner::CombinedTraceHash(results);
    EXPECT_EQ(hash, golden);
    const std::string csv = "shard_eq_s" + std::to_string(shards) + ".csv";
    cleanup.push_back(csv);
    ASSERT_TRUE(scenario::ScenarioRunner::WriteCsv(csv, results));
    const std::string csv_bytes = ReadFile(csv);
    ASSERT_FALSE(csv_bytes.empty());

    if (shards == kShardCounts[0]) {
      base_hash = hash;
      base_csv_bytes = csv_bytes;
      for (const std::string& m : manifests) {
        base_manifest_bytes.push_back(ReadFile(m));
        EXPECT_FALSE(base_manifest_bytes.back().empty()) << m;
      }
    } else {
      EXPECT_EQ(hash, base_hash);
      EXPECT_EQ(csv_bytes, base_csv_bytes);
      ASSERT_EQ(manifests.size(), base_manifest_bytes.size());
      for (size_t i = 0; i < manifests.size(); ++i) {
        EXPECT_EQ(ReadFile(manifests[i]), base_manifest_bytes[i])
            << manifests[i];
      }
    }
  }
  for (const std::string& f : cleanup) std::remove(f.c_str());
}

TEST(ShardEquivalence, Fig11LoadSweep) {
  ExpectShardEquivalence("examples/scenarios/fig11_load_sweep.json");
}

TEST(ShardEquivalence, Fig13LinkFailure) {
  // Link flaps across the cut: the barrier coordinator applies the script
  // and recomputes the lookahead while every lane is blocked.
  ExpectShardEquivalence("examples/scenarios/fig13_link_failure.json");
}

TEST(ShardEquivalence, Fattree32Websearch) {
  ExpectShardEquivalence("examples/scenarios/fattree32_websearch.json");
}

TEST(ShardEquivalence, Fattree16HadoopBurst) {
  // The large-fabric 512-way incast: heavy cross-pod traffic, so nearly
  // every flow crosses a lane boundary at least twice.
  ExpectShardEquivalence("examples/scenarios/fattree16_hadoop_burst.json");
}

TEST(ShardEquivalence, Corpus) {
  // Every committed fuzz reproducer (dumbbell topologies exercise the
  // contiguous-block partition fallback; storm_fattree_flaps exercises
  // repeated lookahead recomputation).
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(HPCC_SOURCE_DIR) + "/tests/corpus")) {
    if (entry.path().extension() == ".json") {
      files.push_back("tests/corpus/" + entry.path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const std::string& f : files) ExpectShardEquivalence(f);
}

// The scenario "shards" key must itself be honored (not just the override):
// a document asking for shards=4 produces the exact outputs of the same
// document without the key.
TEST(ShardEquivalence, ScenarioShardsKey) {
  const char* doc = R"({
    "name": "shards_key",
    "topology": {"kind": "fattree", "pods": 2, "tors_per_pod": 2,
                  "aggs_per_pod": 2, "hosts_per_tor": 4},
    "cc": {"scheme": "hpcc"},
    "workload": {"load": 0.4, "trace": "websearch", "max_flows": 60},
    "duration_ms": 0.3,
    "seed": 11,
    "shards": 4
  })";
  const std::string path = "shard_eq_key_tmp.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << doc;
  }
  scenario::Scenario sc = scenario::LoadScenarioFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(sc.config.shards, 4);
  const auto with = scenario::ScenarioRunner::RunOne(
      scenario::ExpandSweep(sc).front(), /*check=*/true);
  ASSERT_TRUE(with.error.empty()) << with.error;
  EXPECT_EQ(with.violation_count, 0u);

  sc.config.shards = 1;
  const auto without = scenario::ScenarioRunner::RunOne(
      scenario::ExpandSweep(sc).front(), /*check=*/true);
  ASSERT_TRUE(without.error.empty()) << without.error;
  EXPECT_EQ(with.result.trace_hash, without.result.trace_hash);
  EXPECT_EQ(with.result.flows_completed, without.result.flows_completed);
  EXPECT_EQ(with.result.sim_time, without.result.sim_time);
}

// Stepped execution (StartWorkload, RunUntil across a scripted link_down /
// link_up pair, FinishRun) equals a plain Run() at every shard count, and
// RunUntil applies each link event at its mark but never steps past an
// unapplied one.
TEST(ShardEquivalence, SteppedRunEqualsRun) {
  runner::ExperimentConfig cfg;
  cfg.fattree.pods = 4;
  cfg.fattree.hosts_per_tor = 4;
  cfg.cc.scheme = "hpcc";
  cfg.load = 0.5;
  cfg.max_flows = 120;
  cfg.duration = sim::Us(400);
  cfg.seed = 5;
  const sim::TimePs down_at = sim::Us(100);
  const sim::TimePs up_at = sim::Us(250);

  // An agg<->core link (cores take the lowest node ids): cut at shards > 1.
  const uint32_t num_cores = static_cast<uint32_t>(
      cfg.fattree.aggs_per_pod * cfg.fattree.cores_per_agg);
  size_t link = 0;
  {
    runner::Experiment probe(cfg);
    const auto& links = probe.topology().links();
    while (link < links.size() && links[link].a >= num_cores &&
           links[link].b >= num_cores) {
      ++link;
    }
    ASSERT_LT(link, links.size());
  }

  for (int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    cfg.shards = shards;

    runner::Experiment plain(cfg);
    plain.InstallLinkEvent(down_at, link, /*up=*/false);
    plain.InstallLinkEvent(up_at, link, /*up=*/true);
    const runner::ExperimentResult want = plain.Run();
    ASSERT_GT(want.flows_completed, 0u);

    runner::Experiment e(cfg);
    // Probes on lane 0 at the down mark's timestamp, scheduled before and
    // after the event's install: they must see the link up and down.
    bool before_mark = false;
    bool after_mark = true;
    e.simulator().ScheduleAt(down_at, [&] {
      before_mark = e.topology().links()[link].up;
    });
    e.InstallLinkEvent(down_at, link, /*up=*/false);
    e.InstallLinkEvent(up_at, link, /*up=*/true);
    e.simulator().ScheduleAt(down_at, [&] {
      after_mark = e.topology().links()[link].up;
    });
    e.StartWorkload();
    e.RunUntil(down_at - 1);
    EXPECT_TRUE(e.topology().links()[link].up);
    e.RunUntil(down_at);
    EXPECT_FALSE(e.topology().links()[link].up);
    EXPECT_TRUE(before_mark);
    EXPECT_FALSE(after_mark);
    e.RunUntil((down_at + up_at) / 2);
    EXPECT_FALSE(e.topology().links()[link].up);
    for (int lane = 0; lane < e.shards(); ++lane) {
      EXPECT_EQ(e.lane_simulator(lane).now(), (down_at + up_at) / 2);
    }
    const runner::ExperimentResult got = e.FinishRun();

    EXPECT_EQ(got.trace_hash, want.trace_hash);
    EXPECT_EQ(got.packets_forwarded, want.packets_forwarded);
    EXPECT_EQ(got.sim_time, want.sim_time);
    EXPECT_EQ(got.flows_completed, want.flows_completed);
    EXPECT_TRUE(e.topology().links()[link].up);
    EXPECT_EQ(e.topology().links()[link].up,
              plain.topology().links()[link].up);
  }
}

// A watchdog stop before a scripted link event leaves the event unapplied:
// the lanes never reached its mark.
TEST(ShardEquivalence, BudgetStopLeavesUnreachedLinkEventUnapplied) {
  runner::ExperimentConfig cfg;
  cfg.fattree.pods = 4;
  cfg.fattree.hosts_per_tor = 4;
  cfg.cc.scheme = "hpcc";
  cfg.load = 0.5;
  cfg.max_flows = 120;
  cfg.duration = sim::Us(400);
  const sim::TimePs down_at = sim::Us(300);
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    cfg.shards = shards;
    runner::Experiment e(cfg);
    e.set_event_budget(2000);
    e.InstallLinkEvent(down_at, 0, /*up=*/false);
    e.Run();
    ASSERT_TRUE(e.budget_exhausted());
    ASSERT_LT(e.simulator().now(), down_at);
    EXPECT_TRUE(e.topology().links()[0].up);
  }
}

}  // namespace
}  // namespace hpcc
