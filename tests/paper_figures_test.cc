// Golden equivalence for the paper-figure scenario documents: every sweep
// point of examples/scenarios/paper/*.json, at the duration listed in
// paper_figures_golden.txt (applied the way `scenario_main --set
// duration_ms=N` applies it), must reproduce the trace hash — and, where
// recorded, the forwarded-packet count — of the hand-built ExperimentConfig
// of the figure driver it replaced, and, where the document declares
// telemetry.series, the digest of its manifest "series" readout. A drifted
// value anywhere in a figure document (a timer, a threshold, a flow row,
// the topology, a sampled link, an interval, a window) changes the flows,
// their dynamics or the readout and fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/hash.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace hpcc::scenario {
namespace {

std::string PaperDir() {
  return std::string(HPCC_SOURCE_DIR) + "/examples/scenarios/paper";
}

struct GoldenPoint {
  std::string duration_ms;
  std::string hash;
  std::string packets;  // "-" = not recorded
  std::string series;   // "-" = no declared series
  std::string label;
};

// file -> points in expansion order.
std::map<std::string, std::vector<GoldenPoint>> LoadGolden() {
  std::ifstream in(std::string(HPCC_SOURCE_DIR) +
                   "/tests/paper_figures_golden.txt");
  std::map<std::string, std::vector<GoldenPoint>> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string file;
    size_t index = 0;
    GoldenPoint p;
    fields >> file >> p.duration_ms >> index >> p.hash >> p.packets >>
        p.series >> p.label;
    EXPECT_EQ(index, golden[file].size()) << line;
    golden[file].push_back(p);
  }
  return golden;
}

std::string HashHex(uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

TEST(PaperFigures, EveryDocumentHasAGolden) {
  const auto golden = LoadGolden();
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(PaperDir())) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_EQ(files.size(), golden.size());
  for (const std::string& f : files) EXPECT_EQ(golden.count(f), 1u) << f;
}

TEST(PaperFigures, PointsMatchTheFormerDrivers) {
  const auto golden = LoadGolden();
  ASSERT_FALSE(golden.empty());
  std::vector<ScenarioRun> runs;
  std::vector<const GoldenPoint*> expected;
  for (const auto& [file, points] : golden) {
    SCOPED_TRACE(file);
    const Scenario sc = LoadScenarioFile(
        PaperDir() + "/" + file, {"duration_ms=" + points.front().duration_ms});
    // The figure documents ask for the manifest readout by themselves.
    EXPECT_TRUE(sc.telemetry.manifest);
    std::vector<ScenarioRun> expanded = ExpandSweep(sc);
    ASSERT_EQ(expanded.size(), points.size());
    for (size_t i = 0; i < expanded.size(); ++i) {
      EXPECT_EQ(expanded[i].label, points[i].label);
      // Series points write the manifest their digest reads. The hash does
      // not depend on telemetry, so the rest skip its hook fan-out.
      EXPECT_EQ(points[i].series == "-",
                expanded[i].scenario.telemetry.series.empty());
      if (points[i].series == "-") {
        expanded[i].scenario.telemetry = obs::TelemetryConfig{};
      }
      runs.push_back(std::move(expanded[i]));
      expected.push_back(&points[i]);
    }
  }
  ScenarioRunnerOptions opts;
  opts.jobs = 4;
  opts.out_base = ::testing::TempDir() + "paper_figures";
  const std::vector<SweepRunResult> results = ScenarioRunner(opts).RunAll(runs);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(results[i].label);
    EXPECT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_EQ(HashHex(results[i].result.trace_hash), expected[i]->hash);
    if (expected[i]->packets != "-") {
      EXPECT_EQ(std::to_string(results[i].result.packets_forwarded),
                expected[i]->packets);
    }
    if (expected[i]->series != "-") {
      ASSERT_FALSE(results[i].manifest_path.empty());
      std::ifstream in(results[i].manifest_path);
      std::stringstream text;
      text << in.rdbuf();
      const Json manifest = Json::Parse(text.str());
      EXPECT_EQ(HashHex(core::Fnv1a64(manifest.Get("series").Dump())),
                expected[i]->series);
      std::remove(results[i].manifest_path.c_str());
    }
  }
}

TEST(PaperFigures, Fig2bIncastPeriodIsOneThirdOfTheDuration) {
  // The driver derived the period as duration / 3 in integer picoseconds;
  // the document's microsecond value must parse back to exactly that.
  const Scenario sc = LoadScenarioFile(PaperDir() + "/fig2b.json");
  EXPECT_EQ(sc.config.incast_opts.period, sc.config.duration / 3);
  EXPECT_EQ(sc.config.incast_opts.period, 3'333'333'333);
}

TEST(PaperFigures, DocumentsRoundTrip) {
  for (const auto& entry : std::filesystem::directory_iterator(PaperDir())) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().string());
    const Scenario sc = LoadScenarioFile(entry.path().string());
    const Json canonical = ScenarioToJson(sc);
    EXPECT_EQ(ScenarioToJson(ParseScenario(canonical)).Dump(),
              canonical.Dump());
  }
}

}  // namespace
}  // namespace hpcc::scenario
