// Deterministic per-run manifest: config echo, counter tree, metrics,
// violation summary and trace hash as one machine-readable JSON document.
//
// The default manifest is a pure function of the simulation run — it is
// byte-identical across --jobs and --fastpath on/off (the same contract the
// CSVs honor; tests/telemetry_test.cc pins it). Engine- and wall-clock-
// dependent data (events executed, train aborts, phase timers) only appears
// when TelemetryConfig::profile is set, in a clearly-marked "profile"
// section. Schema documented in docs/OBSERVABILITY.md.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant.h"
#include "scenario/json.h"
#include "stats/timeseries.h"

namespace hpcc::runner {
class Experiment;
struct ExperimentResult;
}
namespace hpcc::scenario {
struct Scenario;
}

namespace hpcc::obs {

struct PhaseTimers;
class TelemetrySession;
struct TelemetryConfig;
struct SeriesConfig;

struct ManifestInputs {
  std::string label;
  std::vector<std::pair<std::string, std::string>> params;  // sweep axes
  const scenario::Scenario* scenario = nullptr;        // config echo
  const TelemetryConfig* telemetry = nullptr;          // effective config
  runner::Experiment* experiment = nullptr;            // required
  const runner::ExperimentResult* result = nullptr;    // required
  const TelemetrySession* session = nullptr;           // hook counters
  bool checked = false;
  const std::vector<check::Violation>* violations = nullptr;
  size_t violation_count = 0;
  const PhaseTimers* phases = nullptr;  // profile section only
  // Warm-start outcome, "built" / "restored" / "cold" (profile section only).
  const char* warm = nullptr;
  // Sweep journal ("sweep" section, emitted when csv_cells is set): grid
  // coordinates, attempt number, final status and the formatted CSV cells
  // of this point. A later --resume invocation validates and replays it
  // instead of re-simulating the point.
  size_t sweep_index = 0;
  size_t sweep_count = 1;
  int attempt = 0;
  std::string status;
  const std::vector<std::pair<std::string, std::string>>* csv_cells = nullptr;
  // FNV-1a digest of the scenario's trace_file bytes (journaled when set):
  // the scenario echo names the file, not its content.
  std::optional<uint64_t> trace_file_digest;
};

// Canonical JSON form of a TelemetryConfig (every key, resolved values) —
// the scenario "telemetry" block and the manifest echo share it.
scenario::Json TelemetryConfigToJson(const TelemetryConfig& t);

// The manifest "series" section (docs/OBSERVABILITY.md): the declared
// series' sample times and values, and per declared window the max, mean
// and p50/p95/p99 of every series plus the Jain index over the flow series.
// A statistic with no samples behind it (an empty window, an all-zero Jain
// index) is null, never 0.
scenario::Json SeriesToJson(const SeriesConfig& config,
                            const std::vector<stats::TimeSeries>& queues,
                            const std::vector<stats::TimeSeries>& flows,
                            const stats::TimeSeries& aggregate);

// Builds the manifest document. Serialize with .Dump(2).
scenario::Json BuildManifest(const ManifestInputs& in);

// Writes `content` to `path` atomically (temp file + rename): a concurrent
// reader — notably the sweep resume journal scan — never observes a
// half-written file, even across a SIGKILL mid-write. Returns false on any
// I/O failure.
bool WriteTextFile(const std::string& path, const std::string& content);

}  // namespace hpcc::obs
