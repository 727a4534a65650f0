// The benchmark's two ways of running one scenario document.
//
// Timed: exactly the user's path (load, expand, ScenarioRunner::RunAll with
// one job, WriteCsv) with nothing attached, timed from document in to CSV
// out. Setup and run seconds come from the program's own per-point phase
// timers.
//
// Traced: the same work, but the benchmark drives the layers itself so it can
// record a span around each call (parse, Experiment construction, workload
// start, RunUntil, FinishRun, scheduled SetLinkUp calls, AddWorkloadFlow,
// per-point RunOne, WriteCsv) and read each layer's public counters. Its
// per-layer figures are the traced run's; its identity outputs must equal
// the timed run's.
#pragma once

#include <string>

#include "scenario/json.h"

namespace perfbench {

struct TimedOptions {
  bool check = false;  // standard invariant monitors on every point
  int shards = 0;      // 0 = as the document says
};

// Both return one JSON object with wall_s, setup_s, run_s, peak_rss_mb,
// points, errors (one string per failed point or check) and identity. Timed
// adds parse_s, warm_built and warm_restored; traced adds layers, the
// per-layer metrics except the two run.py derives (workload.gen_s,
// obs.trace_overhead).
hpcc::scenario::Json RunTimed(const std::string& scenario_path,
                              const std::string& csv_path,
                              const TimedOptions& options);
// `shards` as in TimedOptions.
hpcc::scenario::Json RunTraced(const std::string& scenario_path,
                               const std::string& csv_path,
                               const std::string& spans_path, int shards);

// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

}  // namespace perfbench
