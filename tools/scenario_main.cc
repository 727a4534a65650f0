// scenario_main — declarative scenario driver.
//
// Loads a JSON scenario file (topology + CC scheme + workload + timed event
// script + sweep grid), expands the sweep, executes the points on a thread
// pool and writes one aggregated CSV. Examples:
//
//   scenario_main examples/scenarios/fig13_link_failure.json
//   scenario_main examples/scenarios/fig11_load_sweep.json --jobs=4
//   scenario_main sweep.json --expand            # list points, don't run
//   scenario_main sweep.json --out=results.csv --quiet
//   scenario_main examples/scenarios/paper/fig10.json --set duration_ms=20
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "scenario/runner.h"
#include "tools/cli_util.h"

using namespace hpcc;

namespace {

struct Options {
  std::string file;
  std::vector<std::string> sets;  // --set path=value, in order
  std::string out;  // empty = "<scenario name>.csv"
  std::string trace_out;  // non-empty forces trace export to this path
  int jobs = 0;     // 0 = hardware concurrency
  int fastpath = -1;  // -1 scenario default, 0 reference engine, 1 trains
  int shards = 0;     // 0 scenario default, >= 1 forces that lane count
  bool warm = true;   // --warm=off forces every sweep point to run cold
  bool expand_only = false;
  bool quiet = false;
  bool dump = false;
  bool check = false;
  bool manifest = false;
  bool progress = false;
  double deadline = 0;  // per-point wall deadline in seconds (0 = scenario)
  bool resume = false;  // skip points with a validated "ok" manifest journal
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s FILE [options]\n"
               "  --jobs=N     parallel sweep workers (default: hardware)\n"
               "  --out=PATH   aggregated CSV path (default: <name>.csv)\n"
               "  --set PATH=VALUE\n"
               "               patch the scenario document before validation\n"
               "               and sweep expansion (repeatable; VALUE is\n"
               "               JSON, else a string: --set cc.scheme=dcqcn,\n"
               "               --set duration_ms=20)\n"
               "  --expand     print the expanded sweep points and exit\n"
               "  --dump       print the canonicalized scenario JSON and exit\n"
               "  --check      run every point under the invariant monitors\n"
               "               (violations fail the run)\n"
               "  --fastpath=on|off\n"
               "               force the transmission-train fast path on or\n"
               "               off (default: as the scenario says; both\n"
               "               engines produce identical results)\n"
               "  --shards=N   force N execution lanes per point (default:\n"
               "               as the scenario says; any N produces\n"
               "               byte-identical results)\n"
               "  --warm=on|off\n"
               "               share fabric snapshots and warm_start\n"
               "               checkpoints across sweep points (default: on;\n"
               "               off forces cold runs — results are\n"
               "               byte-identical either way)\n"
               "  --trace-out=FILE\n"
               "               write a Chrome/Perfetto trace (sweeps write\n"
               "               one file per point: <stem>.runN.json)\n"
               "  --manifest   write a run manifest JSON next to the CSV\n"
               "  --deadline=SECONDS\n"
               "               per-point wall-clock deadline; a point that\n"
               "               exceeds it fails with \"deadline exceeded\"\n"
               "               instead of wedging the sweep (default: the\n"
               "               scenario's deadline_s, if any)\n"
               "  --resume     skip sweep points whose manifest journal from\n"
               "               a previous (partial) invocation validates as\n"
               "               complete; implies --manifest\n"
               "  --progress   live sweep progress line on stderr\n"
               "  --quiet      suppress per-run progress\n",
               argv0);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (cli::ConsumeFlag(argv[i], "--jobs", &v)) o.jobs = std::atoi(v);
    else if (std::strcmp(argv[i], "--set") == 0) {
      // PATH=VALUE with a non-empty PATH (scenario::ApplySet's contract).
      const char* eq = i + 1 < argc ? std::strchr(argv[i + 1], '=') : nullptr;
      if (eq == nullptr || eq == argv[i + 1]) Usage(argv[0]);
      o.sets.emplace_back(argv[++i]);
    }
    else if (cli::ConsumeFlag(argv[i], "--out", &v)) o.out = v;
    else if (cli::ConsumeFlag(argv[i], "--fastpath", &v)) {
      if (std::strcmp(v, "on") == 0) o.fastpath = 1;
      else if (std::strcmp(v, "off") == 0) o.fastpath = 0;
      else Usage(argv[0]);
    }
    else if (cli::ConsumeFlag(argv[i], "--shards", &v)) {
      o.shards = std::atoi(v);
      if (o.shards < 1) Usage(argv[0]);
    }
    else if (cli::ConsumeFlag(argv[i], "--warm", &v)) {
      if (std::strcmp(v, "on") == 0) o.warm = true;
      else if (std::strcmp(v, "off") == 0) o.warm = false;
      else Usage(argv[0]);
    }
    else if (cli::ConsumeFlag(argv[i], "--trace-out", &v)) o.trace_out = v;
    else if (std::strcmp(argv[i], "--expand") == 0) o.expand_only = true;
    else if (std::strcmp(argv[i], "--dump") == 0) o.dump = true;
    else if (std::strcmp(argv[i], "--check") == 0) o.check = true;
    else if (std::strcmp(argv[i], "--manifest") == 0) o.manifest = true;
    else if (cli::ConsumeFlag(argv[i], "--deadline", &v)) {
      o.deadline = std::atof(v);
      if (!(o.deadline > 0)) Usage(argv[0]);
    }
    else if (std::strcmp(argv[i], "--resume") == 0) o.resume = true;
    else if (std::strcmp(argv[i], "--progress") == 0) o.progress = true;
    else if (std::strcmp(argv[i], "--quiet") == 0) o.quiet = true;
    else if (argv[i][0] == '-') Usage(argv[0]);
    else if (o.file.empty()) o.file = argv[i];
    else Usage(argv[0]);
  }
  if (o.file.empty()) Usage(argv[0]);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = Parse(argc, argv);
  scenario::Scenario sc;
  try {
    sc = scenario::LoadScenarioFile(o.file, o.sets);
    if (o.dump) {
      std::printf("%s\n", scenario::ScenarioToJson(sc).Dump(2).c_str());
      return 0;
    }
    if (o.expand_only) {
      const auto runs = scenario::ExpandSweep(sc);
      for (const auto& run : runs) std::printf("%s\n", run.label.c_str());
      std::printf("%zu run(s)\n", runs.size());
      return 0;
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }

  scenario::ScenarioRunnerOptions ro;
  ro.jobs = o.jobs;
  ro.verbose = !o.quiet;
  ro.check = o.check;
  ro.fastpath_override = o.fastpath;
  ro.shards_override = o.shards;
  ro.trace_out = o.trace_out;
  ro.manifest = o.manifest;
  ro.progress = o.progress;
  ro.warm = o.warm;
  ro.deadline_s = o.deadline;
  ro.resume = o.resume;
  return scenario::RunScenario(sc, ro, o.out);
}
