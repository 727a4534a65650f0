// perfbench_bin: the compiled half of the repo benchmark. run.py drives it;
// every subcommand prints one JSON object as its last stdout line.
//
//   perfbench_bin gen WORKLOAD SEED DIR
//       Writes DIR/WORKLOAD.trace.csv and DIR/WORKLOAD.json (which names the
//       trace by its bare file name, so run the other modes from DIR).
//   perfbench_bin timed SCENARIO CSV [--check] [--shards=N]
//   perfbench_bin traced SCENARIO CSV SPANS [--shards=N]
#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "inputs.h"
#include "measure.h"

namespace {

using hpcc::scenario::Json;

int Usage() {
  std::cerr << "usage: perfbench_bin gen WORKLOAD SEED DIR\n"
               "       perfbench_bin timed SCENARIO CSV [--check] "
               "[--shards=N]\n"
               "       perfbench_bin traced SCENARIO CSV SPANS "
               "[--shards=N]\n";
  return 2;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

int Gen(const std::string& name, const std::string& seed_arg,
        const std::string& dir) {
  const perfbench::Workload* w = perfbench::FindWorkload(name);
  if (w == nullptr) {
    std::cerr << "unknown workload " << name << "\n";
    return 2;
  }
  const uint64_t seed = std::stoull(seed_arg);
  const auto t0 = std::chrono::steady_clock::now();
  const auto records = perfbench::GenerateArrivals(*w, seed);
  const std::string trace = hpcc::workload::FormatFlowTrace(records);
  const std::string trace_name = name + ".trace.csv";
  const std::string doc = perfbench::ScenarioDocument(*w, seed, trace_name);
  const double gen_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  if (!WriteFile(dir + "/" + trace_name, trace) ||
      !WriteFile(dir + "/" + name + ".json", doc)) {
    std::cerr << "cannot write inputs under " << dir << "\n";
    return 1;
  }
  Json out = Json::MakeObject();
  out.Set("gen_s", Json::MakeNumber(gen_s));
  out.Set("records", Json::MakeNumber(static_cast<double>(records.size())));
  out.Set("points", Json::MakeNumber(w->sweep_fan_in.empty()
                                         ? 1.0
                                         : static_cast<double>(
                                               w->sweep_fan_in.size())));
  std::cout << out.Dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  try {
    if (mode == "gen" && argc == 5) return Gen(argv[2], argv[3], argv[4]);
    const int fixed = mode == "traced" ? 5 : 4;  // args before the flags
    perfbench::TimedOptions opts;
    for (int i = fixed; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--check" && mode == "timed") {
        opts.check = true;
      } else if (a.rfind("--shards=", 0) == 0) {
        opts.shards = std::stoi(a.substr(9));
      } else {
        return Usage();
      }
    }
    if (mode == "timed" && argc >= fixed) {
      std::cout << perfbench::RunTimed(argv[2], argv[3], opts).Dump() << "\n";
      return 0;
    }
    if (mode == "traced" && argc >= fixed) {
      std::cout << perfbench::RunTraced(argv[2], argv[3], argv[4], opts.shards)
                       .Dump()
                << "\n";
      return 0;
    }
  } catch (const std::exception& ex) {
    std::cerr << "perfbench_bin " << mode << ": " << ex.what() << "\n";
    return 1;
  }
  return Usage();
}
