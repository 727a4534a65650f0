// The benchmark's workloads and the seeded inputs it feeds the simulator.
//
// Every workload's background traffic is generated here, from the seed, as a
// flow trace (Poisson arrivals at the stated load, sizes drawn from
// workload::SizeCdf). The simulator receives it as `workload.trace_file`
// inside a scenario document written next to it; incasts and link flaps stay
// scenario keys and events. The same (workload, seed) always produces
// byte-identical files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/trace_replay.h"

namespace perfbench {

struct Workload {
  std::string name;
  // Fat-tree shape (FatTreeOptions field names); 100/400 Gbps, 1 us links.
  int pods = 0, tors_per_pod = 0, aggs_per_pod = 0, cores_per_agg = 0,
      hosts_per_tor = 0;
  // Generated background: "websearch" | "fbhadoop" sizes, Poisson arrivals
  // at `load` of aggregate host bandwidth on [0, horizon_us], at most
  // max_flows of them.
  std::string cdf;
  double load = 0;
  double horizon_us = 0;
  uint64_t max_flows = 0;
  bool fluid = false;  // background rides the hybrid fluid engine
  // Run shape.
  double duration_ms = 0;
  double drain_factor = 0;  // 0 = the simulator's default
  bool flaps = false;       // the two-tier link-flap script
  bool periodic_incast = false;  // 64 x 30 kB every 200 us from 50 us
  // Warm sweep: a checkpoint at warm_until_us, then a one-shot 30 kB incast
  // at sweep_incast_us whose fan-in is swept over sweep_fan_in.
  double warm_until_us = 0;
  double sweep_incast_us = 0;
  std::vector<int> sweep_fan_in;
};

const std::vector<Workload>& Workloads();
// Null when `name` names no workload.
const Workload* FindWorkload(const std::string& name);

// The seeded background trace (host indices, sorted by arrival).
std::vector<hpcc::workload::TraceRecord> GenerateArrivals(const Workload& w,
                                                          uint64_t seed);
// The scenario document; `trace_file` is written into workload.trace_file
// as given (the simulator resolves it against its working directory).
std::string ScenarioDocument(const Workload& w, uint64_t seed,
                             const std::string& trace_file);

}  // namespace perfbench
