// Shared helpers for the two figure programs that are not scenario
// documents (examples/scenarios/paper/ holds the rest): bench_fig1, whose
// PFC-depth analysis needs Topology::Distance, and bench_appendix_analytic,
// which runs no simulation. A tiny flag parser and a report header. Both
// run a scaled-down instance by default (docs/PAPER_MAPPING.md) and accept:
//   --full            paper-scale topology / duration
//   --duration-ms=N   workload horizon
//   --seed=N
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner/experiment.h"

namespace hpcc::bench {

struct Flags {
  bool full = false;
  double duration_ms = 0;  // 0 = bench default
  uint64_t seed = 1;
};

inline Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      f.full = true;
    } else if (arg.rfind("--duration-ms=", 0) == 0) {
      f.duration_ms = std::atof(arg.c_str() + 14);
    } else if (arg.rfind("--seed=", 0) == 0) {
      f.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--full] [--duration-ms=N] [--seed=N]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return f;
}

inline void PrintHeader(const char* figure, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("==============================================================\n");
}

// Mini fattree bench_fig1 runs unless --full.
inline topo::FatTreeOptions BenchFatTree(bool full) {
  if (full) return topo::FatTreeOptions::PaperScale();
  topo::FatTreeOptions o;
  o.pods = 2;
  o.tors_per_pod = 2;
  o.aggs_per_pod = 2;
  o.cores_per_agg = 2;
  o.hosts_per_tor = 4;  // 16 hosts
  return o;
}

}  // namespace hpcc::bench
