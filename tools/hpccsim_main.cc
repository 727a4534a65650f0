// hpccsim — command-line driver for the simulator.
//
// Runs one experiment from flags and prints the FCT slowdown table, queue
// distribution and PFC summary. Examples:
//
//   hpccsim --scheme=hpcc --topo=fattree --load=0.5 --trace=fbhadoop
//   hpccsim --scheme=dcqcn --topo=testbed --load=0.3 --duration-ms=10
//   hpccsim --scheme=hpcc --topo=star --hosts=17 --incast=16
//           --incast-bytes=500000
//   hpccsim --scheme=timely+win --topo=dumbbell --hosts=8 --load=0.4
//
// Scenario files (sweeps, timed events, telemetry) run through scenario_main.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner/experiment.h"
#include "tools/cli_util.h"

using namespace hpcc;

namespace {

struct Options {
  std::string scheme = "hpcc";
  std::string topo = "fattree";
  std::string trace = "websearch";
  double load = 0.3;
  double duration_ms = 3;
  int hosts = 16;          // star/dumbbell sizing
  int incast_fan_in = 0;   // 0 = no incast add-on
  uint64_t incast_bytes = 500'000;
  uint64_t seed = 1;
  bool lossy = false;
  bool irn = false;
  int fastpath = -1;  // -1 default (on), 0 reference engine, 1 trains
  // 0 = default (1 lane); >= 1 forces N execution lanes (results are
  // shard-invariant).
  int shards = 0;
  bool paper_scale = false;
  double eta = 0.95;
  double wai = -1;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  (scenario files: use scenario_main FILE)\n"
      "  --scheme=NAME      hpcc|hpcc-rxrate|hpcc-perack|hpcc-perrtt|\n"
      "                     hpcc-alpha|dcqcn|dcqcn+win|timely|timely+win|\n"
      "                     dctcp|rcp|rcp+win\n"
      "  --topo=KIND        fattree|testbed|star|dumbbell\n"
      "  --trace=NAME       websearch|fbhadoop\n"
      "  --load=F           Poisson load as a fraction of host capacity\n"
      "  --duration-ms=F    workload horizon\n"
      "  --hosts=N          hosts for star/dumbbell\n"
      "  --incast=N         add N-to-1 incast events\n"
      "  --incast-bytes=N   bytes per incast flow\n"
      "  --eta=F --wai=F    HPCC parameters\n"
      "  --lossy            disable PFC (dynamic-threshold drops)\n"
      "  --fastpath=on|off  force the transmission-train fast path (both\n"
      "                     engines produce identical results; off = A/B\n"
      "                     reference)\n"
      "  --shards=N         run on N execution lanes (conservative PDES);\n"
      "                     any N produces byte-identical results\n"
      "  --irn              IRN loss recovery instead of go-back-N\n"
      "  --paper-scale      320-host FatTree / 32-host testbed\n"
      "  --seed=N\n",
      argv0);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (cli::ConsumeFlag(argv[i], "--scheme", &v)) o.scheme = v;
    else if (cli::ConsumeFlag(argv[i], "--topo", &v)) o.topo = v;
    else if (cli::ConsumeFlag(argv[i], "--trace", &v)) o.trace = v;
    else if (cli::ConsumeFlag(argv[i], "--load", &v)) o.load = std::atof(v);
    else if (cli::ConsumeFlag(argv[i], "--duration-ms", &v)) o.duration_ms = std::atof(v);
    else if (cli::ConsumeFlag(argv[i], "--hosts", &v)) o.hosts = std::atoi(v);
    else if (cli::ConsumeFlag(argv[i], "--incast", &v)) o.incast_fan_in = std::atoi(v);
    else if (cli::ConsumeFlag(argv[i], "--incast-bytes", &v))
      o.incast_bytes = std::strtoull(v, nullptr, 10);
    else if (cli::ConsumeFlag(argv[i], "--eta", &v)) o.eta = std::atof(v);
    else if (cli::ConsumeFlag(argv[i], "--wai", &v)) o.wai = std::atof(v);
    else if (cli::ConsumeFlag(argv[i], "--seed", &v))
      o.seed = std::strtoull(v, nullptr, 10);
    else if (cli::ConsumeFlag(argv[i], "--fastpath", &v)) {
      if (std::strcmp(v, "on") == 0) o.fastpath = 1;
      else if (std::strcmp(v, "off") == 0) o.fastpath = 0;
      else Usage(argv[0]);
    }
    else if (cli::ConsumeFlag(argv[i], "--shards", &v)) {
      o.shards = std::atoi(v);
      if (o.shards < 1) Usage(argv[0]);
    }
    else if (std::strcmp(argv[i], "--lossy") == 0) o.lossy = true;
    else if (std::strcmp(argv[i], "--irn") == 0) o.irn = true;
    else if (std::strcmp(argv[i], "--paper-scale") == 0) o.paper_scale = true;
    else Usage(argv[0]);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = Parse(argc, argv);
  runner::ExperimentConfig cfg;
  if (o.topo == "fattree") {
    cfg.topology = runner::TopologyKind::kFatTree;
    if (o.paper_scale) {
      cfg.fattree = topo::FatTreeOptions::PaperScale();
    } else {
      cfg.fattree.pods = 2;
      cfg.fattree.tors_per_pod = 2;
      cfg.fattree.aggs_per_pod = 2;
      cfg.fattree.hosts_per_tor = 4;
    }
  } else if (o.topo == "testbed") {
    cfg.topology = runner::TopologyKind::kTestbed;
    if (!o.paper_scale) cfg.testbed.servers_per_pair = 8;
  } else if (o.topo == "star") {
    cfg.topology = runner::TopologyKind::kStar;
    cfg.star.num_hosts = o.hosts;
  } else if (o.topo == "dumbbell") {
    cfg.topology = runner::TopologyKind::kDumbbell;
    cfg.dumbbell.hosts_per_side = o.hosts / 2;
  } else {
    Usage(argv[0]);
  }

  cfg.cc.scheme = o.scheme;
  cfg.cc.hpcc.eta = o.eta;
  cfg.cc.hpcc.wai_bytes = o.wai;
  cfg.trace = o.trace;
  cfg.load = o.load;
  cfg.duration = static_cast<sim::TimePs>(o.duration_ms * sim::kPsPerMs);
  cfg.seed = o.seed;
  cfg.pfc_enabled = !o.lossy;
  if (o.fastpath >= 0) cfg.fast_path = o.fastpath != 0;
  if (o.shards >= 1) cfg.shards = o.shards;
  cfg.recovery =
      o.irn ? host::RecoveryMode::kIrn : host::RecoveryMode::kGoBackN;
  if (o.incast_fan_in > 0) {
    cfg.incast = true;
    cfg.incast_opts.fan_in = o.incast_fan_in;
    cfg.incast_opts.flow_bytes = o.incast_bytes;
    cfg.incast_opts.first_event = sim::Us(200);
    cfg.incast_opts.period = cfg.duration / 3;
  }

  std::printf("hpccsim: scheme=%s topo=%s trace=%s load=%.0f%% "
              "duration=%.1fms %s%s\n",
              o.scheme.c_str(), o.topo.c_str(), o.trace.c_str(), o.load * 100,
              o.duration_ms, o.lossy ? "lossy " : "PFC ",
              o.irn ? "IRN" : "GBN");
  try {
    runner::Experiment e(cfg);
    std::printf("hosts=%zu base_rtt=%.2fus\n", e.hosts().size(),
                sim::ToUs(e.base_rtt()));
    runner::ExperimentResult r = e.Run();
    std::printf("\n%s\n\nFCT slowdown per size bin:\n%s", r.Summary().c_str(),
                r.fct->FormatTable().c_str());
    if (r.short_fct_us.Count() > 0) {
      std::printf("\nshort-flow latency p50/p95/p99: %.1f/%.1f/%.1f us\n",
                  r.short_fct_us.Percentile(50), r.short_fct_us.Percentile(95),
                  r.short_fct_us.Percentile(99));
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  return 0;
}
