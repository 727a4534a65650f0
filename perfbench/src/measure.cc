#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "check/invariant.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "spans.h"

namespace perfbench {

namespace {

using hpcc::scenario::Json;
using hpcc::scenario::ScenarioRun;
using hpcc::scenario::ScenarioRunner;
using hpcc::scenario::SweepRunResult;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Json Num(double v) { return Json::MakeNumber(v); }

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// The outputs a speed-only change must leave untouched.
Json Identity(const std::vector<SweepRunResult>& results) {
  double pkts = 0, created = 0, completed = 0, failed = 0, sim_ms = 0;
  for (const SweepRunResult& r : results) {
    pkts += static_cast<double>(r.result.packets_forwarded);
    created += static_cast<double>(r.result.flows_created);
    completed += static_cast<double>(r.result.flows_completed);
    failed += static_cast<double>(r.result.flows_failed);
    sim_ms += hpcc::sim::ToMs(r.result.sim_time);
  }
  Json id = Json::MakeObject();
  id.Set("trace_hash",
         Json::MakeString(Hex(ScenarioRunner::CombinedTraceHash(results))));
  id.Set("packets_forwarded", Num(pkts));
  id.Set("flows_created", Num(created));
  id.Set("flows_completed", Num(completed));
  id.Set("flows_failed", Num(failed));
  id.Set("sim_time_ms", Num(sim_ms));
  return id;
}

// Failed points: an error, a deadline, or monitor violations.
Json Errors(const std::vector<SweepRunResult>& results) {
  Json errors = Json::MakeArray();
  for (const SweepRunResult& r : results) {
    if (r.ok()) continue;
    errors.Append(Json::MakeString(
        r.label + ": " + ScenarioRunner::StatusOf(r) + " " + r.error + " (" +
        std::to_string(r.violation_count) + " violations)"));
  }
  return errors;
}

// Counts CC updates and INT echoes through the standard hook fan-out.
class WorkCounter final : public hpcc::check::InvariantMonitor {
 public:
  std::string name() const override { return "perfbench_work_counter"; }
  unsigned interests() const override { return kCcUpdate | kIntEcho; }
  void OnCcUpdate(uint64_t, int64_t, int64_t, hpcc::sim::TimePs) override {
    ++cc_updates;
  }
  void OnIntEcho(uint64_t, const hpcc::core::IntStack&,
                 hpcc::sim::TimePs) override {
    ++int_echoes;
  }
  uint64_t cc_updates = 0;
  uint64_t int_echoes = 0;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

bool IsLinkEvent(const hpcc::scenario::ScenarioEvent& ev) {
  using Kind = hpcc::scenario::ScenarioEvent::Kind;
  return ev.kind == Kind::kLinkDown || ev.kind == Kind::kLinkUp;
}

// Every per-layer metric, zero where the workload has no such work.
struct Layers {
  double parse_s = 0, csv_s = 0;
  double builder_point_s = 0, member_point_s = 0, points_restored = 0,
         point_other_s = 0;
  double build_s = 0, routes_s = 0, route_mb = 0, repair_s = 0, repairs = 0;
  double lane_events_max = 0, lane_imbalance = 0;
  double events = 0, run_self_s = 0;
  double pkts = 0, train_aborts = 0, max_queue_kb = 0, pfc_pauses = 0,
         drops = 0;
  double flows_completed = 0, flows_failed = 0, retx_timeouts = 0;
  double cc_updates = 0, int_echoes = 0;
  double fluid_flows = 0, admit_s = 0, admit_us_p50 = 0, admit_us_p99 = 0,
         fluid_ticks = 0, flow_ticks = 0, coupled_links = 0;
  double span_coverage = 0;

  void AddResult(const hpcc::runner::ExperimentResult& r) {
    events += static_cast<double>(r.events_executed);
    pkts += static_cast<double>(r.packets_forwarded);
    train_aborts += static_cast<double>(r.train_aborts);
    max_queue_kb =
        std::max(max_queue_kb, static_cast<double>(r.max_queue_bytes) / 1e3);
    pfc_pauses += static_cast<double>(r.pause_events);
    drops += static_cast<double>(r.dropped_packets);
    flows_completed +=
        static_cast<double>(r.flows_completed - r.fluid_flows_completed);
    flows_failed += static_cast<double>(r.flows_failed);
    retx_timeouts += static_cast<double>(r.retx_timeouts);
    fluid_flows += static_cast<double>(r.fluid_flows_created);
    fluid_ticks += static_cast<double>(r.fluid_ticks);
    coupled_links += static_cast<double>(r.fluid_coupled_links);
  }

  Json ToJson() const {
    const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    Json j = Json::MakeObject();
    j.Set("scenario.parse_s", Num(parse_s));
    j.Set("scenario.csv_s", Num(csv_s));
    j.Set("scenario.builder_point_s", Num(builder_point_s));
    j.Set("scenario.member_point_s", Num(member_point_s));
    j.Set("scenario.points_restored", Num(points_restored));
    j.Set("scenario.point_other_s", Num(point_other_s));
    j.Set("topo.build_s", Num(build_s));
    j.Set("topo.routes_s", Num(routes_s));
    j.Set("topo.route_mb", Num(route_mb));
    j.Set("topo.repair_s", Num(repair_s));
    j.Set("topo.repairs", Num(repairs));
    j.Set("runner.lane_events_max", Num(lane_events_max));
    j.Set("runner.lane_imbalance", Num(lane_imbalance));
    j.Set("sim.events", Num(events));
    j.Set("sim.events_per_pkt", Num(per(events, pkts)));
    j.Set("sim.ns_per_event", Num(per(run_self_s * 1e9, events)));
    j.Set("sim.run_self_s", Num(run_self_s));
    j.Set("net.pkts_forwarded", Num(pkts));
    j.Set("net.ns_per_pkt", Num(per(run_self_s * 1e9, pkts)));
    j.Set("net.train_abort_ratio", Num(per(train_aborts, pkts)));
    j.Set("net.max_queue_kb", Num(max_queue_kb));
    j.Set("net.pfc_pauses", Num(pfc_pauses));
    j.Set("net.drops", Num(drops));
    j.Set("host.flows_completed", Num(flows_completed));
    j.Set("host.flows_failed", Num(flows_failed));
    j.Set("host.retx_timeouts", Num(retx_timeouts));
    j.Set("cc.updates", Num(cc_updates));
    j.Set("cc.updates_per_pkt", Num(per(cc_updates, pkts)));
    j.Set("core.int_echoes", Num(int_echoes));
    j.Set("fluid.flows", Num(fluid_flows));
    j.Set("fluid.admit_s", Num(admit_s));
    j.Set("fluid.admit_us_p50", Num(admit_us_p50));
    j.Set("fluid.admit_us_p99", Num(admit_us_p99));
    j.Set("fluid.ticks", Num(fluid_ticks));
    j.Set("fluid.flow_ticks", Num(flow_ticks));
    j.Set("fluid.coupled_links", Num(coupled_links));
    j.Set("obs.span_coverage", Num(span_coverage));
    return j;
  }
};

// One sweep: RunOne per point with shared fabric/warm caches, as RunAll
// does with one job, plus a span per point.
void TraceSweep(SpanLog& log, const std::vector<ScenarioRun>& runs,
                std::vector<SweepRunResult>* results, Layers* layers,
                double* setup_s, double* run_s) {
  hpcc::scenario::RunOneOptions opts;
  opts.fabric_cache = std::make_shared<hpcc::scenario::FabricCache>();
  opts.warm_cache = std::make_shared<hpcc::scenario::WarmCache>();
  opts.sweep_count = runs.size();
  std::vector<double> member_s;
  for (size_t i = 0; i < runs.size(); ++i) {
    opts.sweep_index = i;
    const int span = log.Begin("scenario.run_one");
    results->push_back(ScenarioRunner::RunOne(runs[i], opts));
    log.End(span);
    const SweepRunResult& r = results->back();
    const double point_s = log.spans()[static_cast<size_t>(span)].duration();
    if (r.warm_built) layers->builder_point_s += point_s;
    if (r.warm_restored) {
      member_s.push_back(point_s);
      layers->points_restored += 1;
    }
    *setup_s += r.phases.build_s;
    *run_s += r.phases.run_s;
    layers->build_s += r.phases.build_s;  // routes are taken out later
    // Inside RunOne but outside its phase timers: event install, snapshot
    // export and experiment teardown.
    layers->point_other_s += point_s - r.phases.build_s - r.phases.run_s;
    layers->AddResult(r.result);
    layers->lane_events_max = std::max(
        layers->lane_events_max, static_cast<double>(r.result.events_executed));
  }
  layers->member_point_s = Quantile(member_s, 0.5);
  layers->lane_imbalance = 1;
  layers->run_self_s = *run_s;
}

// One point driven layer by layer, with a span around each call.
void TracePoint(SpanLog& log, const ScenarioRun& run, int shards,
                std::vector<SweepRunResult>* results, Layers* layers,
                Json* errors) {
  namespace sc = hpcc::scenario;
  hpcc::runner::ExperimentConfig cfg = sc::MakeExperimentConfig(run.scenario);
  if (shards >= 1) cfg.shards = shards;
  // Single-lane documents replay their trace through the benchmark's own
  // source so each admission can be timed; the source is started at the
  // point the experiment would start its own, which keeps every schedule
  // sequence (and so every output) identical.
  const bool own_replay = cfg.shards == 1 && !cfg.trace_file.empty();
  std::shared_ptr<const std::vector<hpcc::workload::TraceRecord>> records;
  std::deque<hpcc::check::MonitorRegistry> registries;  // outlive e
  std::vector<WorkCounter*> counters;
  std::unique_ptr<hpcc::runner::Experiment> e;
  std::unique_ptr<hpcc::workload::TraceReplaySource> replay;
  sc::InstalledEvents installed;
  {
    SpanLog::Scope setup(log, "setup");
    if (own_replay) {
      SpanLog::Scope span(log, "workload.load_trace");
      records =
          std::make_shared<const std::vector<hpcc::workload::TraceRecord>>(
              hpcc::workload::LoadFlowTrace(cfg.trace_file));
      cfg.trace_file.clear();
    }
    const int ctor = log.Begin("runner.experiment_ctor");
    e = std::make_unique<hpcc::runner::Experiment>(cfg);
    log.End(ctor);
    layers->routes_s = e->topology().route_compute_seconds();
    layers->build_s =
        log.spans()[static_cast<size_t>(ctor)].duration() - layers->routes_s;
    layers->route_mb =
        static_cast<double>(e->topology().RoutingResidentBytes()) / 1048576.0;

    SpanLog::Scope install(log, "scenario.install");
    for (int lane = 0; lane < e->shards(); ++lane) {
      hpcc::check::MonitorRegistry& reg = registries.emplace_back();
      counters.push_back(static_cast<WorkCounter*>(
          reg.Add(std::make_unique<WorkCounter>())));
      reg.set_clock(&e->lane_simulator(lane));
      reg.AttachTo(e->topology(), e->lane_nodes(lane));
    }
    const bool all_links =
        std::all_of(run.scenario.events.begin(), run.scenario.events.end(),
                    IsLinkEvent);
    if (e->shards() == 1 && all_links) {
      // The same ScheduleAt Experiment::InstallLinkEvent makes, with the
      // repair timed.
      hpcc::runner::Experiment* ex = e.get();
      for (const sc::ScenarioEvent& ev : run.scenario.events) {
        const size_t link = ev.link;
        const bool up = ev.kind == sc::ScenarioEvent::Kind::kLinkUp;
        if (link >= ex->topology().links().size()) {
          throw std::out_of_range("event link index out of range");
        }
        ex->simulator().ScheduleAt(ev.at, [&log, ex, link, up] {
          SpanLog::Scope span(log, "topo.set_link_up");
          ex->topology().SetLinkUp(link, up);
        });
      }
    } else {
      installed = sc::InstallEvents(*e, run.scenario);
    }
    if (own_replay) {
      hpcc::runner::Experiment* ex = e.get();
      const hpcc::workload::FlowClass fc = cfg.flow_class;
      const char* name = fc == hpcc::workload::FlowClass::kFluid
                             ? "analytic.add_fluid_flow"
                             : "runner.add_packet_flow";
      replay = std::make_unique<hpcc::workload::TraceReplaySource>(
          &e->simulator(), records,
          [&log, ex, fc, name](uint32_t src, uint32_t dst, uint64_t bytes,
                               hpcc::sim::TimePs start) {
            if (src >= ex->hosts().size() || dst >= ex->hosts().size()) {
              throw std::out_of_range("trace_file host index out of range");
            }
            SpanLog::Scope span(log, name);
            ex->AddWorkloadFlow(fc, 0, ex->hosts()[src], ex->hosts()[dst],
                                bytes, start);
          });
    }
  }
  SweepRunResult point;
  point.label = run.label;
  point.params = run.params;
  {
    SpanLog::Scope span(log, "run");
    if (e->shards() == 1) {
      {
        SpanLog::Scope s(log, "runner.start_workload");
        if (replay != nullptr) replay->Start();
        e->StartWorkload();
      }
      {
        SpanLog::Scope s(log, "runner.run_until");
        e->RunUntil(cfg.duration);
      }
      SpanLog::Scope s(log, "runner.finish_run");
      point.result = e->FinishRun();
    } else {
      SpanLog::Scope s(log, "runner.run_lanes");
      point.result = e->Run();
    }
  }
  const hpcc::runner::ExperimentResult& r = point.result;
  double flows_running = 0;

  // Exact flow accounting: created = completed + failed + running.
  for (const hpcc::host::Flow* f : e->AllFlows()) {
    if (!f->done) flows_running += 1;
  }
  if (e->fluid_region() != nullptr) {
    const hpcc::sim::TimePs tick = e->fluid_region()->tick_period();
    for (const auto& fr : e->fluid_region()->flows()) {
      if (!fr.done) flows_running += 1;
      if (fr.done && tick > 0) {
        layers->flow_ticks += static_cast<double>(
            (fr.finish - fr.start + tick - 1) / tick);
      }
    }
  }
  if (static_cast<double>(r.flows_created) !=
      static_cast<double>(r.flows_completed + r.flows_failed) +
          flows_running) {
    errors->Append(Json::MakeString(
        "flow accounting: created " + std::to_string(r.flows_created) +
        " != completed + failed + running"));
  }

  const double routes_end = e->topology().route_compute_seconds();
  if (log.Count("topo.set_link_up") > 0) {
    layers->repair_s = log.TotalSeconds("topo.set_link_up");
    layers->repairs = static_cast<double>(log.Count("topo.set_link_up"));
  } else {
    // Coordinator-applied repairs (lanes): the topology's own route timer.
    layers->repair_s = routes_end - layers->routes_s;
    for (const sc::ScenarioEvent& ev : run.scenario.events) {
      layers->repairs += IsLinkEvent(ev) ? 1 : 0;
    }
  }
  double lane_sum = 0;
  for (int lane = 0; lane < e->shards(); ++lane) {
    const double ev =
        static_cast<double>(e->lane_simulator(lane).events_executed());
    lane_sum += ev;
    layers->lane_events_max = std::max(layers->lane_events_max, ev);
  }
  layers->lane_imbalance =
      lane_sum > 0 ? layers->lane_events_max / (lane_sum / e->shards()) : 0;
  for (const WorkCounter* c : counters) {
    layers->cc_updates += static_cast<double>(c->cc_updates);
    layers->int_echoes += static_cast<double>(c->int_echoes);
  }
  layers->AddResult(r);
  const std::vector<double> self = log.SelfTimes();
  for (size_t i = 0; i < log.spans().size(); ++i) {
    const std::string& n = log.spans()[i].name;
    if (n == "runner.start_workload" || n == "runner.run_until" ||
        n == "runner.finish_run" || n == "runner.run_lanes") {
      layers->run_self_s += self[i];
    }
  }
  std::vector<double> admit_us = log.Durations("analytic.add_fluid_flow");
  layers->admit_s = log.TotalSeconds("analytic.add_fluid_flow");
  for (double& v : admit_us) v *= 1e6;
  layers->admit_us_p50 = Quantile(admit_us, 0.5);
  layers->admit_us_p99 = Quantile(admit_us, 0.99);
  results->push_back(std::move(point));
  {
    // RunOne destroys its experiment before the CSV is written, so the
    // timed wall time includes this too.
    SpanLog::Scope span(log, "teardown");
    replay.reset();
    installed = {};
    e.reset();
  }
}

}  // namespace

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Json RunTimed(const std::string& scenario_path, const std::string& csv_path,
              const TimedOptions& options) {
  const auto t0 = Clock::now();
  const hpcc::scenario::Scenario s =
      hpcc::scenario::LoadScenarioFile(scenario_path);
  const std::vector<ScenarioRun> runs = hpcc::scenario::ExpandSweep(s);
  const double parse_s = Since(t0);
  hpcc::scenario::ScenarioRunnerOptions ro;
  ro.jobs = 1;
  ro.check = options.check;
  ro.shards_override = options.shards;
  const std::vector<SweepRunResult> results = ScenarioRunner(ro).RunAll(runs);
  const bool csv_ok = ScenarioRunner::WriteCsv(csv_path, results);
  const double wall_s = Since(t0);

  double build_s = 0, run_s = 0, built = 0, restored = 0;
  for (const SweepRunResult& r : results) {
    build_s += r.phases.build_s;
    run_s += r.phases.run_s;
    built += r.warm_built ? 1 : 0;
    restored += r.warm_restored ? 1 : 0;
  }
  Json errors = Errors(results);
  if (!csv_ok) errors.Append(Json::MakeString("cannot write " + csv_path));

  Json out = Json::MakeObject();
  out.Set("wall_s", Num(wall_s));
  out.Set("parse_s", Num(parse_s));
  out.Set("setup_s", Num(parse_s + build_s));
  out.Set("run_s", Num(run_s));
  out.Set("peak_rss_mb", Num(PeakRssMb()));
  out.Set("points", Num(static_cast<double>(results.size())));
  out.Set("warm_built", Num(built));
  out.Set("warm_restored", Num(restored));
  out.Set("errors", std::move(errors));
  out.Set("identity", Identity(results));
  return out;
}

Json RunTraced(const std::string& scenario_path, const std::string& csv_path,
               const std::string& spans_path, int shards) {
  namespace sc = hpcc::scenario;
  SpanLog log;
  Layers layers;
  std::vector<SweepRunResult> results;
  Json errors = Json::MakeArray();
  double setup_s = 0, run_s = 0;

  const int root = log.Begin("wall");
  sc::Scenario scenario;
  std::vector<ScenarioRun> runs;
  {
    SpanLog::Scope span(log, "scenario.parse");
    scenario = sc::LoadScenarioFile(scenario_path);
    runs = sc::ExpandSweep(scenario);
  }
  layers.parse_s = log.TotalSeconds("scenario.parse");
  setup_s += layers.parse_s;

  if (runs.size() > 1) {
    TraceSweep(log, runs, &results, &layers, &setup_s, &run_s);
  } else {
    TracePoint(log, runs.front(), shards, &results, &layers, &errors);
    setup_s += log.TotalSeconds("setup");
    run_s += log.TotalSeconds("run");
  }

  {
    SpanLog::Scope span(log, "stats.write_csv");
    if (!ScenarioRunner::WriteCsv(csv_path, results)) {
      errors.Append(Json::MakeString("cannot write " + csv_path));
    }
  }
  log.End(root);
  const double wall_s = log.spans()[static_cast<size_t>(root)].duration();
  layers.csv_s = log.TotalSeconds("stats.write_csv");
  // Share of the wall time inside spans that hold setup or run work (a
  // sweep point's RunOne span holds both).
  layers.span_coverage =
      (log.TotalSeconds("scenario.parse") + log.TotalSeconds("setup") +
       log.TotalSeconds("run") + log.TotalSeconds("scenario.run_one")) /
      wall_s;

  if (runs.size() > 1) {
    // RunOne keeps its experiments to itself, so the sweep's route cost is
    // measured on one more cold build of the first point, after the wall
    // span: what the builder point paid, and what its members skipped.
    hpcc::runner::Experiment probe(sc::MakeExperimentConfig(runs[0].scenario));
    layers.routes_s = probe.topology().route_compute_seconds();
    layers.build_s = std::max(0.0, layers.build_s - layers.routes_s);
    layers.route_mb =
        static_cast<double>(probe.topology().RoutingResidentBytes()) /
        1048576.0;
  }

  std::ofstream spans_out(spans_path);
  spans_out << log.ToJsonLines();
  if (!spans_out) errors.Append(Json::MakeString("cannot write " + spans_path));

  Json extend = Errors(results);
  for (const Json& err : extend.items()) errors.Append(err);
  Json out = Json::MakeObject();
  out.Set("wall_s", Num(wall_s));
  out.Set("setup_s", Num(setup_s));
  out.Set("run_s", Num(run_s));
  out.Set("peak_rss_mb", Num(PeakRssMb()));
  out.Set("points", Num(static_cast<double>(results.size())));
  out.Set("errors", std::move(errors));
  out.Set("identity", Identity(results));
  out.Set("layers", layers.ToJson());
  return out;
}

}  // namespace perfbench
