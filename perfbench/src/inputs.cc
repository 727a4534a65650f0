#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "core/hash.h"
#include "scenario/json.h"
#include "sim/rng.h"
#include "workload/size_cdf.h"

namespace perfbench {

namespace {

using hpcc::scenario::Json;

constexpr double kHostGbps = 100;
constexpr double kFabricGbps = 400;
// RNG stream of the background generator, apart from every stream the
// simulator derives from the scenario seed itself.
constexpr uint64_t kArrivalStream = 0x9e4f;

Workload Fabric32() {
  Workload w;
  w.pods = 32;
  w.tors_per_pod = 16;
  w.aggs_per_pod = 16;
  w.cores_per_agg = 16;
  w.hosts_per_tor = 16;
  return w;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;

  // Per-packet work in sim/net/host/cc dominates; routes in setup and
  // incremental repair of the flap script in the run.
  Workload packet = Fabric32();
  packet.name = "fabric32_packet";
  packet.cdf = "websearch";
  packet.load = 0.25;
  packet.horizon_us = 100;
  packet.max_flows = 500;
  packet.duration_ms = 0.1;
  packet.drain_factor = 10;
  packet.flaps = true;
  out.push_back(packet);

  // Fabric build/routes and fluid admission + ticks dominate; the packet
  // engine only carries the incasts.
  Workload hybrid;
  hybrid.name = "hybrid48_fluid";
  hybrid.pods = 24;
  hybrid.tors_per_pod = 24;
  hybrid.aggs_per_pod = 24;
  hybrid.cores_per_agg = 24;
  hybrid.hosts_per_tor = 48;
  hybrid.cdf = "websearch";
  hybrid.load = 0.25;
  hybrid.horizon_us = 500;
  hybrid.max_flows = 2000;
  hybrid.fluid = true;
  hybrid.duration_ms = 0.5;
  hybrid.drain_factor = 10;
  hybrid.periodic_incast = true;
  out.push_back(hybrid);

  // Setup by snapshot adoption and checkpoint restore instead of cold builds.
  Workload sweep = Fabric32();
  sweep.name = "sweep32_warm";
  sweep.cdf = "fbhadoop";
  sweep.load = 0.25;
  sweep.horizon_us = 40;
  sweep.max_flows = 500;
  sweep.duration_ms = 1.5;
  sweep.warm_until_us = 1400;
  sweep.sweep_incast_us = 1425;
  sweep.sweep_fan_in = {4, 6, 8, 10, 12, 14, 16, 18};
  out.push_back(sweep);
  return out;
}

Json Num(double v) { return Json::MakeNumber(v); }

// Inverse of the piecewise-linear CDF, interpolated as SizeCdf::Sample does.
uint64_t Quantile(const hpcc::workload::SizeCdf& cdf, double u) {
  const auto& pts = cdf.points();
  for (size_t i = 1; i < pts.size(); ++i) {
    if (u <= pts[i].cdf) {
      const double span = pts[i].cdf - pts[i - 1].cdf;
      const double frac = span > 0 ? (u - pts[i - 1].cdf) / span : 1.0;
      const double bytes =
          static_cast<double>(pts[i - 1].bytes) +
          frac * static_cast<double>(pts[i].bytes - pts[i - 1].bytes);
      return std::max<uint64_t>(1, static_cast<uint64_t>(bytes));
    }
  }
  return std::max<uint64_t>(1, pts.back().bytes);
}

Json Incast(int fan_in, double at_us) {
  Json ev = Json::MakeObject();
  ev.Set("type", Json::MakeString("incast"));
  ev.Set("at_us", Num(at_us));
  ev.Set("fan_in", Num(fan_in));
  ev.Set("flow_bytes", Num(30000));
  return ev;
}

Json LinkEvent(const char* type, double at_us, int link) {
  Json ev = Json::MakeObject();
  ev.Set("type", Json::MakeString(type));
  ev.Set("at_us", Num(at_us));
  ev.Set("link", Num(link));
  return ev;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<hpcc::workload::TraceRecord> GenerateArrivals(const Workload& w,
                                                          uint64_t seed) {
  namespace wl = hpcc::workload;
  const wl::SizeCdf cdf =
      w.cdf == "fbhadoop" ? wl::SizeCdf::FbHadoop() : wl::SizeCdf::WebSearch();
  const uint64_t hosts = static_cast<uint64_t>(w.pods) * w.tors_per_pod *
                         w.hosts_per_tor;
  // Same arrival model as workload::PoissonGenerator: the fabric-wide flow
  // rate that offers `load` of every host NIC's bandwidth.
  const double aggregate_Bps = w.load * kHostGbps * 1e9 / 8.0 *
                               static_cast<double>(hosts);
  const double mean_gap_ps =
      static_cast<double>(hpcc::sim::kPsPerSec) / (aggregate_Bps / cdf.MeanBytes());
  const hpcc::sim::TimePs horizon =
      static_cast<hpcc::sim::TimePs>(std::llround(w.horizon_us * 1e6));

  hpcc::sim::Rng rng(hpcc::core::DeriveSeed(seed, kArrivalStream));
  std::vector<wl::TraceRecord> out;
  hpcc::sim::TimePs t = 0;
  while (out.size() < w.max_flows) {
    t += std::max<hpcc::sim::TimePs>(
        1, static_cast<hpcc::sim::TimePs>(rng.Exponential(mean_gap_ps)));
    if (t > horizon) break;
    wl::TraceRecord r;
    r.at = t;
    r.src = static_cast<uint32_t>(rng.Index(hosts));
    r.dst = static_cast<uint32_t>(rng.Index(hosts - 1));
    if (r.dst >= r.src) ++r.dst;
    out.push_back(r);
  }
  // Stratified sizes: the n flows take one uniform draw from each of the n
  // equal-probability strata of the CDF, in seed-shuffled order. Each size is
  // still distributed as the CDF, but the heavy tail no longer makes the
  // total offered bytes (and so the benchmark's work) swing with the seed.
  const size_t n = out.size();
  std::vector<size_t> stratum(n);
  for (size_t i = 0; i < n; ++i) stratum[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(stratum[i - 1], stratum[rng.Index(i)]);
  for (size_t i = 0; i < n; ++i) {
    const double u =
        (static_cast<double>(stratum[i]) + rng.Uniform()) / static_cast<double>(n);
    out[i].bytes = Quantile(cdf, u);
  }
  return out;
}

std::string ScenarioDocument(const Workload& w, uint64_t seed,
                             const std::string& trace_file) {
  Json doc = Json::MakeObject();
  doc.Set("name", Json::MakeString(w.name));
  doc.Set("description",
          Json::MakeString("perfbench workload " + w.name + ", seed " +
                           std::to_string(seed)));

  Json topo = Json::MakeObject();
  topo.Set("kind", Json::MakeString("fattree"));
  topo.Set("pods", Num(w.pods));
  topo.Set("tors_per_pod", Num(w.tors_per_pod));
  topo.Set("aggs_per_pod", Num(w.aggs_per_pod));
  topo.Set("cores_per_agg", Num(w.cores_per_agg));
  topo.Set("hosts_per_tor", Num(w.hosts_per_tor));
  topo.Set("host_gbps", Num(kHostGbps));
  topo.Set("fabric_gbps", Num(kFabricGbps));
  topo.Set("link_delay_us", Num(1));
  doc.Set("topology", std::move(topo));

  Json cc = Json::MakeObject();
  cc.Set("scheme", Json::MakeString("hpcc"));
  doc.Set("cc", std::move(cc));

  Json workload = Json::MakeObject();
  workload.Set("trace_file", Json::MakeString(trace_file));
  if (w.fluid) workload.Set("flow_class", Json::MakeString("fluid"));
  if (w.periodic_incast) {
    Json incast = Json::MakeObject();
    incast.Set("fan_in", Num(64));
    incast.Set("flow_bytes", Num(30000));
    incast.Set("first_event_us", Num(50));
    incast.Set("period_us", Num(200));
    workload.Set("incast", std::move(incast));
  }
  doc.Set("workload", std::move(workload));
  if (w.fluid) doc.Set("hybrid", Json::MakeObject());

  doc.Set("duration_ms", Num(w.duration_ms));
  if (w.drain_factor > 0) doc.Set("drain_factor", Num(w.drain_factor));
  doc.Set("seed", Num(static_cast<double>(seed)));
  doc.Set("pfc", Json::MakeBool(true));

  Json events = Json::MakeArray();
  if (w.flaps) {
    // One ToR-Agg link (0) and one Agg-Core link (256): both fabric tiers.
    events.Append(LinkEvent("link_down", 25, 0));
    events.Append(LinkEvent("link_down", 35, 256));
    events.Append(LinkEvent("link_up", 60, 0));
    events.Append(LinkEvent("link_up", 75, 256));
  }
  if (!w.sweep_fan_in.empty()) {
    events.Append(Incast(w.sweep_fan_in.front(), w.sweep_incast_us));
  }
  if (events.size() > 0) doc.Set("events", std::move(events));

  if (w.warm_until_us > 0) {
    Json warm = Json::MakeObject();
    warm.Set("until_us", Num(w.warm_until_us));
    doc.Set("warm_start", std::move(warm));
  }
  if (!w.sweep_fan_in.empty()) {
    Json axis = Json::MakeArray();
    for (int f : w.sweep_fan_in) axis.Append(Num(f));
    Json sweep = Json::MakeObject();
    sweep.Set("events.0.fan_in", std::move(axis));
    doc.Set("sweep", std::move(sweep));
  }
  return doc.Dump(2) + "\n";
}

}  // namespace perfbench
