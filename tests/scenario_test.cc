// Scenario subsystem parsing tests: the zero-dependency JSON value type,
// schema validation (malformed inputs must be rejected loudly), sweep-grid
// expansion, and a full-scenario JSON round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "scenario/json.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "workload/trace_replay.h"

namespace hpcc::scenario {
namespace {

// ---- JSON value + parser ----------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null").is_null());
  EXPECT_TRUE(Json::Parse("true").AsBool());
  EXPECT_FALSE(Json::Parse("false").AsBool());
  EXPECT_DOUBLE_EQ(Json::Parse("-2.5e3").AsDouble(), -2500.0);
  EXPECT_EQ(Json::Parse("42").AsInt(), 42);
  EXPECT_EQ(Json::Parse("\"hi\\n\\\"there\\\"\"").AsString(), "hi\n\"there\"");
}

TEST(Json, ParsesNestedStructures) {
  const Json j = Json::Parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": "x"}, "e": null})");
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.Get("a").size(), 3u);
  EXPECT_DOUBLE_EQ(j.Get("a").at(1).AsDouble(), 2.0);
  EXPECT_TRUE(j.Get("a").at(2).Get("b").AsBool());
  EXPECT_EQ(j.Get("c").Get("d").AsString(), "x");
  EXPECT_TRUE(j.Get("e").is_null());
  EXPECT_EQ(j.Find("missing"), nullptr);
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(Json::Parse("\"\\u0041\"").AsString(), "A");
  EXPECT_EQ(Json::Parse("\"\\u00e9\"").AsString(), "\xc3\xa9");  // é in UTF-8
  EXPECT_THROW(Json::Parse("\"\\ud800\""), JsonError);  // surrogate
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::Parse(""), JsonError);
  EXPECT_THROW(Json::Parse("{"), JsonError);
  EXPECT_THROW(Json::Parse("[1, 2"), JsonError);
  EXPECT_THROW(Json::Parse("[1,]"), JsonError);
  EXPECT_THROW(Json::Parse("{\"a\": }"), JsonError);
  EXPECT_THROW(Json::Parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::Parse("{a: 1}"), JsonError);
  EXPECT_THROW(Json::Parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::Parse("tru"), JsonError);
  EXPECT_THROW(Json::Parse("01x"), JsonError);
  EXPECT_THROW(Json::Parse("012"), JsonError);   // leading zero
  EXPECT_THROW(Json::Parse("-07.5"), JsonError);
  EXPECT_NO_THROW(Json::Parse("0.5"));
  EXPECT_NO_THROW(Json::Parse("-0.5"));
  EXPECT_THROW(Json::Parse("1 2"), JsonError);       // trailing content
  EXPECT_THROW(Json::Parse("{\"a\":1,\"a\":2}"), JsonError);  // dup key
  EXPECT_THROW(Json::Parse("1e999"), JsonError);     // overflow
}

TEST(Json, RejectsDeepNesting) {
  std::string bomb;
  for (int i = 0; i < 200; ++i) bomb += "[";
  EXPECT_THROW(Json::Parse(bomb), JsonError);
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    Json::Parse("{\n  \"a\": nope\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, DumpParsesBackIdentically) {
  const std::string text =
      R"({"s":"a\"b","n":0.95,"i":-7,"b":true,"x":null,"arr":[1,2.5,"z"],)"
      R"("o":{"k":3}})";
  const Json j = Json::Parse(text);
  EXPECT_EQ(Json::Parse(j.Dump()), j);
  EXPECT_EQ(Json::Parse(j.Dump(2)), j);  // pretty-print too
  EXPECT_EQ(j.Dump(), Json::Parse(j.Dump()).Dump());
}

TEST(Json, NumberFormattingRoundTrips) {
  for (const double v : {0.95, 1.0 / 3.0, 1e-12, 123456789012345.0, -0.125}) {
    EXPECT_DOUBLE_EQ(Json::Parse(FormatNumber(v)).AsDouble(), v) << v;
  }
  EXPECT_EQ(FormatNumber(3.0), "3");  // integral values stay integer-shaped
}

TEST(Json, SetPathCreatesIntermediateObjects) {
  Json j = Json::MakeObject();
  j.SetPath("workload.load", Json::MakeNumber(0.5));
  EXPECT_DOUBLE_EQ(j.Get("workload").Get("load").AsDouble(), 0.5);
  j.SetPath("workload.load", Json::MakeNumber(0.7));  // overwrite
  EXPECT_DOUBLE_EQ(j.Get("workload").Get("load").AsDouble(), 0.7);
  EXPECT_THROW(j.SetPath("workload.load.deeper", Json()), JsonError);
}

TEST(Json, SetPathIndexesArrayElements) {
  Json j = Json::Parse(R"({"events": [
    {"type": "load_phase", "load": 0.5},
    {"type": "incast", "fan_in": 4}
  ]})");
  j.SetPath("events.1.fan_in", Json::MakeNumber(8));
  EXPECT_EQ(j.Get("events").at(1).Get("fan_in").AsInt(), 8);
  j.SetPath("events.0", Json::Parse(R"({"type": "link_down", "link": 2})"));
  EXPECT_EQ(j.Get("events").at(0).Get("type").AsString(), "link_down");
  // Arrays are indexed, never extended; segments must be numeric.
  EXPECT_THROW(j.SetPath("events.2.fan_in", Json::MakeNumber(1)), JsonError);
  EXPECT_THROW(j.SetPath("events.first.fan_in", Json::MakeNumber(1)), JsonError);
}

// ---- scenario schema --------------------------------------------------------

constexpr char kMinimal[] = R"({
  "name": "t",
  "topology": {"kind": "star", "hosts": 4}
})";

TEST(Scenario, MinimalDocumentUsesDefaults) {
  const Scenario s = ParseScenarioText(kMinimal);
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.config.topology, runner::TopologyKind::kStar);
  EXPECT_EQ(s.config.star.num_hosts, 4);
  EXPECT_EQ(s.config.cc.scheme, "hpcc");
  EXPECT_EQ(s.config.duration, sim::Ms(10));
  EXPECT_TRUE(s.config.pfc_enabled);
  EXPECT_TRUE(s.events.empty());
  EXPECT_TRUE(s.sweep.empty());
}

TEST(Scenario, ParsesFullDocument) {
  const Scenario s = ParseScenarioText(R"({
    "name": "full",
    "description": "everything at once",
    "topology": {"kind": "dumbbell", "hosts_per_side": 3, "host_gbps": 25,
                 "trunk_gbps": 100, "link_delay_us": 2},
    "cc": {"scheme": "dcqcn+win", "eta": 0.9, "expected_flows": 6},
    "workload": {"load": 0.4, "trace": "fbhadoop", "max_flows": 50,
                 "incast": {"fan_in": 4, "flow_bytes": 100000,
                            "first_event_us": 50, "period_us": 500}},
    "duration_ms": 1.5,
    "seed": 9,
    "pfc": false,
    "recovery": "irn",
    "events": [
      {"type": "link_down", "at_us": 100, "link": 0},
      {"type": "link_up", "at_us": 200, "link": 0},
      {"type": "incast", "at_us": 300, "fan_in": 2, "flow_bytes": 5000},
      {"type": "load_phase", "at_us": 400, "load": 0.8}
    ]
  })");
  EXPECT_EQ(s.config.topology, runner::TopologyKind::kDumbbell);
  EXPECT_EQ(s.config.dumbbell.hosts_per_side, 3);
  EXPECT_EQ(s.config.dumbbell.host_bps, 25'000'000'000);
  EXPECT_EQ(s.config.dumbbell.trunk_bps, 100'000'000'000);
  EXPECT_EQ(s.config.dumbbell.link_delay, sim::Us(2));
  EXPECT_EQ(s.config.cc.scheme, "dcqcn+win");
  EXPECT_DOUBLE_EQ(s.config.cc.hpcc.eta, 0.9);
  EXPECT_DOUBLE_EQ(s.config.load, 0.4);
  EXPECT_EQ(s.config.trace, "fbhadoop");
  EXPECT_EQ(s.config.max_flows, 50u);
  EXPECT_TRUE(s.config.incast);
  EXPECT_EQ(s.config.incast_opts.fan_in, 4);
  EXPECT_EQ(s.config.duration, sim::TimePs(1'500'000'000));
  EXPECT_EQ(s.config.seed, 9u);
  EXPECT_FALSE(s.config.pfc_enabled);
  EXPECT_EQ(s.config.recovery, host::RecoveryMode::kIrn);

  ASSERT_EQ(s.events.size(), 4u);
  EXPECT_EQ(s.events[0].kind, ScenarioEvent::Kind::kLinkDown);
  EXPECT_EQ(s.events[0].at, sim::Us(100));
  EXPECT_EQ(s.events[0].link, 0u);
  EXPECT_EQ(s.events[1].kind, ScenarioEvent::Kind::kLinkUp);
  EXPECT_EQ(s.events[2].kind, ScenarioEvent::Kind::kIncast);
  EXPECT_EQ(s.events[2].incast.fan_in, 2);
  EXPECT_EQ(s.events[2].incast.first_event, sim::Us(300));
  EXPECT_EQ(s.events[2].incast.period, 0);  // one-shot
  EXPECT_EQ(s.events[3].kind, ScenarioEvent::Kind::kLoadPhase);
  EXPECT_DOUBLE_EQ(s.events[3].load, 0.8);
}

TEST(Scenario, RejectsMalformedDocuments) {
  // Not an object / not JSON at all.
  EXPECT_THROW(ParseScenarioText("[1,2]"), ScenarioError);
  EXPECT_THROW(ParseScenarioText("{nope"), JsonError);
  // Missing / bad topology.
  EXPECT_THROW(ParseScenarioText(R"({"name": "x"})"), ScenarioError);
  EXPECT_THROW(ParseScenarioText(R"({"topology": {"kind": "torus"}})"),
               ScenarioError);
  EXPECT_THROW(ParseScenarioText(R"({"topology": {"hosts": 3}})"),
               ScenarioError);
  // Unknown keys anywhere are rejected (typo protection).
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3}, "duation_ms": 2})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hostz": 3}})"),
      ScenarioError);
  // Type and range violations.
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3}, "duration_ms": -1})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3}, "duration_ms": "x"})"),
      JsonError);
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3}, "recovery": "tcp"})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 3},
                            "workload": {"load": -0.1}})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 3},
                            "workload": {"trace": "websearch2"}})"),
      ScenarioError);
  // Incast shapes the topology can never host are parse errors (the
  // generator's own guard is a debug-only assert).
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 4},
                            "workload": {"incast": {"fan_in": 8,
                                                    "flow_bytes": 1000}}})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 4},
                            "workload": {"incast": {"fan_in": 2,
                                                    "flow_bytes": 1000,
                                                    "receiver": 9}}})"),
      ScenarioError);
  // Bad events.
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 3},
                            "events": [{"type": "link_down", "at_us": 1}]})"),
      ScenarioError);  // missing link
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 3},
                            "events": [{"type": "warp", "at_us": 1}]})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3},
              "events": [{"type": "link_up", "at_us": -5, "link": 0}]})"),
      ScenarioError);
  // Values past the representable range would be UB to cast; reject loudly.
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3, "host_gbps": 1e12}})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 4},
                            "workload": {"incast": {"fan_in": 2,
                                                    "flow_bytes": 1e20}}})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 4},
              "workload": {"incast": {"fan_in": 2, "flow_bytes": 1000,
                                      "receiver": 4294967295}}})"),
      ScenarioError);
  // Times beyond the int64 picosecond clock would be UB to cast; they must
  // fail like any other malformed input.
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3},
              "duration_ms": 1e300})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3},
              "events": [{"type": "link_up", "at_us": 1e300, "link": 0}]})"),
      ScenarioError);
  // Bad sweep shapes.
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 3},
                            "sweep": {"workload.load": []}})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 3},
                            "sweep": [0.3]})"),
      ScenarioError);
}

TEST(Scenario, SweepExpansionIsTheCrossProduct) {
  const Scenario s = ParseScenarioText(R"({
    "name": "grid",
    "topology": {"kind": "star", "hosts": 4},
    "workload": {"load": 0.1},
    "sweep": {
      "workload.load": [0.3, 0.5, 0.7],
      "cc.scheme": ["hpcc", "dcqcn"]
    }
  })");
  const std::vector<ScenarioRun> runs = ExpandSweep(s);
  ASSERT_EQ(runs.size(), 6u);  // 3 loads x 2 schemes

  // Declaration order: first axis slowest, second fastest.
  EXPECT_EQ(runs[0].label, "grid[load=0.3,scheme=hpcc]");
  EXPECT_EQ(runs[1].label, "grid[load=0.3,scheme=dcqcn]");
  EXPECT_EQ(runs[5].label, "grid[load=0.7,scheme=dcqcn]");

  // Patched values land in the resolved configs; sweeps don't nest.
  EXPECT_DOUBLE_EQ(runs[0].scenario.config.load, 0.3);
  EXPECT_EQ(runs[0].scenario.config.cc.scheme, "hpcc");
  EXPECT_DOUBLE_EQ(runs[5].scenario.config.load, 0.7);
  EXPECT_EQ(runs[5].scenario.config.cc.scheme, "dcqcn");
  EXPECT_TRUE(runs[0].scenario.sweep.empty());

  // Params echo the axis assignments for the CSV columns.
  ASSERT_EQ(runs[3].params.size(), 2u);
  EXPECT_EQ(runs[3].params[0].first, "workload.load");
  EXPECT_EQ(runs[3].params[0].second, "0.5");
  EXPECT_EQ(runs[3].params[1].second, "dcqcn");
}

TEST(Scenario, SweepOverUnknownKeyFailsAtExpansion) {
  const Scenario s = ParseScenarioText(R"({
    "topology": {"kind": "star", "hosts": 4},
    "sweep": {"cc.bogus_knob": [1, 2]}
  })");
  EXPECT_THROW(ExpandSweep(s), ScenarioError);
}

TEST(Scenario, NoSweepExpandsToSingleRun) {
  const Scenario s = ParseScenarioText(kMinimal);
  const auto runs = ExpandSweep(s);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].label, "t");
  EXPECT_TRUE(runs[0].params.empty());
}

TEST(Scenario, JsonRoundTripIsAFixedPoint) {
  const Scenario s1 = ParseScenarioText(R"({
    "name": "rt",
    "description": "round-trip fixture",
    "topology": {"kind": "fattree", "pods": 2, "tors_per_pod": 2,
                 "aggs_per_pod": 2, "hosts_per_tor": 4},
    "cc": {"scheme": "timely+win", "eta": 0.9},
    "workload": {"load": 0.35, "trace": "fbhadoop", "max_flows": 77,
                 "incast": {"fan_in": 6, "flow_bytes": 250000,
                            "first_event_us": 150, "period_us": 900}},
    "duration_ms": 2.5,
    "seed": 13,
    "pfc": false,
    "recovery": "irn",
    "events": [
      {"type": "incast", "at_us": 20, "fan_in": 3, "flow_bytes": 9000},
      {"type": "link_down", "at_us": 111, "link": 2},
      {"type": "link_up", "at_us": 222.5, "link": 2},
      {"type": "load_phase", "at_us": 500, "load": 0.6}
    ],
    "sweep": {"seed": [1, 2, 3, 4]}
  })");
  const Json d1 = ScenarioToJson(s1);
  const Scenario s2 = ParseScenario(d1);
  const Json d2 = ScenarioToJson(s2);
  // Canonical form is a fixed point, byte for byte.
  EXPECT_EQ(d1.Dump(), d2.Dump());
  EXPECT_EQ(d1, d2);

  // And the reparsed scenario is semantically identical.
  EXPECT_EQ(s2.name, s1.name);
  EXPECT_EQ(s2.description, "round-trip fixture");
  EXPECT_EQ(s2.config.topology, s1.config.topology);
  EXPECT_EQ(s2.config.fattree.hosts_per_tor, s1.config.fattree.hosts_per_tor);
  EXPECT_EQ(s2.config.cc.scheme, s1.config.cc.scheme);
  EXPECT_DOUBLE_EQ(s2.config.load, s1.config.load);
  EXPECT_EQ(s2.config.duration, s1.config.duration);
  EXPECT_EQ(s2.config.seed, s1.config.seed);
  EXPECT_EQ(s2.config.recovery, s1.config.recovery);
  ASSERT_EQ(s2.events.size(), s1.events.size());
  for (size_t i = 0; i < s1.events.size(); ++i) {
    EXPECT_EQ(s2.events[i].kind, s1.events[i].kind) << i;
    EXPECT_EQ(s2.events[i].at, s1.events[i].at) << i;
  }
  ASSERT_EQ(s2.sweep.size(), 1u);
  EXPECT_EQ(s2.sweep[0].key, "seed");
  EXPECT_EQ(s2.sweep[0].values.size(), 4u);
  // The round-tripped document still expands.
  EXPECT_EQ(ExpandSweep(s2).size(), 4u);
}

TEST(Scenario, DcqcnTimersAndEcnThresholds) {
  const Scenario s = ParseScenarioText(R"({
    "topology": {"kind": "star", "hosts": 4},
    "cc": {"scheme": "dcqcn",
           "dcqcn": {"rate_inc_timer_us": 300, "min_dec_interval_us": 50}},
    "ecn": {"kmin_kb": 12, "kmax_kb": 50}
  })");
  EXPECT_EQ(s.config.cc.dcqcn.rate_inc_timer, sim::Us(300));
  EXPECT_EQ(s.config.cc.dcqcn.min_dec_interval, sim::Us(50));
  ASSERT_TRUE(s.config.red_override.has_value());
  EXPECT_TRUE(s.config.red_override->enabled);
  EXPECT_DOUBLE_EQ(s.config.red_override->kmin_bytes, 12'000);
  EXPECT_DOUBLE_EQ(s.config.red_override->kmax_bytes, 50'000);
  // Both blocks echo and round-trip.
  const Json d = ScenarioToJson(s);
  EXPECT_EQ(d.Get("cc").Get("dcqcn").Dump(),
            R"({"rate_inc_timer_us":300,"min_dec_interval_us":50})");
  EXPECT_EQ(d.Get("ecn").Dump(), R"({"kmin_kb":12,"kmax_kb":50})");
  EXPECT_EQ(ScenarioToJson(ParseScenario(d)).Dump(), d.Dump());

  // Documents that use neither keep their historical echo: no new keys.
  const Json plain = ScenarioToJson(ParseScenarioText(kMinimal));
  EXPECT_EQ(plain.Get("cc").Find("dcqcn"), nullptr);
  EXPECT_EQ(plain.Find("ecn"), nullptr);

  const char* bad[] = {
      R"("cc": {"dcqcn": {"rate_inc_timer_us": 0}})",
      R"("cc": {"dcqcn": {"min_dec_interval_us": -4}})",
      R"("cc": {"dcqcn": {"rate_inc_timer_us": 1e-9}})",
      R"("cc": {"dcqcn": {"ti_us": 55}})",
      R"("cc": {"dcqcn": 55})",
      R"("ecn": {"kmin_kb": 50, "kmax_kb": 12})",
      R"("ecn": {"kmin_kb": 50, "kmax_kb": 50})",
      R"("ecn": {"kmin_kb": -1, "kmax_kb": 12})",
      R"("ecn": {"kmin_kb": 1})",
      R"("ecn": {"kmin_kb": 1, "kmax_kb": 4, "pmax": 1})",
  };
  const std::string head = R"({"topology": {"kind": "star", "hosts": 3},)";
  for (const char* fragment : bad) {
    SCOPED_TRACE(fragment);
    EXPECT_THROW(ParseScenarioText(head + fragment + "}"), ScenarioError);
  }
}

TEST(Scenario, HpccDesignSwitches) {
  const Scenario s = ParseScenarioText(R"({
    "topology": {"kind": "star", "hosts": 3},
    "cc": {"scheme": "hpcc", "use_min_qlen_filter": false, "use_ewma": false,
           "use_div_table": true, "wire_format": true}
  })");
  EXPECT_FALSE(s.config.cc.hpcc.use_min_qlen_filter);
  EXPECT_FALSE(s.config.cc.hpcc.use_ewma);
  EXPECT_TRUE(s.config.cc.hpcc.use_div_table);
  EXPECT_TRUE(s.config.cc.hpcc.wire_format);
  const Json d = ScenarioToJson(s);
  EXPECT_EQ(ScenarioToJson(ParseScenario(d)).Dump(), d.Dump());
  // Each switch echoes only away from its default.
  const Json one = ScenarioToJson(ParseScenarioText(
      R"({"topology": {"kind": "star", "hosts": 3},
          "cc": {"use_ewma": false, "wire_format": false}})"));
  EXPECT_FALSE(one.Get("cc").Get("use_ewma").AsBool());
  EXPECT_EQ(one.Get("cc").Find("wire_format"), nullptr);
  const Json plain = ScenarioToJson(ParseScenarioText(kMinimal));
  for (const char* key :
       {"use_min_qlen_filter", "use_ewma", "use_div_table", "wire_format"}) {
    EXPECT_EQ(plain.Get("cc").Find(key), nullptr) << key;
  }
  EXPECT_THROW(ParseScenarioText(R"({"topology": {"kind": "star"},
                                     "cc": {"use_ewma": 0}})"),
               JsonError);
}

TEST(Scenario, HybridRejectsHpccVariantsTheFluidMapDoesNotModel) {
  // The fluid map is plain HPCC's per-RTT map; with a variant scheme the
  // fluid flows would silently run it anyway.
  for (const char* scheme :
       {"hpcc-alpha", "hpcc-perack", "hpcc-perrtt", "hpcc-rxrate"}) {
    Json doc = Json::Parse(
        R"({"name": "x", "topology": {"kind": "fattree"},
            "cc": {"scheme": "hpcc"},
            "workload": {"load": 0.2, "flow_class": "fluid"},
            "hybrid": {}})");
    EXPECT_NO_THROW(ParseScenario(doc));
    ApplySet(doc, std::string("cc.scheme=") + scheme);
    try {
      ParseScenario(doc);
      ADD_FAILURE() << scheme << " accepted with a hybrid block";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find("cc.scheme"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Scenario, DrainFactorZeroStopsAtDuration) {
  const Scenario s = ParseScenarioText(
      R"({"topology": {"kind": "star", "hosts": 3}, "duration_ms": 0.3,
          "drain_factor": 0})");
  EXPECT_EQ(s.config.drain_factor, 0.0);
  EXPECT_EQ(ScenarioToJson(s).Get("drain_factor").AsDouble(), 0.0);
  EXPECT_THROW(ParseScenarioText(R"({"topology": {"kind": "star"},
                                     "drain_factor": -1})"),
               ScenarioError);
}

TEST(Scenario, StaticFlows) {
  const std::string head =
      R"({"name": "static", "topology": {"kind": "star", "hosts": 3},
          "duration_ms": 0.3, "drain_factor": 0, "workload": {"flows": )";
  const Scenario s = ParseScenarioText(
      head + R"([{"start_us": 0, "src": 0, "dst": 2, "bytes": 5000},
                 {"start_us": 12.5, "src": 1, "dst": 2, "bytes": 3000}]}})");
  ASSERT_EQ(s.flows.size(), 2u);
  EXPECT_EQ(s.flows[1].at, sim::Ns(12'500));
  EXPECT_EQ(s.flows[1].src, 1u);
  EXPECT_EQ(s.flows[1].bytes, 3000u);
  const Json d = ScenarioToJson(s);
  EXPECT_EQ(d.Get("workload").Get("flows").Dump(),
            R"([{"start_us":0,"src":0,"dst":2,"bytes":5000},)"
            R"({"start_us":12.5,"src":1,"dst":2,"bytes":3000}])");
  EXPECT_EQ(ScenarioToJson(ParseScenario(d)).Dump(), d.Dump());
  EXPECT_EQ(ScenarioToJson(ParseScenarioText(kMinimal))
                .Get("workload")
                .Find("flows"),
            nullptr);

  // The rows are the run's first flows, in row order, and they finish.
  const SweepRunResult r = ScenarioRunner::RunOne(ExpandSweep(s).front());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.result.flows_created, 2u);
  EXPECT_EQ(r.result.flows_completed, 2u);

  // trace_file row rules, plus the topology's host range.
  for (const char* bad : {
           R"([{"start_us": 0, "src": 1, "dst": 1, "bytes": 10}])",
           R"([{"start_us": 0, "src": 0, "dst": 1, "bytes": 0}])",
           R"([{"start_us": 0, "src": 0, "dst": 1, "bytes": -5}])",
           R"([{"start_us": 5, "src": 0, "dst": 1, "bytes": 10},
               {"start_us": 3, "src": 1, "dst": 0, "bytes": 10}])",
           R"([{"start_us": 0, "src": 0, "dst": 3, "bytes": 10}])",
           R"([{"start_us": -1, "src": 0, "dst": 1, "bytes": 10}])",
           R"([{"start_us": 0, "src": 0, "dst": 1}])",
           R"([{"start_us": 0, "src": 0, "dst": 1, "bytes": 10, "x": 1}])",
           R"({"start_us": 0})",
       }) {
    EXPECT_ANY_THROW(ParseScenarioText(head + bad + "}}")) << bad;
  }
}

// A µs value at ps resolution names one picosecond, whichever way it is
// read: a workload.flows row and a trace_file row agree (0.000507 µs has no
// exact binary form, so truncating the product would give 506 ps).
TEST(Scenario, MicrosecondsRoundToTheNearestPicosecond) {
  const Scenario s = ParseScenarioText(
      R"({"name": "ps", "topology": {"kind": "star", "hosts": 3},
          "duration_ms": 0.3, "workload": {"flows":
          [{"start_us": 0.000507, "src": 0, "dst": 2, "bytes": 5000}]}})");
  ASSERT_EQ(s.flows.size(), 1u);
  EXPECT_EQ(s.flows[0].at, 507);
  std::istringstream trace("0.000507,0,2,5000\n");
  const std::vector<workload::TraceRecord> rows =
      workload::ParseFlowTrace(trace);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at, 507);
  EXPECT_EQ(ScenarioToJson(s).Get("workload").Get("flows").Dump(),
            R"([{"start_us":0.000507,"src":0,"dst":2,"bytes":5000}])");
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Scenario, ObjectValuedSweepAxesPatchWhole) {
  const Scenario s = ParseScenarioText(R"({
    "name": "obj",
    "topology": {"kind": "star", "hosts": 4},
    "cc": {"scheme": "timely", "eta": 0.8},
    "sweep": {"cc": [{"scheme": "hpcc", "eta": 0.9}, {"scheme": "dcqcn"}]}
  })");
  const std::vector<ScenarioRun> runs = ExpandSweep(s);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].label, R"(obj[cc={"scheme":"hpcc","eta":0.9}])");
  EXPECT_EQ(runs[1].label, R"(obj[cc={"scheme":"dcqcn"}])");
  EXPECT_EQ(runs[0].scenario.config.cc.scheme, "hpcc");
  EXPECT_DOUBLE_EQ(runs[0].scenario.config.cc.hpcc.eta, 0.9);
  // The whole object replaces the base "cc": eta falls back to its default
  // rather than keeping the base document's 0.8.
  EXPECT_EQ(runs[1].scenario.config.cc.scheme, "dcqcn");
  EXPECT_DOUBLE_EQ(runs[1].scenario.config.cc.hpcc.eta,
                   core::HpccParams{}.eta);

  // The axis cell holds commas and quotes: the raw cell is the compact
  // JSON, and the CSV file quotes it per RFC 4180 (quotes doubled).
  std::vector<SweepRunResult> results(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    results[i].label = runs[i].label;
    results[i].params = runs[i].params;
    results[i].error = "not run";
  }
  const std::vector<std::string> header = ScenarioRunner::CsvHeader(results);
  ASSERT_GE(header.size(), 2u);
  EXPECT_EQ(header[1], "cc");
  const std::vector<std::string> row = ScenarioRunner::CsvRow(results[0]);
  ASSERT_EQ(row.size(), header.size());
  EXPECT_EQ(row[1], R"({"scheme":"hpcc","eta":0.9})");
  const std::string csv = "object_axis_tmp.csv";
  ASSERT_TRUE(ScenarioRunner::WriteCsv(csv, results));
  const std::string text = ReadAll(csv);
  std::remove(csv.c_str());
  EXPECT_NE(text.find(R"("obj[cc={""scheme"":""hpcc"",""eta"":0.9}]",)"
                      R"("{""scheme"":""hpcc"",""eta"":0.9}",)"),
            std::string::npos)
      << text;

  // --dump round trip: the canonical document keeps the object values and
  // expands to the same points.
  const Json dumped = ScenarioToJson(s);
  EXPECT_EQ(dumped.Get("sweep").Dump(),
            R"({"cc":[{"scheme":"hpcc","eta":0.9},{"scheme":"dcqcn"}]})");
  const std::vector<ScenarioRun> again = ExpandSweep(ParseScenario(dumped));
  ASSERT_EQ(again.size(), runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(again[i].label, runs[i].label);
    EXPECT_EQ(ScenarioToJson(again[i].scenario).Dump(),
              ScenarioToJson(runs[i].scenario).Dump());
  }
}

TEST(Scenario, ApplySetTypesTheValue) {
  Json doc = Json::Parse(kMinimal);
  ApplySet(doc, "workload.load=0.5");
  ApplySet(doc, "cc.scheme=dcqcn");
  ApplySet(doc, R"(cc.dcqcn={"rate_inc_timer_us": 300})");
  ApplySet(doc, "pfc=false");
  ApplySet(doc, "description=a=b");  // only the first '=' splits
  EXPECT_TRUE(doc.Get("workload").Get("load").is_number());
  EXPECT_TRUE(doc.Get("cc").Get("scheme").is_string());
  EXPECT_TRUE(doc.Get("cc").Get("dcqcn").is_object());
  EXPECT_EQ(doc.Get("description").AsString(), "a=b");
  const Scenario s = ParseScenario(doc);
  EXPECT_DOUBLE_EQ(s.config.load, 0.5);
  EXPECT_EQ(s.config.cc.scheme, "dcqcn");
  EXPECT_EQ(s.config.cc.dcqcn.rate_inc_timer, sim::Us(300));
  EXPECT_FALSE(s.config.pfc_enabled);
}

TEST(Scenario, ApplySetKeepsSweepValuesAndValidates) {
  Json doc = Json::Parse(R"({
    "name": "g",
    "topology": {"kind": "star", "hosts": 4},
    "sweep": {"cc.scheme": ["hpcc", "dcqcn"]}
  })");
  // A swept key keeps its sweep values: the override only sets the base.
  ApplySet(doc, "cc.scheme=timely");
  const std::vector<ScenarioRun> runs = ExpandSweep(ParseScenario(doc));
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].scenario.config.cc.scheme, "hpcc");
  EXPECT_EQ(runs[1].scenario.config.cc.scheme, "dcqcn");

  // An unknown path is caught by validation, exactly like a typo.
  Json typo = Json::Parse(kMinimal);
  ApplySet(typo, "cc.etta=0.5");
  EXPECT_THROW(ParseScenario(typo), ScenarioError);
  // A value of the wrong type fails the same way.
  Json wrong = Json::Parse(kMinimal);
  ApplySet(wrong, "duration_ms=ten");
  EXPECT_THROW(ParseScenario(wrong), JsonError);

  // Without '=' (or a path) there is nothing to apply.
  Json any = Json::Parse(kMinimal);
  EXPECT_THROW(ApplySet(any, "duration_ms"), ScenarioError);
  EXPECT_THROW(ApplySet(any, "=5"), ScenarioError);
  EXPECT_THROW(ApplySet(any, "topology.kind.x=1"), ScenarioError);

  // LoadScenarioFile applies the overrides before validation.
  const std::string path = "apply_set_tmp.json";
  {
    std::ofstream out(path);
    out << kMinimal;
  }
  EXPECT_EQ(LoadScenarioFile(path, {"duration_ms=3"}).config.duration,
            sim::Ms(3));
  EXPECT_THROW(LoadScenarioFile(path, {"cc.etta=0.5"}), ScenarioError);
  std::remove(path.c_str());
}

TEST(Scenario, LoadScenarioFileReportsMissingFile) {
  EXPECT_THROW(LoadScenarioFile("/nonexistent/path.json"), ScenarioError);
}

}  // namespace
}  // namespace hpcc::scenario
