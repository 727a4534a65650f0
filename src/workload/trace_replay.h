// Flow-trace replay: a TrafficSource that releases flows from a recorded
// CSV of `(arrival_us, src, dst, bytes)` rows instead of a stochastic
// process. This closes the ROADMAP "trace replay" bullet: measured
// datacenter traces (or traces exported from another simulator) can drive
// the fabric directly, with the same engine dispatch (packet or fluid) as
// the synthetic generators.
//
// Format, one flow per line:
//
//   # comment lines and a leading header line are skipped
//   arrival_us,src,dst,bytes
//   0.0,0,4,31250
//   12.5,3,1,1000000
//
// `arrival_us` is microseconds from simulation start (fractional allowed;
// resolved to integer picoseconds), `src`/`dst` are host indices into the
// experiment's host list, `bytes` the flow size. Rows must be sorted by
// non-decreasing arrival time — replay is a forward walk, and enforcing the
// sort keeps ParseFlowTrace <-> replay a bijection (the round-trip test pins
// this). Parsing is strict: malformed rows, src == dst, or out-of-order
// arrivals throw std::runtime_error naming the line.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "workload/flow_gen.h"
#include "workload/traffic_source.h"

namespace hpcc::workload {

struct TraceRecord {
  sim::TimePs at = 0;
  uint32_t src = 0;
  uint32_t dst = 0;
  uint64_t bytes = 0;

  bool operator==(const TraceRecord& o) const {
    return at == o.at && src == o.src && dst == o.dst && bytes == o.bytes;
  }
};

// The row rules beyond syntax, shared with the scenario's inline
// `workload.flows` rows: src != dst, a nonzero size, and arrivals in
// non-decreasing order. Returns the broken rule, or null when `r` (after
// `prev`; null for the first row) is valid.
const char* CheckTraceRecord(const TraceRecord& r, const TraceRecord* prev);

// Parses the CSV format above. Throws std::runtime_error with the offending
// line number on malformed input.
std::vector<TraceRecord> ParseFlowTrace(std::istream& in);
// File variant; throws when the file cannot be opened.
std::vector<TraceRecord> LoadFlowTrace(const std::string& path);
// Serializes records back to the CSV format ParseFlowTrace accepts
// (header line included). ParseFlowTrace(FormatFlowTrace(r)) == r.
std::string FormatFlowTrace(const std::vector<TraceRecord>& records);

class TraceReplaySource : public TrafficSource {
 public:
  // `records` is shared (not copied) so sharded lanes can replicate the
  // source without re-parsing the file per lane.
  TraceReplaySource(sim::Simulator* simulator,
                    std::shared_ptr<const std::vector<TraceRecord>> records,
                    FlowSink sink);

  void Start() override;
  uint64_t emitted() const override { return emitted_; }

  // Warm checkpoint/restore — see TrafficSource. The trace has no RNG; the
  // counter alone (plus the pending record's original key) reconstructs the
  // replay position.
  sim::TimePs first_activity() const override;
  bool warm_pending() const override {
    return pending_kind_ != GenWarmState::kNone;
  }
  GenWarmState CaptureWarm() const override;
  void RestoreWarm(const GenWarmState& w) override;

 private:
  void ScheduleRecord();
  void Emit();

  sim::Simulator* simulator_;
  std::shared_ptr<const std::vector<TraceRecord>> records_;
  FlowSink sink_;
  uint64_t emitted_ = 0;  // index of the next record to release
  int pending_kind_ = GenWarmState::kNone;
  sim::TimePs pending_at_ = 0;
  uint64_t pending_seq_ = 0;
  sim::EventId pending_event_ = sim::kInvalidEvent;
};

}  // namespace hpcc::workload
