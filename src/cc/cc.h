// Congestion-control interface.
//
// One CongestionControl instance exists per flow at the sender. The host
// transport feeds it ACK/NACK/CNP events; the instance exposes the sending
// window (bytes of inflight data allowed) and the pacing rate. Window-based
// schemes (HPCC, DCTCP) derive rate R = W/T (§3.2); rate-based schemes
// (DCQCN, TIMELY) report an effectively unlimited window unless wrapped by
// WindowedCc (the paper's "+win" variants, §5.1).
//
// Ownership and reentrancy:
//  - The owning Flow/host transport holds the CcPtr; the CC instance never
//    outlives its flow. Schemes that self-schedule timers capture `this`,
//    so they MUST cancel those timers before destruction — OnFlowDone() is
//    the hook and the transport always calls it when the flow completes.
//  - Timer EventIds may be held after they fire or are cancelled: the
//    simulator's generation-tagged ids make a stale Cancel a no-op, so the
//    re-arm pattern (Cancel old, Schedule new, overwrite the id) is safe.
//  - All entry points run inside simulator callbacks on the simulation
//    thread; they may schedule/cancel freely (including at now()) but must
//    not call Simulator::Run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/int_header.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace hpcc::cc {

// Everything a CC algorithm may look at when an ACK/NACK arrives.
struct AckInfo {
  sim::TimePs now = 0;
  uint64_t ack_seq = 0;      // cumulative ack (next expected byte)
  uint64_t snd_nxt = 0;      // sender's next unsent byte, sampled at delivery
  int64_t newly_acked = 0;   // bytes newly acknowledged by this ACK
  bool ecn_echo = false;     // receiver echoed a CE mark
  sim::TimePs rtt = 0;       // measured for this ACK (now - data sent time)
  const core::IntStack* int_stack = nullptr;  // non-null when INT enabled
  // RCP: min fair rate stamped along the path (INT64_MAX if not stamped).
  int64_t rcp_rate_bps = 0;
};

// Static per-flow context the algorithm needs.
struct CcContext {
  int64_t nic_bps = 0;       // line rate of the sender NIC port
  sim::TimePs base_rtt = 0;  // the network's base RTT "T" (§3.2)
  int mtu_bytes = 1000;      // payload bytes per full packet
  // For schemes with self-scheduled timers (DCQCN's alpha decay and rate
  // increase); may be null for purely ACK-clocked schemes.
  sim::Simulator* simulator = nullptr;
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  virtual void OnAck(const AckInfo& ack) = 0;
  // Go-back-N NACK (loss or OOS indication).
  virtual void OnNack(const AckInfo& nack) { OnAck(nack); }
  // DCQCN congestion notification packet.
  virtual void OnCnp(sim::TimePs /*now*/) {}
  // Data bytes handed to the wire (DCQCN's byte-counter rate increase).
  virtual void OnSent(int64_t /*bytes*/, sim::TimePs /*now*/) {}
  // Flow started (its start time, not its creation): arm any self-scheduled
  // timers.
  virtual void OnFlowStart(sim::TimePs /*now*/) {}
  // Flow finished: cancel any self-scheduled timers.
  virtual void OnFlowDone() {}

  // Bytes of unacknowledged data the sender may have outstanding.
  virtual int64_t window_bytes() const = 0;
  // Pacing rate in bits/second.
  virtual int64_t rate_bps() const = 0;

  // Whether data packets of this flow carry INT instructions.
  virtual bool wants_int() const { return false; }
  // Whether data packets are marked ECN-capable.
  virtual bool wants_ecn() const { return false; }

  virtual std::string name() const = 0;
};

using CcPtr = std::unique_ptr<CongestionControl>;

}  // namespace hpcc::cc
