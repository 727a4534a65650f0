// DCQCN (Zhu et al., SIGCOMM 2015) — the production RDMA CC the paper
// compares against (§2.3, §5).
//
// Rate-based: the switch ECN-marks packets under WRED; the receiver converts
// marks into CNPs (at most one per 50 us per flow); the sender keeps a
// current rate Rc and target rate Rt:
//   on CNP:     alpha <- (1-g)·alpha + g;  Rt <- Rc;  Rc <- Rc·(1 - alpha/2)
//   alpha timer (no CNP for Ta): alpha <- (1-g)·alpha
//   rate increase, driven by a timer (period Ti) and a byte counter (B):
//     fast recovery  (max(iT,iB) < F):  Rc <- (Rt + Rc)/2
//     additive       (otherwise)     :  Rt <- Rt + Rai;  Rc <- (Rt+Rc)/2
//     hyper          (min(iT,iB) > F):  Rt <- Rt + Rhai; Rc <- (Rt+Rc)/2
// The two timers the paper sweeps in Fig. 2 map to: Ti = rate-increase timer,
// Td = minimum gap between consecutive rate decreases (the vendor's
// "rate reduce monitor period").
#pragma once

#include "cc/cc.h"
#include "sim/simulator.h"

namespace hpcc::cc {

struct DcqcnParams {
  double g = 1.0 / 256.0;
  sim::TimePs alpha_timer = sim::Us(55);   // alpha decay period Ta
  sim::TimePs rate_inc_timer = sim::Us(55);  // Ti (swept in Fig. 2)
  sim::TimePs min_dec_interval = sim::Us(4);  // Td (swept in Fig. 2)
  int64_t byte_counter = 10'000'000;       // B: bytes per byte-counter event
  int fast_recovery_stages = 5;            // F
  // Additive / hyper increase steps at 25 Gbps reference, scaled linearly.
  int64_t rai_bps_at_25g = 40'000'000;
  int64_t rhai_bps_at_25g = 200'000'000;
  double min_rate_fraction = 0.001;        // floor on Rc as a fraction of line
};

class DcqcnCc : public CongestionControl {
 public:
  DcqcnCc(const CcContext& ctx, const DcqcnParams& params);
  ~DcqcnCc() override;

  void OnAck(const AckInfo& ack) override;
  void OnCnp(sim::TimePs now) override;
  void OnSent(int64_t bytes, sim::TimePs now) override;
  void OnFlowStart(sim::TimePs now) override;
  void OnFlowDone() override;

  int64_t window_bytes() const override;
  int64_t rate_bps() const override;
  bool wants_ecn() const override { return true; }
  std::string name() const override { return "dcqcn"; }

  // Exposed for unit tests (and driven by the self-scheduled timers).
  void AlphaTimerExpired(sim::TimePs now);
  void RateTimerExpired(sim::TimePs now);

  double alpha() const { return alpha_; }
  double current_rate_bps() const { return rc_; }
  double target_rate_bps() const { return rt_; }
  int timer_stage() const { return timer_stage_; }
  int byte_stage() const { return byte_stage_; }

 private:
  void RaiseRate();
  void ArmAlphaTimer();
  void ArmRateTimer();
  void Clamp();

  CcContext ctx_;
  DcqcnParams params_;
  double rai_bps_;
  double rhai_bps_;
  double min_rate_;

  double rc_;         // current rate
  double rt_;         // target rate
  double alpha_ = 1.0;
  int timer_stage_ = 0;
  int byte_stage_ = 0;
  int64_t bytes_since_event_ = 0;
  sim::TimePs last_decrease_ = -1;
  bool done_ = false;

  sim::EventId alpha_event_ = sim::kInvalidEvent;
  sim::EventId rate_event_ = sim::kInvalidEvent;
};

}  // namespace hpcc::cc
