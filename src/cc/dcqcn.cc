#include "cc/dcqcn.h"

#include <algorithm>
#include <limits>

namespace hpcc::cc {

DcqcnCc::DcqcnCc(const CcContext& ctx, const DcqcnParams& params)
    : ctx_(ctx), params_(params) {
  const double scale = static_cast<double>(ctx.nic_bps) / 25e9;
  rai_bps_ = static_cast<double>(params.rai_bps_at_25g) * scale;
  rhai_bps_ = static_cast<double>(params.rhai_bps_at_25g) * scale;
  min_rate_ = params.min_rate_fraction * static_cast<double>(ctx.nic_bps);
  // RDMA senders start at line rate (§2.2).
  rc_ = static_cast<double>(ctx.nic_bps);
  rt_ = rc_;
}

void DcqcnCc::OnFlowStart(sim::TimePs /*now*/) {
  // Armed at the start, not at construction: a flow created ahead of its
  // start time must not decay alpha or raise its rate while idle.
  ArmAlphaTimer();
  ArmRateTimer();
}

DcqcnCc::~DcqcnCc() { OnFlowDone(); }

void DcqcnCc::OnFlowDone() {
  done_ = true;
  if (ctx_.simulator != nullptr) {
    ctx_.simulator->Cancel(alpha_event_);
    ctx_.simulator->Cancel(rate_event_);
    alpha_event_ = sim::kInvalidEvent;
    rate_event_ = sim::kInvalidEvent;
  }
}

void DcqcnCc::ArmAlphaTimer() {
  if (ctx_.simulator == nullptr || done_) return;
  alpha_event_ = ctx_.simulator->ScheduleIn(
      params_.alpha_timer,
      [this]() { AlphaTimerExpired(ctx_.simulator->now()); });
}

void DcqcnCc::ArmRateTimer() {
  if (ctx_.simulator == nullptr || done_) return;
  rate_event_ = ctx_.simulator->ScheduleIn(
      params_.rate_inc_timer,
      [this]() { RateTimerExpired(ctx_.simulator->now()); });
}

void DcqcnCc::OnAck(const AckInfo& /*ack*/) {
  // DCQCN ignores plain ACKs; all feedback arrives as CNPs.
}

void DcqcnCc::OnCnp(sim::TimePs now) {
  if (last_decrease_ >= 0 && now - last_decrease_ < params_.min_dec_interval) {
    return;  // Td gate: at most one decrease per monitor period
  }
  last_decrease_ = now;
  alpha_ = (1.0 - params_.g) * alpha_ + params_.g;
  rt_ = rc_;
  rc_ = rc_ * (1.0 - alpha_ / 2.0);
  timer_stage_ = 0;
  byte_stage_ = 0;
  bytes_since_event_ = 0;
  Clamp();
  // Restart the increase timer so recovery counts from the decrease.
  if (ctx_.simulator != nullptr) {
    ctx_.simulator->Cancel(rate_event_);
    ArmRateTimer();
  }
}

void DcqcnCc::AlphaTimerExpired(sim::TimePs /*now*/) {
  alpha_ *= (1.0 - params_.g);
  ArmAlphaTimer();
}

void DcqcnCc::RateTimerExpired(sim::TimePs /*now*/) {
  ++timer_stage_;
  RaiseRate();
  ArmRateTimer();
}

void DcqcnCc::OnSent(int64_t bytes, sim::TimePs /*now*/) {
  bytes_since_event_ += bytes;
  while (bytes_since_event_ >= params_.byte_counter) {
    bytes_since_event_ -= params_.byte_counter;
    ++byte_stage_;
    RaiseRate();
  }
}

void DcqcnCc::RaiseRate() {
  const int f = params_.fast_recovery_stages;
  if (std::max(timer_stage_, byte_stage_) <= f) {
    // Fast recovery (the first F events after a decrease): halve the gap to
    // the target rate without raising the target.
    rc_ = (rt_ + rc_) / 2.0;
  } else if (std::min(timer_stage_, byte_stage_) > f) {
    rt_ += rhai_bps_;  // hyper increase
    rc_ = (rt_ + rc_) / 2.0;
  } else {
    rt_ += rai_bps_;   // additive increase
    rc_ = (rt_ + rc_) / 2.0;
  }
  Clamp();
}

void DcqcnCc::Clamp() {
  const double line = static_cast<double>(ctx_.nic_bps);
  rc_ = std::clamp(rc_, min_rate_, line);
  rt_ = std::clamp(rt_, min_rate_, line);
}

int64_t DcqcnCc::window_bytes() const {
  // Pure rate-based: effectively unlimited inflight (§3.2's critique).
  return std::numeric_limits<int64_t>::max() / 4;
}

int64_t DcqcnCc::rate_bps() const { return static_cast<int64_t>(rc_); }

}  // namespace hpcc::cc
