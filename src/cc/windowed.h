// The paper's "+win" variants (§5.1): wrap a rate-based scheme with a sending
// window W = R·T, so inflight bytes are limited even when feedback is
// delayed. Fig. 11b shows this alone almost eliminates PFC pauses.
#pragma once

#include <utility>

#include "cc/cc.h"

namespace hpcc::cc {

class WindowedCc : public CongestionControl {
 public:
  WindowedCc(CcPtr inner, const CcContext& ctx)
      : inner_(std::move(inner)), ctx_(ctx) {}

  void OnAck(const AckInfo& ack) override { inner_->OnAck(ack); }
  void OnNack(const AckInfo& nack) override { inner_->OnNack(nack); }
  void OnCnp(sim::TimePs now) override { inner_->OnCnp(now); }
  void OnSent(int64_t bytes, sim::TimePs now) override {
    inner_->OnSent(bytes, now);
  }
  void OnFlowStart(sim::TimePs now) override { inner_->OnFlowStart(now); }
  void OnFlowDone() override { inner_->OnFlowDone(); }

  int64_t window_bytes() const override;
  int64_t rate_bps() const override { return inner_->rate_bps(); }
  bool wants_int() const override { return inner_->wants_int(); }
  bool wants_ecn() const override { return inner_->wants_ecn(); }
  std::string name() const override { return inner_->name() + "+win"; }

  const CongestionControl& inner() const { return *inner_; }

 private:
  CcPtr inner_;
  CcContext ctx_;
};

}  // namespace hpcc::cc
