// Unit tests for the DCQCN baseline.
#include <gtest/gtest.h>

#include <vector>

#include "cc/dcqcn.h"
#include "runner/experiment.h"
#include "sim/simulator.h"

namespace hpcc::cc {
namespace {

constexpr int64_t kNic = 25'000'000'000;

CcContext Ctx(sim::Simulator* s = nullptr) {
  CcContext ctx;
  ctx.nic_bps = kNic;
  ctx.base_rtt = sim::Us(9);
  ctx.simulator = s;
  return ctx;
}

TEST(Dcqcn, StartsAtLineRate) {
  DcqcnCc cc(Ctx(), DcqcnParams{});
  EXPECT_EQ(cc.rate_bps(), kNic);
  EXPECT_DOUBLE_EQ(cc.alpha(), 1.0);
}

TEST(Dcqcn, CnpCutsRateByAlphaHalf) {
  DcqcnParams p;
  DcqcnCc cc(Ctx(), p);
  cc.OnCnp(sim::Us(100));
  // alpha' = (1-g)*1 + g = 1, so the first cut halves the rate.
  EXPECT_NEAR(cc.current_rate_bps(), kNic * 0.5, kNic * 0.001);
  EXPECT_NEAR(cc.target_rate_bps(), kNic, kNic * 0.001);
}

TEST(Dcqcn, TdGatesConsecutiveDecreases) {
  DcqcnParams p;
  p.min_dec_interval = sim::Us(50);
  DcqcnCc cc(Ctx(), p);
  cc.OnCnp(sim::Us(100));
  const double r1 = cc.current_rate_bps();
  cc.OnCnp(sim::Us(110));  // within Td: ignored
  EXPECT_DOUBLE_EQ(cc.current_rate_bps(), r1);
  cc.OnCnp(sim::Us(151));  // past Td: applies
  EXPECT_LT(cc.current_rate_bps(), r1);
}

TEST(Dcqcn, SmallTdAllowsFasterDecrease) {
  DcqcnParams fast;
  fast.min_dec_interval = sim::Us(4);
  DcqcnParams slow;
  slow.min_dec_interval = sim::Us(50);
  DcqcnCc a(Ctx(), fast);
  DcqcnCc b(Ctx(), slow);
  for (int i = 0; i < 5; ++i) {
    a.OnCnp(sim::Us(100 + 10 * i));
    b.OnCnp(sim::Us(100 + 10 * i));
  }
  EXPECT_LT(a.current_rate_bps(), b.current_rate_bps());
}

TEST(Dcqcn, AlphaDecaysOnTimer) {
  DcqcnCc cc(Ctx(), DcqcnParams{});
  cc.OnCnp(sim::Us(100));
  const double a0 = cc.alpha();
  cc.AlphaTimerExpired(sim::Us(155));
  EXPECT_LT(cc.alpha(), a0);
  EXPECT_NEAR(cc.alpha(), a0 * (1.0 - 1.0 / 256.0), 1e-12);
}

TEST(Dcqcn, FastRecoveryHalvesGapToTarget) {
  DcqcnCc cc(Ctx(), DcqcnParams{});
  cc.OnCnp(sim::Us(100));
  const double rt = cc.target_rate_bps();
  const double rc0 = cc.current_rate_bps();
  cc.RateTimerExpired(sim::Us(200));
  EXPECT_NEAR(cc.current_rate_bps(), (rt + rc0) / 2, 1.0);
  // Five fast-recovery events converge Rc nearly to Rt without raising Rt.
  for (int i = 0; i < 4; ++i) cc.RateTimerExpired(sim::Us(300 + i));
  EXPECT_NEAR(cc.current_rate_bps(), rt, rt * 0.04);
  EXPECT_NEAR(cc.target_rate_bps(), rt, 1.0);
}

TEST(Dcqcn, AdditiveIncreaseAfterFastRecovery) {
  DcqcnParams p;
  DcqcnCc cc(Ctx(), p);
  // Two decreases pull Rt well below line rate so increases are observable.
  cc.OnCnp(sim::Us(100));
  cc.OnCnp(sim::Us(200));
  for (int i = 0; i < 5; ++i) cc.RateTimerExpired(sim::Us(300 + i));
  const double rt_before = cc.target_rate_bps();
  cc.RateTimerExpired(sim::Us(400));  // stage 6: additive
  EXPECT_NEAR(cc.target_rate_bps() - rt_before,
              static_cast<double>(p.rai_bps_at_25g), 1.0);
}

TEST(Dcqcn, ByteCounterTriggersIncrease) {
  DcqcnParams p;
  p.byte_counter = 100'000;
  DcqcnCc cc(Ctx(), p);
  cc.OnCnp(sim::Us(100));
  const double r0 = cc.current_rate_bps();
  EXPECT_EQ(cc.byte_stage(), 0);
  cc.OnSent(60'000, sim::Us(110));
  EXPECT_EQ(cc.byte_stage(), 0);  // not yet
  cc.OnSent(60'000, sim::Us(120));
  EXPECT_EQ(cc.byte_stage(), 1);
  EXPECT_GT(cc.current_rate_bps(), r0);
}

TEST(Dcqcn, HyperIncreaseWhenBothCountersPastF) {
  DcqcnParams p;
  p.byte_counter = 1000;
  DcqcnCc cc(Ctx(), p);
  // Pull the target rate far below line so hyper steps are not clamped.
  for (int i = 0; i < 4; ++i) cc.OnCnp(sim::Us(100 + 100 * i));
  // Drive both stages past F=5.
  for (int i = 0; i < 6; ++i) cc.RateTimerExpired(sim::Us(600 + i));
  cc.OnSent(6000, sim::Us(700));
  ASSERT_GT(cc.timer_stage(), 5);
  ASSERT_GT(cc.byte_stage(), 5);
  const double rt0 = cc.target_rate_bps();
  cc.RateTimerExpired(sim::Us(800));
  EXPECT_NEAR(cc.target_rate_bps() - rt0,
              static_cast<double>(p.rhai_bps_at_25g), 1.0)
      << "hyper increase step";
}

TEST(Dcqcn, CnpResetsIncreaseStages) {
  DcqcnCc cc(Ctx(), DcqcnParams{});
  cc.OnCnp(sim::Us(100));
  for (int i = 0; i < 7; ++i) cc.RateTimerExpired(sim::Us(200 + i));
  EXPECT_GT(cc.timer_stage(), 5);
  cc.OnCnp(sim::Us(1000));
  EXPECT_EQ(cc.timer_stage(), 0);
  EXPECT_EQ(cc.byte_stage(), 0);
}

TEST(Dcqcn, RateNeverBelowFloorOrAboveLine) {
  DcqcnCc cc(Ctx(), DcqcnParams{});
  for (int i = 0; i < 200; ++i) cc.OnCnp(sim::Us(100 + i * 100));
  EXPECT_GE(cc.rate_bps(), static_cast<int64_t>(kNic * 0.001));
  for (int i = 0; i < 500; ++i) cc.RateTimerExpired(sim::Ms(1) + i);
  EXPECT_LE(cc.rate_bps(), kNic);
}

TEST(Dcqcn, SelfSchedulesTimersOnSimulator) {
  sim::Simulator s;
  DcqcnParams p;
  p.alpha_timer = sim::Us(55);
  p.rate_inc_timer = sim::Us(300);
  auto cc = std::make_unique<DcqcnCc>(Ctx(&s), p);
  cc->OnFlowStart(s.now());
  cc->OnCnp(s.now());
  const double a0 = cc->alpha();
  s.Run(sim::Us(60));
  EXPECT_LT(cc->alpha(), a0);  // alpha timer fired
  s.Run(sim::Us(310));
  EXPECT_GE(cc->timer_stage(), 1);  // rate timer fired
  cc->OnFlowDone();
  const uint64_t events_before = s.events_executed();
  s.Run(sim::Ms(10));
  // Timers cancelled: nothing keeps firing forever.
  EXPECT_LE(s.events_executed() - events_before, 2u);
}

// The timers arm when the flow starts, not when it is created: rows added
// up front with a later start time behave exactly like the same rows added
// at their start time (idle timers would decay alpha and step the rate
// stages before the first byte, so the incast's CNP reactions would differ).
TEST(Dcqcn, FlowCreatedAheadOfItsStartMatchesOneCreatedAtStart) {
  struct Outcome {
    std::vector<sim::TimePs> finish;
    std::vector<double> alpha;
    std::vector<double> rate;
    uint64_t trace_hash = 0;
  };
  auto run = [](bool up_front) {
    runner::ExperimentConfig cfg;
    cfg.topology = runner::TopologyKind::kStar;
    cfg.star.num_hosts = 9;
    cfg.cc.scheme = "dcqcn";
    cfg.duration = sim::Ms(3);
    runner::Experiment e(cfg);
    const auto& h = e.hosts();
    const sim::TimePs late = sim::Us(200);
    std::vector<host::Flow*> flows{e.AddFlow(h[1], h[0], 4'000'000, 0)};
    if (!up_front) e.RunUntil(late);
    for (int i = 2; i < 9; ++i) {
      flows.push_back(e.AddFlow(h[i], h[0], 500'000, late));
    }
    Outcome out;
    out.trace_hash = e.Run().trace_hash;
    for (const host::Flow* f : flows) {
      const auto& cc = dynamic_cast<const DcqcnCc&>(f->cc());
      out.finish.push_back(f->finish_time);
      out.alpha.push_back(cc.alpha());
      out.rate.push_back(cc.current_rate_bps());
    }
    return out;
  };
  const Outcome ahead = run(true);
  const Outcome at_start = run(false);
  EXPECT_EQ(ahead.trace_hash, at_start.trace_hash);
  EXPECT_EQ(ahead.finish, at_start.finish);
  EXPECT_EQ(ahead.alpha, at_start.alpha);
  EXPECT_EQ(ahead.rate, at_start.rate);
}

TEST(Dcqcn, WindowEffectivelyUnlimited) {
  DcqcnCc cc(Ctx(), DcqcnParams{});
  EXPECT_GT(cc.window_bytes(), int64_t{1} << 50);
  EXPECT_TRUE(cc.wants_ecn());
  EXPECT_FALSE(cc.wants_int());
}

}  // namespace
}  // namespace hpcc::cc
