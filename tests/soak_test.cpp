// Long-horizon soak tests (ctest label: soak).
//
// The PR-budget slice of the soak story: a pinned-seed 64-node smoke soak
// with every fault kind plus membership churn must hold every invariant
// in every check window (and reproduce a pinned digest, which is the
// cross-process determinism guarantee — the constant below was produced
// by a different process than the one asserting it); a deliberately
// planted leak (mapper cache eviction disabled) must be caught by the
// drift oracle mid-run, attributed to its window, shrunk to a sub-minute
// repro, and replayed bit-identically; a test-only token leak must be
// attributed to the window it happened in, not the final one.
//
// The multi-virtual-hour profile runs in the nightly workflow via
// `cluster_sim --soak 7200`, not here.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "faultinject/scenario.hpp"
#include "faultinject/shrinker.hpp"
#include "faultinject/soak.hpp"

namespace myri {
namespace {

/// Smoke-scale arrival rates: a ~60-virtual-second run sees every fault
/// kind and several churn cycles. Mirrors cluster_sim's --soak defaults
/// for short durations.
fi::SoakProfile smoke_profile(sim::Time duration) {
  fi::SoakProfile p;
  p.seed = 2026;
  p.duration = duration;
  p.hang_every = sim::sec(20);
  p.cable_every = sim::sec(25);
  p.cable_outage = sim::sec(3);
  p.flip_every = sim::sec(30);
  p.loss_every = sim::sec(15);
  p.churn_every = sim::sec(12);
  p.replace_every = sim::sec(30);
  return p;
}

TEST(SoakGenerator, IsDeterministicAndValid) {
  const fi::Scenario a = fi::make_soak_scenario(smoke_profile(sim::sec(60)));
  const fi::Scenario b = fi::make_soak_scenario(smoke_profile(sim::sec(60)));
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.validate().empty()) << a.validate();
  EXPECT_GT(a.events.size(), 10u);
  EXPECT_EQ(a.check_window, sim::msec(500));
  EXPECT_GT(a.send_gap, 0u);
  // Every kind made it into the schedule: hangs, flips, cable pairs,
  // loss windows, churn (join+drain) and replaces.
  int kinds[10] = {};
  for (const fi::ScenarioEvent& ev : a.events) ++kinds[static_cast<int>(ev.kind)];
  using K = fi::ScenarioEvent::Kind;
  EXPECT_GT(kinds[static_cast<int>(K::kNicHang)], 0);
  EXPECT_GT(kinds[static_cast<int>(K::kSramFlip)], 0);
  EXPECT_GT(kinds[static_cast<int>(K::kCableDown)], 0);
  EXPECT_EQ(kinds[static_cast<int>(K::kCableDown)],
            kinds[static_cast<int>(K::kCableUp)]);
  EXPECT_GT(kinds[static_cast<int>(K::kFaultWindow)], 0);
  EXPECT_GT(kinds[static_cast<int>(K::kNodeJoin)], 0);
  EXPECT_EQ(kinds[static_cast<int>(K::kNodeJoin)],
            kinds[static_cast<int>(K::kNodeDrain)]);
  EXPECT_GT(kinds[static_cast<int>(K::kNodeReplace)], 0);
  // And the soak JSON round-trips like any other scenario.
  std::string err;
  const auto back = fi::Scenario::from_json(a.to_json(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(*back, a);
}

// The pinned smoke digest. Produced by a separate run of this scenario
// (any process, any machine building this tree reproduces it); a change
// here means the soak's observable history changed and must be
// deliberate.
constexpr std::uint64_t kSmokeDigest = 0x10cdf70d6ea2ad16ull;

TEST(Soak, Smoke64NodeAllFaultKindsZeroViolations) {
  const fi::Scenario s = fi::make_soak_scenario(smoke_profile(sim::sec(60)));
  ASSERT_EQ(s.nodes, 64);
  const fi::RunReport r = fi::ScenarioRunner::run(s);
  EXPECT_FALSE(r.failed()) << r.violation << " at window "
                           << r.violation_window << ": "
                           << r.violation_detail;
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.violation_window, -1);
  // Windowed sweeps actually ran — roughly one per 500 ms of virtual
  // time until the run quiesced.
  EXPECT_GE(r.windows_checked, 60u);
  EXPECT_LE(r.windows_checked, 130u);
  EXPECT_EQ(r.drift_checks, r.windows_checked + 1);  // + final sweep
  // Full invariant sweeps: one per window plus the ones at attach and at
  // the end. Everything else is checked where it changes, so a sweep per
  // event (or per slice) cannot come back unnoticed.
  EXPECT_LE(r.oracle_checks, r.windows_checked + 2);
  EXPECT_EQ(r.window_digests.size(), r.windows_checked);
  EXPECT_GT(r.recoveries, 0u);  // hangs and flips actually fired
  EXPECT_GT(r.remaps, 0u);      // cable outages actually rerouted
  EXPECT_EQ(r.digest, kSmokeDigest);
  // Event budget: idle L_timer housekeeping schedules no events
  // (DESIGN.md section 12) and a switch hop is one event (section 9), so
  // this pinned run costs 30.51 events per delivered message; two events
  // per hop put it at 34.18, one no-op event per L_timer tick at ~640.
  // The count depends on the seed, not on the machine.
  ASSERT_GT(r.deliveries, 0u);
  EXPECT_LE(static_cast<double>(r.events_executed) /
                static_cast<double>(r.deliveries),
            32.0)
      << r.events_executed << " events for " << r.deliveries
      << " deliveries";
}

TEST(Soak, ShortSoaksComplete) {
  // Soaks too short for the stream margin fall back to a 25-message
  // stream. Under 5 s it cannot finish, so the generator sends one
  // message per send_gap of the duration instead. From 5 s on, the 25
  // messages complete within the runner's drain and stay as they are.
  for (const sim::Time d : {sim::sec(1), sim::sec(4)}) {
    fi::SoakProfile p;
    p.seed = 42;
    p.duration = d;
    const fi::Scenario s = fi::make_soak_scenario(p);
    EXPECT_EQ(s.msgs, static_cast<int>(d / p.send_gap));
    const fi::RunReport r = fi::ScenarioRunner::run(s);
    EXPECT_FALSE(r.failed()) << sim::to_sec(d) << " s: "
                             << r.failure_signature();
    EXPECT_EQ(r.deliveries, static_cast<std::uint64_t>(s.nodes * s.msgs));
  }
  fi::SoakProfile p;
  p.seed = 42;
  p.duration = sim::sec(5);
  const fi::Scenario s = fi::make_soak_scenario(p);
  EXPECT_EQ(s.msgs, 25);
  const fi::RunReport r = fi::ScenarioRunner::run(s);
  EXPECT_FALSE(r.failed()) << r.failure_signature();
  // The run `cluster_sim --soak 5` makes (seed 42): its digest is pinned.
  EXPECT_EQ(r.digest, 0x3d9c623ab7937bbbull);
}

TEST(Soak, PlantedMapperLeakIsCaughtShrunkAndReplayedBitIdentically) {
  // Churn-only soak with the mapper's retired-node cache eviction
  // disabled (the test-only leak plant): every join/drain cycle strands
  // one attach-point and one route-cache entry, so the mapper caches
  // climb one entry per cycle until the drift probe's members+8 bound
  // trips mid-run.
  fi::SoakProfile p;
  p.seed = 7;
  p.nodes = 6;  // radix-8 fat-tree: leaf 1 keeps two host ports free
  p.radix = 8;
  p.duration = sim::sec(200);
  p.churn_every = sim::sec(10);
  p.hang_every = 0;
  p.cable_every = 0;
  p.flip_every = 0;
  p.loss_every = 0;
  p.replace_every = 0;
  p.drop = 0;
  p.corrupt = 0;
  p.retain_caches = true;
  const fi::Scenario s = fi::make_soak_scenario(p);

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(r.violation, "state-drift");
  EXPECT_NE(r.violation_detail.find("mapper-"), std::string::npos)
      << r.violation_detail;
  // Attributed to the window the leak crossed its bound in — mid-run,
  // well before the final window.
  const std::int64_t total_windows =
      static_cast<std::int64_t>((s.horizon - fi::Scenario::kWarmup) /
                                s.check_window);
  EXPECT_GT(r.violation_window, 10);
  EXPECT_LT(r.violation_window, total_windows - 10);

  // Shrink and replay: the repro JSON must re-run to the same failure,
  // bit for bit.
  fi::Shrinker::Config cfg;
  cfg.max_attempts = 80;
  const fi::ShrinkResult sr = fi::Shrinker::shrink(s, r, cfg);
  EXPECT_TRUE(sr.minimal.validate().empty());
  EXPECT_LE(sr.minimal.events.size(), s.events.size());
  EXPECT_LT(sr.minimal.effective_horizon(), s.effective_horizon());

  const std::string path = "repro_soak_leak_test.json";
  ASSERT_TRUE(fi::write_repro(path, sr.minimal, sr.report));
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const auto back = fi::Scenario::from_json(ss.str());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, sr.minimal);
  const auto expect = fi::parse_repro_expect(ss.str());
  ASSERT_TRUE(expect.has_value());
  EXPECT_TRUE(expect->failed);
  EXPECT_EQ(expect->signature, "state-drift");
  const fi::RunReport replay = fi::ScenarioRunner::run(*back);
  EXPECT_EQ(replay.digest, expect->digest);
  EXPECT_EQ(replay.failure_signature(), expect->signature);
  std::remove(path.c_str());
}

TEST(Soak, TokenLeakIsAttributedToItsWindowAndShrinksToSubMinute) {
  // A token conjured 80 s into a two-minute windowed run: the violation
  // must land in the window the leak happened in (not the final one),
  // and the shrinker's truncation + time-shift passes must turn the
  // two-minute scenario into a sub-minute repro.
  fi::Scenario s;
  s.seed = 9;
  s.nodes = 4;
  s.msgs = 200;
  s.msg_len = 512;
  s.send_gap = sim::msec(100);
  s.check_window = sim::msec(500);
  s.horizon = fi::Scenario::kWarmup + sim::sec(120);
  fi::ScenarioEvent leak;
  leak.kind = fi::ScenarioEvent::Kind::kTokenLeak;
  leak.node = 1;
  leak.at = fi::Scenario::kWarmup + sim::sec(80) + sim::msec(130);
  s.events.push_back(leak);
  ASSERT_TRUE(s.validate().empty()) << s.validate();

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(r.violation, "token-conservation");
  // The sweep that caught it ran within the leak's own 500 ms window.
  const std::int64_t leak_window = static_cast<std::int64_t>(
      (leak.at - fi::Scenario::kWarmup) / s.check_window);
  EXPECT_EQ(r.violation_window, leak_window);
  EXPECT_GE(r.violation_at, leak.at);
  EXPECT_LT(r.violation_window,
            static_cast<std::int64_t>((s.horizon - fi::Scenario::kWarmup) /
                                      s.check_window) -
                1);
  EXPECT_EQ(r.windows_checked, static_cast<std::uint64_t>(leak_window));

  const fi::ShrinkResult sr = fi::Shrinker::shrink(s, r);
  EXPECT_EQ(sr.report.failure_signature(), "token-conservation");
  EXPECT_LT(sr.minimal.effective_horizon(), sim::sec(60));
  const fi::RunReport replay = fi::ScenarioRunner::run(sr.minimal);
  EXPECT_EQ(replay.digest, sr.report.digest);
}

}  // namespace
}  // namespace myri
