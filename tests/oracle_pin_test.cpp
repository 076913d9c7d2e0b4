// Oracle violation pins: the point-of-change oracle is stricter, not
// looser, than the per-event sweep it replaced.
//
// The oracle checks each local invariant where its state changes
// (DESIGN.md section 10). The pins below were computed with the sweep it
// replaced, which re-ran every invariant after an event at most once per
// 200 us of virtual time. For each planted bug the sweep's first violation
// is recorded as (invariant, virtual time). The oracle must report the same
// invariant at the same or an earlier time. A case that moved earlier is
// re-pinned at its new time, and the sweep's time stays beside it. Clean
// chaos seeds must stay clean with the digests the sweep produced.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "faultinject/scenario.hpp"

namespace myri {
namespace {

using K = fi::ScenarioEvent::Kind;

fi::ScenarioEvent planted(K kind, sim::Time at, int node) {
  fi::ScenarioEvent ev;
  ev.kind = kind;
  ev.at = at;
  ev.node = node;
  return ev;
}

fi::Scenario token_leak_two_nodes() {
  fi::Scenario s;
  s.seed = 77;
  s.nodes = 2;
  s.msgs = 12;
  s.msg_len = 1024;
  s.events = {
      planted(K::kTokenLeak, fi::Scenario::kWarmup + sim::usec(300), 0)};
  return s;
}

// scenario_test's double_deliver_scenario: a duplicate among loss windows
// and a hang.
fi::Scenario double_deliver_four_nodes() {
  fi::Scenario s;
  s.seed = 21;
  s.nodes = 4;
  s.msgs = 30;
  fi::ScenarioEvent win =
      planted(K::kFaultWindow, fi::Scenario::kWarmup + sim::usec(100), 0);
  win.duration = sim::usec(900);
  win.drop = 0.05;
  fi::ScenarioEvent win2 =
      planted(K::kFaultWindow, fi::Scenario::kWarmup + sim::usec(4000), 0);
  win2.duration = sim::usec(500);
  win2.corrupt = 0.02;
  s.events = {
      win,
      planted(K::kDoubleDeliver, fi::Scenario::kWarmup + sim::usec(500), 0),
      planted(K::kNicHang, fi::Scenario::kWarmup + sim::usec(2500), 2), win2};
  return s;
}

// soak_test's windowed token leak, 80 s into a two-minute run.
fi::Scenario soak_token_leak() {
  fi::Scenario s;
  s.seed = 9;
  s.nodes = 4;
  s.msgs = 200;
  s.msg_len = 512;
  s.send_gap = sim::msec(100);
  s.check_window = sim::msec(500);
  s.horizon = fi::Scenario::kWarmup + sim::sec(120);
  s.events = {planted(
      K::kTokenLeak, fi::Scenario::kWarmup + sim::sec(80) + sim::msec(130), 1)};
  return s;
}

// A random chaos schedule with one planted bug on node seed % nodes.
fi::Scenario chaos_with(std::uint64_t seed, K kind, sim::Time at) {
  fi::Scenario s = fi::Scenario::random(seed);
  s.events.push_back(planted(
      kind, at, static_cast<int>(seed % static_cast<std::uint64_t>(s.nodes))));
  return s;
}

fi::Scenario chaos_token_leak(std::uint64_t seed) {
  return chaos_with(seed, K::kTokenLeak,
                    fi::Scenario::kWarmup + sim::usec(1300 + 97 * seed));
}

fi::Scenario chaos_double_deliver(std::uint64_t seed) {
  return chaos_with(seed, K::kDoubleDeliver,
                    fi::Scenario::kWarmup + sim::usec(900 + 53 * seed));
}

struct ViolationPin {
  std::string name;
  fi::Scenario scenario;
  std::string invariant;
  sim::Time sweep_at;  // first violation under the per-event sweep
  sim::Time at;        // first violation under point-of-change checks
};

void PrintTo(const ViolationPin& pin, std::ostream* os) { *os << pin.name; }

std::vector<ViolationPin> violation_pins() {
  // A token leak is now seen at the leak itself, not at the next sweep.
  // A duplicate delivery was always checked per delivery.
  return {
      {"TokenLeakTwoNodes", token_leak_two_nodes(), "token-conservation",
       1300950, 1200000},
      {"DoubleDeliverFourNodes", double_deliver_four_nodes(),
       "stream-exactly-once", 1945667, 1945667},
      {"SoakTokenLeak", soak_token_leak(), "token-conservation", 80130900000,
       80130900000},
      {"Chaos2TokenLeak", chaos_token_leak(2), "token-conservation", 2506900,
       2394000},
      {"Chaos5TokenLeak", chaos_token_leak(5), "token-conservation", 3065000,
       2685000},
      {"Chaos8TokenLeak", chaos_token_leak(8), "token-conservation", 3106900,
       2976000},
      {"Chaos11TokenLeak", chaos_token_leak(11), "token-conservation", 3306900,
       3267000},
      {"Chaos3DoubleDeliver", chaos_double_deliver(3), "stream-exactly-once",
       1966630, 1966630},
      {"Chaos6DoubleDeliver", chaos_double_deliver(6), "stream-exactly-once",
       1698358483, 1698358483},
  };
}

class OracleViolationPin : public ::testing::TestWithParam<ViolationPin> {};

TEST_P(OracleViolationPin, SameInvariantNoLater) {
  const ViolationPin& pin = GetParam();
  ASSERT_LE(pin.at, pin.sweep_at) << "a pin may only move earlier";
  ASSERT_TRUE(pin.scenario.validate().empty()) << pin.scenario.validate();
  const fi::RunReport r = fi::ScenarioRunner::run(pin.scenario);
  ASSERT_FALSE(r.oracle_ok);
  EXPECT_EQ(r.violation, pin.invariant) << r.violation_detail;
  EXPECT_EQ(r.violation_at, pin.at) << r.violation_detail;
}

INSTANTIATE_TEST_SUITE_P(
    Planted, OracleViolationPin, ::testing::ValuesIn(violation_pins()),
    [](const ::testing::TestParamInfo<ViolationPin>& info) {
      return info.param.name;
    });

struct CleanPin {
  std::uint64_t seed;
  std::uint64_t digest;  // produced under the per-event sweep
};

void PrintTo(const CleanPin& pin, std::ostream* os) {
  *os << "seed " << pin.seed;
}

class OracleCleanPin : public ::testing::TestWithParam<CleanPin> {};

TEST_P(OracleCleanPin, StaysCleanWithTheSweepsDigest) {
  const fi::RunReport r =
      fi::ScenarioRunner::run(fi::Scenario::random(GetParam().seed));
  EXPECT_FALSE(r.failed()) << r.failure_signature() << ": "
                           << r.violation_detail;
  EXPECT_EQ(r.digest, GetParam().digest);
  // Full sweeps: one at attach and one at the end (no soak windows).
  EXPECT_EQ(r.oracle_checks, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, OracleCleanPin,
    ::testing::Values(CleanPin{1, 0x80246457b476384dull},
                      CleanPin{2, 0x47f49c6bf37604bfull},
                      CleanPin{3, 0x7865195f8f536f38ull},
                      CleanPin{4, 0x190b05dea08006ecull},
                      CleanPin{5, 0x61dc60bfac8a5b74ull},
                      CleanPin{6, 0xe5fa648a021dd059ull}),
    [](const ::testing::TestParamInfo<CleanPin>& info) {
      return "Seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace myri
