// Randomized-schedule chaos sweeps (ctest label: chaos).
//
// Each case runs fi::Scenario::random(seed) — topology, rates and fault
// schedule all derived from the seed — under the continuous fi::Oracle.
// Any failure is unexpected: the test then delta-debugs the schedule with
// fi::Shrinker and writes a repro_<seed>.json artifact (uploaded by the
// CI chaos job) that `scenario_replay` re-runs bit-identically.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "faultinject/scenario.hpp"
#include "faultinject/shrinker.hpp"

namespace myri {
namespace {

// Deterministic event ceiling for ring-shaped traffic: the pinned 512-
// and 1024-node runs cost 28.15 and 28.77 events per delivered message
// with one event per switch hop (DESIGN.md section 9). Two events per hop
// puts them at 30.86 and 31.44, and one no-op event per L_timer tick at
// ~150 and ~290. The count
// depends on the seed, not on the machine, so the ceiling fails on any
// runner.
void expect_events_per_delivery_at_most(const fi::RunReport& r,
                                        double ceiling) {
  ASSERT_GT(r.deliveries, 0u);
  EXPECT_LE(static_cast<double>(r.events_executed) /
                static_cast<double>(r.deliveries),
            ceiling)
      << r.events_executed << " events for " << r.deliveries
      << " deliveries";
}

void report_and_dump(const fi::Scenario& s, const fi::RunReport& r,
                     const std::string& tag) {
  const fi::ShrinkResult sh = fi::Shrinker::shrink(s, r);
  const std::string path = "repro_" + tag + ".json";
  fi::write_repro(path, sh.minimal, sh.report);
  ADD_FAILURE() << tag << " failed: "
                << (r.oracle_ok ? "incomplete delivery"
                                : r.violation + " (" + r.violation_detail + ")")
                << "\n  shrunk to " << sh.minimal.events.size()
                << " event(s) in " << sh.attempts << " attempts; repro: "
                << path << "\n  replay with: scenario_replay " << path;
}

class RandomScheduleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomScheduleSweep, HoldsAllInvariants) {
  const std::uint64_t seed = GetParam();
  const fi::Scenario s = fi::Scenario::random(seed);
  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "seed_" + std::to_string(seed));
    return;
  }
  // Cross-process seed stability: the digest this run produced must match
  // a second run of the identical scenario value.
  EXPECT_EQ(fi::ScenarioRunner::run(s).digest, r.digest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScheduleSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- big-fabric schedules (beyond what random() generates) -------------

TEST(ScenarioChaos, FatTree64NodeHangMidStream) {
  fi::Scenario s;
  s.seed = 7;
  s.nodes = 64;
  s.fabric = net::FabricPreset::kFatTree;
  s.msgs = 60;
  s.msg_len = 1500;
  s.drop = 0.02;
  s.corrupt = 0.01;
  fi::ScenarioEvent hang;
  hang.kind = fi::ScenarioEvent::Kind::kNicHang;
  hang.node = 13;
  hang.at = fi::Scenario::kWarmup + sim::usec(500);
  s.events.push_back(hang);

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "fattree64_hang");
    return;
  }
  EXPECT_EQ(r.recoveries, 1u);
  EXPECT_EQ(r.deliveries, 64u * 60u);
}

TEST(ScenarioChaos, FatTree64NodeTrunkKillAndRestore) {
  fi::Scenario s;
  s.seed = 11;
  s.nodes = 64;
  s.fabric = net::FabricPreset::kFatTree;
  s.msgs = 80;
  s.msg_len = 1200;
  using K = fi::ScenarioEvent::Kind;
  fi::ScenarioEvent down;
  down.kind = K::kCableDown;
  down.cable = 2;
  down.at = fi::Scenario::kWarmup + sim::usec(300);
  fi::ScenarioEvent up;
  up.kind = K::kCableUp;
  up.cable = 2;
  up.at = down.at + sim::msec(400);
  s.events = {down, up};

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "fattree64_trunk");
    return;
  }
  EXPECT_GE(r.remaps, 1u);
  EXPECT_EQ(r.deliveries, 64u * 80u);
}

TEST(ScenarioChaos, FatTree3With512NodesHangMidStream) {
  // The event-core scale target: 512 endpoints on the 3-level Clos, all
  // streaming, with one NIC hang mid-stream. Exercises the calendar
  // queue's ring wrap and overflow migration under real load, the batch
  // route derivation (512 route tables), and recovery at a fabric size
  // where the O(n²) paths would time out. Pinned seed: CI's perf-smoke
  // job runs exactly this case, so its digest doubles as a determinism
  // canary across machines.
  fi::Scenario s;
  s.seed = 7;
  s.nodes = 512;
  s.fabric = net::FabricPreset::kFatTree3;
  s.radix = 16;
  s.msgs = 12;
  s.msg_len = 1024;
  s.drop = 0.01;
  fi::ScenarioEvent hang;
  hang.kind = fi::ScenarioEvent::Kind::kNicHang;
  hang.node = 100;
  hang.at = fi::Scenario::kWarmup + sim::usec(500);
  s.events.push_back(hang);

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "fattree3_512_hang");
    return;
  }
  EXPECT_EQ(r.recoveries, 1u);
  EXPECT_EQ(r.deliveries, 512u * 12u);
  expect_events_per_delivery_at_most(r, 30.0);
  // Seed stability at scale: identical scenario value, identical digest.
  EXPECT_EQ(fi::ScenarioRunner::run(s).digest, r.digest);
}

TEST(ScenarioChaos, FatTree3With1024NodesHangMidStream) {
  // The same case at the radix-16 Clos's full capacity: every one of the
  // 1024 endpoint ports is taken. Each node's 8 MiB host memory and 1 MiB
  // SRAM are lazily backed, so resident memory follows what the run
  // touches rather than the ~9 GB the fabric addresses. Pinned seed; CI's
  // perf-smoke job runs it beside the 512-node case.
  fi::Scenario s;
  s.seed = 7;
  s.nodes = 1024;
  s.fabric = net::FabricPreset::kFatTree3;
  s.radix = 16;
  s.msgs = 12;
  s.msg_len = 1024;
  s.drop = 0.01;
  fi::ScenarioEvent hang;
  hang.kind = fi::ScenarioEvent::Kind::kNicHang;
  hang.node = 100;
  hang.at = fi::Scenario::kWarmup + sim::usec(500);
  s.events.push_back(hang);

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "fattree3_1024_hang");
    return;
  }
  EXPECT_EQ(r.recoveries, 1u);
  EXPECT_EQ(r.deliveries, 1024u * 12u);
  expect_events_per_delivery_at_most(r, 30.0);
  EXPECT_EQ(fi::ScenarioRunner::run(s).digest, r.digest);
}

TEST(ScenarioChaos, RingHangPlusLossWindow) {
  fi::Scenario s;
  s.seed = 3;
  s.nodes = 6;
  s.fabric = net::FabricPreset::kRing;
  s.msgs = 40;
  using K = fi::ScenarioEvent::Kind;
  fi::ScenarioEvent win;
  win.kind = K::kFaultWindow;
  win.at = fi::Scenario::kWarmup + sim::usec(200);
  win.duration = sim::msec(2);
  win.drop = 0.15;
  win.corrupt = 0.05;
  fi::ScenarioEvent hang;
  hang.kind = K::kNicHang;
  hang.node = 4;
  hang.at = fi::Scenario::kWarmup + sim::usec(800);
  s.events = {win, hang};

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "ring_hang_loss");
    return;
  }
  EXPECT_EQ(r.recoveries, 1u);
}

TEST(ScenarioChaos, MixedHangCableKillAndLossyWindow) {
  // The profile the old disjoint generator refused to produce: a NIC hang,
  // a trunk kill and a lossy window overlapping on one fabric. The epoch
  // control plane must retry dropped MAP_ROUTE chunks through the window,
  // remap around the dead trunk, fold the recovered node back in, and
  // leave every card on the mapper's epoch (the oracle's route-convergence
  // invariant checks exactly that after quiesce).
  fi::Scenario s;
  s.seed = 19;
  s.nodes = 8;
  s.fabric = net::FabricPreset::kFatTree;
  s.msgs = 30;
  s.msg_len = 1024;
  s.drop = 0.04;
  using K = fi::ScenarioEvent::Kind;
  fi::ScenarioEvent hang;
  hang.kind = K::kNicHang;
  hang.node = 5;
  hang.at = fi::Scenario::kWarmup + sim::usec(400);
  fi::ScenarioEvent down;
  down.kind = K::kCableDown;
  down.cable = 1;
  down.at = fi::Scenario::kWarmup + sim::usec(900);  // node 5 still hung
  fi::ScenarioEvent win;
  win.kind = K::kFaultWindow;
  win.at = down.at + sim::usec(100);  // chunks of the remap meet the loss
  win.duration = sim::msec(5);
  win.drop = 0.20;
  win.corrupt = 0.05;
  fi::ScenarioEvent up;
  up.kind = K::kCableUp;
  up.cable = 1;
  up.at = down.at + sim::msec(600);
  s.events = {hang, down, win, up};

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "mixed_hang_cable_loss");
    return;
  }
  EXPECT_EQ(r.recoveries, 1u);
  EXPECT_GE(r.remaps, 2u);  // trunk kill + restore (+ announce remap)
  EXPECT_EQ(r.deliveries, 8u * 30u);
  // Seed stability holds for the mixed profile too.
  EXPECT_EQ(fi::ScenarioRunner::run(s).digest, r.digest);
}

// ---- announce-loss profiles (self-healing convergence) -----------------

// A node that recovers inside a total-loss window: its announce (and some
// or all retries) die on the wire, and no cable event ever arrives after
// the recovery to bail the control plane out. Convergence must come from
// the card's announce retry backoff or the mapper's census probe alone.
//
// Shape: a cable kill maps the fabric while everyone is alive (so the
// victim has a last-known route for census), the victim wedges, the cable
// restore remaps WITHOUT it, and a 100% drop window opens over the FTD
// recovery. `window_ms` decides who heals it: shorter than the announce
// retry span (~320 ms of backoff) leaves retries to land after the window;
// longer kills the whole announce budget and leaves only census.
fi::Scenario announce_loss(std::uint64_t seed, sim::Time window_len) {
  fi::Scenario s;
  s.seed = seed;
  s.nodes = 8;
  s.fabric = net::FabricPreset::kFatTree;
  s.msgs = 15;  // streams drain well before the control-plane drama
  using K = fi::ScenarioEvent::Kind;
  fi::ScenarioEvent down;
  down.kind = K::kCableDown;
  down.cable = 1;
  down.at = fi::Scenario::kWarmup + sim::msec(100);
  fi::ScenarioEvent hang;
  hang.kind = K::kNicHang;
  hang.node = 5;
  hang.at = fi::Scenario::kWarmup + sim::msec(150);
  fi::ScenarioEvent up;
  up.kind = K::kCableUp;
  up.cable = 1;
  up.at = fi::Scenario::kWarmup + sim::msec(160);  // node 5 still hung
  fi::ScenarioEvent win;  // covers the recovery announce (~hang + 730 ms)
  win.kind = K::kFaultWindow;
  win.at = hang.at + sim::msec(500);
  win.duration = window_len;
  win.drop = 1.0;
  s.events = {down, hang, up, win};
  return s;
}

class AnnounceLossSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnnounceLossSweep, RetriedAnnounceConvergesThroughTotalLoss) {
  // Window ends mid-backoff: a late announce retry is the first packet
  // out of the recovered card that survives, and it alone must fold the
  // node back into the map (route-convergence would fail the run if not).
  const fi::Scenario s = announce_loss(GetParam(), sim::msec(400));
  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "announce_loss_" + std::to_string(GetParam()));
    return;
  }
  EXPECT_EQ(r.recoveries, 1u);
  EXPECT_GE(r.remaps, 3u);  // kill + restore + fold-in
  EXPECT_EQ(r.deliveries, 8u * 15u);
  EXPECT_EQ(fi::ScenarioRunner::run(s).digest, r.digest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnnounceLossSweep,
                         ::testing::Values<std::uint64_t>(23, 24, 25, 26));

TEST(ScenarioChaos, CensusProbeConvergesWhenTheWholeAnnounceBudgetIsLost) {
  // Window outlives every announce retry (~320 ms span): the card goes
  // permanently silent from its side, and the mapper-side census probe at
  // the node's last-known route is the only repair channel left.
  const fi::Scenario s = announce_loss(29, sim::msec(1300));
  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "announce_budget_lost");
    return;
  }
  EXPECT_EQ(r.recoveries, 1u);
  EXPECT_GE(r.remaps, 3u);
  EXPECT_EQ(r.deliveries, 8u * 15u);
  EXPECT_EQ(fi::ScenarioRunner::run(s).digest, r.digest);
}

// ---- membership profiles (roster deltas under traffic) -----------------

TEST(ScenarioChaos, JoinDuringLossWindow) {
  // Hot-add while every link is lossy: the joiner's fold-in census probe,
  // its MAP_ROUTE chunks and the verification stream all have to fight
  // the same drop rate. Route-convergence requires the joiner on the
  // mapper's epoch at horizon regardless.
  fi::Scenario s;
  s.seed = 31;
  s.nodes = 6;
  s.fabric = net::FabricPreset::kFatTree;
  s.msgs = 30;
  s.msg_len = 1024;
  using K = fi::ScenarioEvent::Kind;
  fi::ScenarioEvent win;
  win.kind = K::kFaultWindow;
  win.at = fi::Scenario::kWarmup + sim::usec(200);
  win.duration = sim::msec(5);
  win.drop = 0.25;
  win.corrupt = 0.05;
  fi::ScenarioEvent join;
  join.kind = K::kNodeJoin;
  join.at = fi::Scenario::kWarmup + sim::msec(2);  // inside the window
  s.events = {win, join};

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "join_during_loss");
    return;
  }
  // 6 ring streams + the joiner's 8-message verification stream.
  EXPECT_EQ(r.deliveries, 6u * 30u + 8u);
  EXPECT_EQ(fi::ScenarioRunner::run(s).digest, r.digest);
}

TEST(ScenarioChaos, DrainMidRemap) {
  // Drain ordered while a trunk-kill remap is still distributing: the
  // drain gate, the GBN tails re-routed around the dead trunk and the
  // retirement handshake all overlap. The membership invariant insists
  // the drain still terminates in a retirement.
  fi::Scenario s;
  s.seed = 37;
  s.nodes = 8;
  s.fabric = net::FabricPreset::kFatTree;
  s.msgs = 30;
  s.msg_len = 1024;
  using K = fi::ScenarioEvent::Kind;
  fi::ScenarioEvent down;
  down.kind = K::kCableDown;
  down.cable = 1;
  down.at = fi::Scenario::kWarmup + sim::usec(400);
  fi::ScenarioEvent drain;
  drain.kind = K::kNodeDrain;
  drain.node = 3;
  drain.at = down.at + sim::usec(300);  // remap chunks still in flight
  s.events = {down, drain};

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "drain_mid_remap");
    return;
  }
  EXPECT_GE(r.remaps, 1u);
  // Every ring stream completes exactly-once (the drained node finishes
  // its in-flight traffic before retiring); drains add no extra stream.
  EXPECT_EQ(r.deliveries, 8u * 30u);
  EXPECT_EQ(fi::ScenarioRunner::run(s).digest, r.digest);
}

TEST(ScenarioChaos, ReplaceDuringRecovery) {
  // Spare swap while the FTD is mid-recovery on the dead card: the
  // quarantined card's late replay must transmit into its cut cable (no
  // duplicate deliveries), and the spare must land on the mapper's epoch
  // and serve the verification stream.
  fi::Scenario s;
  s.seed = 41;
  s.nodes = 8;
  s.fabric = net::FabricPreset::kFatTree;
  s.msgs = 25;
  s.msg_len = 1024;
  using K = fi::ScenarioEvent::Kind;
  fi::ScenarioEvent hang;
  hang.kind = K::kNicHang;
  hang.node = 5;
  hang.at = fi::Scenario::kWarmup + sim::usec(500);
  fi::ScenarioEvent repl;
  repl.kind = K::kNodeReplace;
  repl.node = 5;
  repl.at = hang.at + sim::msec(200);  // FTD recovery still in flight
  s.events = {hang, repl};

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "replace_during_recovery");
    return;
  }
  // The dead card takes its two ring streams with it (abandoned, partial
  // by design); the other 6 complete and the spare's verification stream
  // delivers all 8.
  EXPECT_GE(r.deliveries, 6u * 25u + 8u);
  EXPECT_EQ(fi::ScenarioRunner::run(s).digest, r.digest);
}

TEST(ScenarioChaos, FatTree64NodeMembershipChurn) {
  // Full membership churn at fabric scale: a join, a drain and a replace
  // on a 64-node fat-tree, all under baseline loss, with the digest
  // re-run pinning seed stability for the membership event paths.
  fi::Scenario s;
  s.seed = 47;
  s.nodes = 64;
  s.fabric = net::FabricPreset::kFatTree;
  s.radix = 10;  // 13 leaves x 5 hosts: one free port for the joiner
  s.msgs = 20;
  s.msg_len = 1200;
  s.drop = 0.01;
  using K = fi::ScenarioEvent::Kind;
  fi::ScenarioEvent join;
  join.kind = K::kNodeJoin;
  join.at = fi::Scenario::kWarmup + sim::msec(1);
  fi::ScenarioEvent drain;
  drain.kind = K::kNodeDrain;
  drain.node = 20;
  drain.at = fi::Scenario::kWarmup + sim::msec(30);
  fi::ScenarioEvent repl;
  repl.kind = K::kNodeReplace;
  repl.node = 40;
  repl.at = fi::Scenario::kWarmup + sim::msec(60);
  s.events = {join, drain, repl};

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  if (r.failed()) {
    report_and_dump(s, r, "fattree64_membership");
    return;
  }
  // 62 surviving ring streams complete (two are abandoned to the replaced
  // card) plus two 8-message verification streams.
  EXPECT_GE(r.deliveries, 62u * 20u + 16u);
  EXPECT_EQ(fi::ScenarioRunner::run(s).digest, r.digest);
}

}  // namespace
}  // namespace myri
