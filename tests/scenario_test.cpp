// fi::Scenario / fi::Oracle / fi::Shrinker engine tests: determinism,
// JSON round-trips, the oracle catching a deliberately broken invariant
// mid-run, delta-debugging shrink, and the repro -> replay loop.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "faultinject/oracle.hpp"
#include "faultinject/scenario.hpp"
#include "faultinject/shrinker.hpp"
#include "gm/cluster.hpp"
#include "gm/node.hpp"

namespace myri {
namespace {

fi::Scenario two_node_clean() {
  fi::Scenario s;
  s.seed = 77;
  s.nodes = 2;
  s.msgs = 12;
  s.msg_len = 1024;
  return s;
}

// ---- clean runs across topologies --------------------------------------

TEST(Scenario, CleanRunDeliversAndPassesOracle) {
  const fi::RunReport r = fi::ScenarioRunner::run(two_node_clean());
  EXPECT_FALSE(r.failed());
  EXPECT_TRUE(r.oracle_ok);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.deliveries, 24u);  // 12 msgs x 2 ring streams
  EXPECT_GT(r.oracle_checks, 0u);
  ASSERT_EQ(r.streams.size(), 2u);
  for (const fi::StreamOutcome& so : r.streams) {
    EXPECT_TRUE(so.complete);
    EXPECT_EQ(so.duplicates, 0);
    EXPECT_EQ(so.missing, 0);
  }
}

TEST(Scenario, HangScheduleRecoversOnFtgm) {
  fi::Scenario s;
  s.seed = 5;
  s.nodes = 4;
  s.msgs = 40;
  fi::ScenarioEvent hang;
  hang.kind = fi::ScenarioEvent::Kind::kNicHang;
  hang.node = 1;
  hang.at = fi::Scenario::kWarmup + sim::usec(400);
  s.events.push_back(hang);

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  EXPECT_FALSE(r.failed()) << r.violation << ": " << r.violation_detail;
  EXPECT_EQ(r.recoveries, 1u);
  EXPECT_EQ(r.deliveries, 160u);
}

TEST(Scenario, CableKillOnFatTreeRemapsAndDelivers) {
  fi::Scenario s;
  s.seed = 9;
  s.nodes = 8;
  s.fabric = net::FabricPreset::kFatTree;
  s.msgs = 60;  // long enough that the kill lands mid-stream
  fi::ScenarioEvent down;
  down.kind = fi::ScenarioEvent::Kind::kCableDown;
  down.cable = 0;
  down.at = fi::Scenario::kWarmup + sim::usec(300);
  s.events.push_back(down);

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  EXPECT_FALSE(r.failed()) << r.violation << ": " << r.violation_detail;
  EXPECT_GE(r.remaps, 1u);
}

TEST(Scenario, RosterInvariantFlagsANodeTheMapNeverDiscovered) {
  // An open chain cut behind the mapper home: the far side stays up but
  // can never be discovered, announced, or census-probed. The epoch loop
  // alone is blind to this (an unmapped node has no table entry to lag
  // behind); the roster interface count must fail the run.
  fi::Scenario s;
  s.seed = 31;
  s.nodes = 4;
  s.fabric = net::FabricPreset::kLine;
  s.radix = 3;  // one host per switch: cable 1 cuts {0,1} from {2,3}
  s.msgs = 6;   // all streams drain long before the cut
  fi::ScenarioEvent cut;
  cut.kind = fi::ScenarioEvent::Kind::kCableDown;
  cut.cable = 1;
  cut.at = fi::Scenario::kWarmup + sim::msec(50);
  s.events.push_back(cut);

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  EXPECT_TRUE(r.delivered);  // the workload itself finished cleanly
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(r.violation, "route-convergence");
  EXPECT_NE(r.violation_detail.find("absent from the final map"),
            std::string::npos)
      << r.violation_detail;
}

TEST(Scenario, RejectsInvalidScenario) {
  fi::Scenario s;
  s.nodes = 1;  // a ring workload needs at least 2
  EXPECT_THROW((void)fi::ScenarioRunner::run(s), std::invalid_argument);
}

// ---- seed determinism ---------------------------------------------------

TEST(Scenario, IdenticalSeedsYieldIdenticalDigests) {
  fi::Scenario s = fi::Scenario::random(314159);
  const fi::RunReport a = fi::ScenarioRunner::run(s);
  const fi::RunReport b = fi::ScenarioRunner::run(s);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.oracle_checks, b.oracle_checks);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.failed(), b.failed());
}

TEST(Scenario, DifferentSeedsYieldDifferentDigests) {
  // Same shape, different cluster seed. The seed drives the link-fault
  // dice, so give the link a loss rate: different seeds then drop
  // different packets and the retransmits shift delivery times, which
  // the digest hashes. (A fault-free run is seed-independent by design.)
  fi::Scenario a = two_node_clean();
  a.drop = 0.05;
  fi::Scenario b = a;
  b.seed = 78;
  EXPECT_NE(fi::ScenarioRunner::run(a).digest,
            fi::ScenarioRunner::run(b).digest);
}

TEST(Scenario, RandomIsDeterministicInItsSeed) {
  EXPECT_EQ(fi::Scenario::random(42), fi::Scenario::random(42));
  EXPECT_NE(fi::Scenario::random(42), fi::Scenario::random(43));
}

// ---- JSON ---------------------------------------------------------------

TEST(ScenarioJson, RoundTripsExactly) {
  for (std::uint64_t seed : {1ull, 16ull, 99ull, 12345ull}) {
    const fi::Scenario s = fi::Scenario::random(seed);
    std::string err;
    const auto back = fi::Scenario::from_json(s.to_json(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(*back, s) << "seed " << seed;
  }
}

TEST(ScenarioJson, RoundTripsEveryEventKind) {
  fi::Scenario s = two_node_clean();
  s.drop = 0.07;
  s.corrupt = 0.03;
  s.horizon = sim::sec(9);
  s.send_gap = sim::msec(3);
  s.check_window = sim::msec(500);
  s.retain_caches = true;
  using K = fi::ScenarioEvent::Kind;
  for (K k : {K::kNicHang, K::kCableDown, K::kCableUp, K::kFaultWindow,
              K::kSramFlip, K::kDoubleDeliver, K::kTokenLeak}) {
    fi::ScenarioEvent ev;
    ev.kind = k;
    ev.at = fi::Scenario::kWarmup + sim::usec(17);
    ev.node = 1;
    ev.cable = 2;
    ev.drop = 0.11;
    ev.corrupt = 0.05;
    ev.duration = sim::usec(321);
    ev.offset = 4097;
    ev.bit = 6;
    s.events.push_back(ev);
  }
  std::string err;
  const auto back = fi::Scenario::from_json(s.to_json(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(*back, s);
}

TEST(ScenarioJson, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(fi::Scenario::from_json("", &err).has_value());
  EXPECT_FALSE(fi::Scenario::from_json("{", &err).has_value());
  EXPECT_FALSE(fi::Scenario::from_json("[]", &err).has_value());
  EXPECT_FALSE(
      fi::Scenario::from_json("{\"topology\":{\"nodes\":0}}", &err)
          .has_value());
  EXPECT_FALSE(err.empty());
}

TEST(ScenarioJson, U64SeedSurvivesUnchanged) {
  // Would truncate if numbers went through a double anywhere.
  fi::Scenario s = two_node_clean();
  s.seed = 0xFFFFFFFFFFFFFFFFull - 1;
  const auto back = fi::Scenario::from_json(s.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seed, s.seed);
}

// ---- structural validation ----------------------------------------------

TEST(ScenarioValidate, AcceptsDrainOfAScheduledJoin) {
  fi::Scenario s;
  s.nodes = 6;  // radix-8 fat-tree: leaf 1 keeps two host ports free
  s.fabric = net::FabricPreset::kFatTree;
  s.radix = 8;
  fi::ScenarioEvent join;
  join.kind = fi::ScenarioEvent::Kind::kNodeJoin;
  join.at = fi::Scenario::kWarmup + sim::msec(5);
  fi::ScenarioEvent drain;
  drain.kind = fi::ScenarioEvent::Kind::kNodeDrain;
  drain.node = 6;  // the id the join above will mint
  drain.at = fi::Scenario::kWarmup + sim::msec(40);
  s.events = {join, drain};
  EXPECT_TRUE(s.validate().empty()) << s.validate();
}

TEST(ScenarioValidate, RejectsBrokenMembershipTimelines) {
  fi::Scenario base;
  base.nodes = 4;
  base.fabric = net::FabricPreset::kFatTree;
  base.radix = 8;
  using K = fi::ScenarioEvent::Kind;

  {  // drain of an id no join ever mints
    fi::Scenario s = base;
    fi::ScenarioEvent drain;
    drain.kind = K::kNodeDrain;
    drain.node = 9;
    drain.at = fi::Scenario::kWarmup + sim::msec(5);
    s.events = {drain};
    EXPECT_FALSE(s.validate().empty());
  }
  {  // double drain of the same node
    fi::Scenario s = base;
    fi::ScenarioEvent d1;
    d1.kind = K::kNodeDrain;
    d1.node = 2;
    d1.at = fi::Scenario::kWarmup + sim::msec(5);
    fi::ScenarioEvent d2 = d1;
    d2.at = fi::Scenario::kWarmup + sim::msec(50);
    s.events = {d1, d2};
    EXPECT_FALSE(s.validate().empty());
  }
  {  // drain of a join that fires later in the timeline
    fi::Scenario s = base;
    fi::ScenarioEvent drain;
    drain.kind = K::kNodeDrain;
    drain.node = 4;
    drain.at = fi::Scenario::kWarmup + sim::msec(5);
    fi::ScenarioEvent join;
    join.kind = K::kNodeJoin;
    join.at = fi::Scenario::kWarmup + sim::msec(50);
    s.events = {drain, join};
    EXPECT_FALSE(s.validate().empty());
  }
}

TEST(ScenarioValidate, PortCreditAllowsJoinOnlyAfterDrainRetires) {
  // The 64-node radix-10 fat-tree has exactly one spare port. A second
  // join is only runnable once an earlier drain has handed its port back
  // (kRecoveryAllowance past the drain) — validate() must replay that
  // timeline, not just count ports statically.
  fi::Scenario s;
  s.nodes = 64;
  s.fabric = net::FabricPreset::kFatTree;
  s.radix = 10;
  using K = fi::ScenarioEvent::Kind;
  fi::ScenarioEvent join1;
  join1.kind = K::kNodeJoin;
  join1.at = fi::Scenario::kWarmup + sim::sec(1);
  fi::ScenarioEvent drain;
  drain.kind = K::kNodeDrain;
  drain.node = 64;
  drain.at = fi::Scenario::kWarmup + sim::sec(5);
  fi::ScenarioEvent join2;
  join2.kind = K::kNodeJoin;
  s.events = {join1, drain, join2};

  // Too soon: the drained port is still retiring at drain + 2 s.
  s.events[2].at = drain.at + sim::sec(2);
  EXPECT_FALSE(s.validate().empty());
  // After the credit lands (drain + kRecoveryAllowance) the join is fine.
  s.events[2].at = drain.at + fi::Scenario::kRecoveryAllowance + sim::msec(1);
  EXPECT_TRUE(s.validate().empty()) << s.validate();
}

// ---- the deliberately broken invariant ----------------------------------

fi::Scenario double_deliver_scenario() {
  // Duplicate stream 0's next delivery mid-run, padded with events that
  // have nothing to do with the failure (shrink fodder).
  fi::Scenario s;
  s.seed = 21;
  s.nodes = 4;
  s.msgs = 30;
  using K = fi::ScenarioEvent::Kind;
  fi::ScenarioEvent dup;
  dup.kind = K::kDoubleDeliver;
  dup.node = 0;
  dup.at = fi::Scenario::kWarmup + sim::usec(500);
  fi::ScenarioEvent win;
  win.kind = K::kFaultWindow;
  win.at = fi::Scenario::kWarmup + sim::usec(100);
  win.duration = sim::usec(900);
  win.drop = 0.05;
  fi::ScenarioEvent hang;
  hang.kind = K::kNicHang;
  hang.node = 2;
  hang.at = fi::Scenario::kWarmup + sim::usec(2500);
  fi::ScenarioEvent win2;
  win2.kind = K::kFaultWindow;
  win2.at = fi::Scenario::kWarmup + sim::usec(4000);
  win2.duration = sim::usec(500);
  win2.corrupt = 0.02;
  s.events = {win, dup, hang, win2};
  return s;
}

TEST(Oracle, CatchesDoubleDeliveryMidRun) {
  const fi::Scenario s = double_deliver_scenario();
  const fi::RunReport r = fi::ScenarioRunner::run(s);
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.oracle_ok);
  EXPECT_EQ(r.violation, "stream-exactly-once");
  EXPECT_EQ(r.failure_signature(), "stream-exactly-once");
  // Caught mid-run, at the duplicate itself — not in some end-of-run
  // audit long after: the violation time is inside the delivery phase.
  EXPECT_GE(r.violation_at, fi::Scenario::kWarmup + sim::usec(500));
  EXPECT_LT(r.violation_at, sim::msec(100));
}

// ---- oracle: metrics-consistency across membership changes -------------
//
// The oracle resolves each node's FTD registry counters once and reuses
// them. These plant a registry/stats mismatch on a node that appeared
// after the oracle attached, so a cache still pointing at the old node
// set (or at the replaced card) would miss it.

gm::ClusterConfig ftgm_pair() {
  gm::ClusterConfig cc;
  cc.mode = mcp::McpMode::kFtgm;
  cc.seed = 5;
  return cc;
}

void expect_recoveries_mismatch(gm::Cluster& cluster, fi::Oracle& oracle,
                                const gm::Node& n) {
  cluster.run_for(sim::msec(1));
  ASSERT_TRUE(oracle.ok()) << oracle.violations().front().detail;
  cluster.metrics().counter(n.name() + ".ftd.recoveries").inc();
  cluster.run_for(sim::msec(1));
  ASSERT_FALSE(oracle.ok());
  const fi::Oracle::Violation& v = oracle.violations().front();
  EXPECT_EQ(v.invariant, "metrics-consistency");
  EXPECT_EQ(v.detail, n.name() + ".ftd.recoveries=1 but Ftd::Stats says 0");
}

TEST(Oracle, MetricsConsistencyCoversAHotAddedNode) {
  gm::Cluster cluster(ftgm_pair());
  fi::Oracle oracle(cluster, {});
  oracle.attach();
  cluster.run_for(sim::msec(2));
  ASSERT_GT(oracle.checks_run(), 1u);
  const net::NodeId id = cluster.add_node();
  EXPECT_EQ(cluster.node(id).name(), "node2");
  expect_recoveries_mismatch(cluster, oracle, cluster.node(id));
}

TEST(Oracle, MetricsConsistencyFollowsAReplacedNode) {
  gm::Cluster cluster(ftgm_pair());
  fi::Oracle oracle(cluster, {});
  oracle.attach();
  cluster.run_for(sim::msec(2));
  ASSERT_GT(oracle.checks_run(), 1u);
  const gm::Node& spare = cluster.replace_node(1);
  EXPECT_EQ(spare.name(), "node1r1");
  expect_recoveries_mismatch(cluster, oracle, spare);
}

TEST(Shrinker, MinimizesDoubleDeliverScheduleToEssentials) {
  const fi::Scenario s = double_deliver_scenario();
  const fi::RunReport r = fi::ScenarioRunner::run(s);
  ASSERT_TRUE(r.failed());

  const fi::ShrinkResult sh = fi::Shrinker::shrink(s, r);
  EXPECT_LE(sh.minimal.events.size(), 3u);
  EXPECT_EQ(sh.report.failure_signature(), "stream-exactly-once");
  EXPECT_LE(sh.minimal.nodes, s.nodes);
  EXPECT_LE(sh.minimal.msgs, s.msgs);
  EXPECT_GT(sh.attempts, 0);
  // The one event that matters must survive the shrink.
  bool has_dup = false;
  for (const fi::ScenarioEvent& ev : sh.minimal.events) {
    has_dup |= ev.kind == fi::ScenarioEvent::Kind::kDoubleDeliver;
  }
  EXPECT_TRUE(has_dup);
  // Minimal scenario still fails identically when re-run from scratch.
  const fi::RunReport again = fi::ScenarioRunner::run(sh.minimal);
  EXPECT_EQ(again.failure_signature(), "stream-exactly-once");
  EXPECT_EQ(again.digest, sh.report.digest);
}

TEST(Shrinker, PreservesMembershipTimelineWhenShrinkingJoinDuringLoss) {
  // A join landing inside a loss window, the joiner drained later, plus a
  // deliberate duplicate so the run fails deterministically. Every shrink
  // candidate must keep the membership timeline structurally valid — a
  // candidate that drops the join but keeps the drain (or moves the join
  // to a port-less instant) is rejected by Scenario::validate()'s
  // dry-build port replay, not run.
  fi::Scenario s;
  s.seed = 41;
  s.nodes = 6;  // radix-8 fat-tree: leaf 1 keeps two host ports free
  s.fabric = net::FabricPreset::kFatTree;
  s.radix = 8;
  s.msgs = 30;
  s.send_gap = sim::msec(1);  // paced: stream 0 is still mid-flight at +6 ms
  using K = fi::ScenarioEvent::Kind;
  fi::ScenarioEvent loss;
  loss.kind = K::kFaultWindow;
  loss.at = fi::Scenario::kWarmup + sim::usec(100);
  loss.duration = sim::msec(8);
  loss.drop = 0.08;
  fi::ScenarioEvent join;
  join.kind = K::kNodeJoin;
  join.at = fi::Scenario::kWarmup + sim::msec(2);  // inside the loss window
  fi::ScenarioEvent dup;
  dup.kind = K::kDoubleDeliver;
  dup.node = 0;
  dup.at = fi::Scenario::kWarmup + sim::msec(6);
  fi::ScenarioEvent drain;
  drain.kind = K::kNodeDrain;
  drain.node = 6;  // the joiner
  drain.at = fi::Scenario::kWarmup + sim::msec(30);
  s.events = {loss, join, dup, drain};
  ASSERT_TRUE(s.validate().empty()) << s.validate();

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  ASSERT_TRUE(r.failed());
  ASSERT_EQ(r.failure_signature(), "stream-exactly-once");

  const fi::ShrinkResult sh = fi::Shrinker::shrink(s, r);
  EXPECT_EQ(sh.report.failure_signature(), "stream-exactly-once");
  EXPECT_TRUE(sh.minimal.validate().empty()) << sh.minimal.validate();
  // No orphaned drain: if the drain survived, so did the join it targets.
  bool has_join = false, has_drain = false;
  for (const fi::ScenarioEvent& ev : sh.minimal.events) {
    has_join |= ev.kind == K::kNodeJoin;
    has_drain |= ev.kind == K::kNodeDrain;
  }
  EXPECT_TRUE(has_join || !has_drain);
  // And the minimal repro replays bit-identically through the JSON loop.
  const auto back = fi::Scenario::from_json(sh.minimal.to_json());
  ASSERT_TRUE(back.has_value());
  const fi::RunReport again = fi::ScenarioRunner::run(*back);
  EXPECT_EQ(again.digest, sh.report.digest);
}

// ---- repro artifacts ----------------------------------------------------

TEST(Repro, ArtifactReplaysToIdenticalFailure) {
  const fi::Scenario s = double_deliver_scenario();
  const fi::RunReport r = fi::ScenarioRunner::run(s);
  ASSERT_TRUE(r.failed());
  const fi::ShrinkResult sh = fi::Shrinker::shrink(s, r);

  const std::string path = "repro_scenario_test.json";
  ASSERT_TRUE(fi::write_repro(path, sh.minimal, sh.report));

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();

  // The artifact parses back to the exact minimal scenario...
  std::string err;
  const auto parsed = fi::Scenario::from_json(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(*parsed, sh.minimal);

  // ...carries the recorded outcome...
  const auto expect = fi::parse_repro_expect(text);
  ASSERT_TRUE(expect.has_value());
  EXPECT_TRUE(expect->failed);
  EXPECT_EQ(expect->signature, sh.report.failure_signature());
  EXPECT_EQ(expect->digest, sh.report.digest);

  // ...and re-runs to the identical failure, bit for bit.
  const fi::RunReport replay = fi::ScenarioRunner::run(*parsed);
  EXPECT_EQ(replay.failure_signature(), expect->signature);
  EXPECT_EQ(replay.digest, expect->digest);
  std::remove(path.c_str());
}

TEST(Repro, ExpectBlockAbsentFromPlainScenarioJson) {
  const fi::Scenario s = two_node_clean();
  EXPECT_FALSE(fi::parse_repro_expect(s.to_json()).has_value());
}

}  // namespace
}  // namespace myri
