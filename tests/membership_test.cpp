// Elastic cluster membership (DESIGN.md section 13).
//
// The versioned gm::Roster is the single source of truth for who is
// expected on the fabric; Cluster::add_node / drain_node / replace_node
// mutate it under traffic, and the FailoverManager folds every roster
// delta into the route control plane: a clean join converges via census
// fold-in (no full remap), a retirement evicts the node from the map and
// the cross-epoch caches, a replacement re-pushes the table to the spare.
#include <gtest/gtest.h>

#include <stdexcept>

#include "faultinject/scenario.hpp"
#include "gm/cluster.hpp"
#include "gm/node.hpp"
#include "gm/roster.hpp"
#include "mapper/failover.hpp"
#include "net/fabric.hpp"

namespace myri {
namespace {

// ---- the roster itself -------------------------------------------------

TEST(Roster, MutationsBumpTheEpochAndAppendHistory) {
  gm::Roster r;
  r.seed({0, 1, 2}, 0);
  EXPECT_EQ(r.epoch(), 1u);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.is_member(1));

  r.join(3, sim::usec(10));
  EXPECT_EQ(r.epoch(), 2u);
  EXPECT_TRUE(r.is_member(3));

  r.drain(1, sim::usec(20));
  EXPECT_EQ(r.epoch(), 3u);
  EXPECT_TRUE(r.is_member(1));  // draining nodes are still members
  EXPECT_TRUE(r.is_draining(1));
  r.drain(1, sim::usec(21));  // idempotent: no epoch bump
  EXPECT_EQ(r.epoch(), 3u);

  r.retire(1, sim::usec(30));
  EXPECT_EQ(r.epoch(), 4u);
  EXPECT_FALSE(r.is_member(1));
  EXPECT_FALSE(r.is_draining(1));

  r.replace(2, sim::usec(40));
  EXPECT_EQ(r.epoch(), 5u);
  EXPECT_TRUE(r.is_member(2));

  EXPECT_EQ(r.members(), (std::vector<net::NodeId>{0, 2, 3}));
  // 3 seed entries + join + drain + retire + replace.
  EXPECT_EQ(r.history().size(), 7u);
  EXPECT_EQ(r.history().back().kind, gm::MembershipChange::kReplace);
  EXPECT_EQ(r.history().back().epoch, 5u);
}

TEST(Roster, MembersAtReplaysTheTimeline) {
  gm::Roster r;
  r.seed({0, 1}, 0);
  r.join(2, sim::msec(1));
  r.drain(1, sim::msec(2));
  r.retire(1, sim::msec(3));

  EXPECT_EQ(r.members_at(0), (std::vector<net::NodeId>{0, 1}));
  EXPECT_EQ(r.members_at(sim::msec(1)), (std::vector<net::NodeId>{0, 1, 2}));
  // Draining is not absence.
  EXPECT_EQ(r.members_at(sim::msec(2)), (std::vector<net::NodeId>{0, 1, 2}));
  EXPECT_EQ(r.members_at(sim::msec(3)), (std::vector<net::NodeId>{0, 2}));
}

TEST(Roster, RejectsContradictoryMutations) {
  gm::Roster r;
  r.seed({0, 1}, 0);
  EXPECT_THROW(r.seed({5}, 0), std::logic_error);
  EXPECT_THROW(r.join(1, 0), std::invalid_argument);
  EXPECT_THROW(r.drain(7, 0), std::invalid_argument);
  EXPECT_THROW(r.retire(7, 0), std::invalid_argument);
  EXPECT_THROW(r.replace(7, 0), std::invalid_argument);
}

TEST(Roster, ObserverSeesEveryDelta) {
  gm::Roster r;
  std::vector<gm::MembershipChange> seen;
  r.seed({0}, 0);  // seeding does not fire the observer
  r.set_observer([&](const gm::RosterEvent& ev) { seen.push_back(ev.kind); });
  r.join(1, 0);
  r.drain(1, 0);
  r.retire(1, 0);
  EXPECT_EQ(seen, (std::vector<gm::MembershipChange>{
                      gm::MembershipChange::kJoin,
                      gm::MembershipChange::kDrain,
                      gm::MembershipChange::kRetire}));
}

// ---- fabric free-port reservation --------------------------------------

TEST(Membership, FabricReservesFreePortsInDeterministicOrder) {
  sim::EventQueue eq;
  sim::Rng rng(1);
  net::Topology topo(eq, rng);
  net::FabricBuilder fb(topo, {net::FabricPreset::kSingleSwitch, 2, 8});
  EXPECT_EQ(fb.free_ports(), 6u);
  const auto p = fb.reserve_port();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(fb.free_ports(), 5u);
  EXPECT_EQ(fb.placements().size(), 3u);
  EXPECT_EQ(fb.placements().back().sw, p->sw);
  EXPECT_EQ(fb.placements().back().port, p->port);
}

TEST(Membership, AddNodeThrowsOnAFullFabric) {
  gm::ClusterConfig cc;
  cc.nodes = 4;
  cc.fabric = net::FabricPreset::kRing;
  cc.switch_ports = 3;  // 2 trunks + 1 host per switch: zero free ports
  gm::Cluster cluster(cc);
  EXPECT_EQ(cluster.fabric().free_ports(), 0u);
  EXPECT_THROW(cluster.add_node(), std::runtime_error);
}

// ---- cluster membership under the FailoverManager ----------------------

gm::ClusterConfig ring4(mcp::McpMode mode, std::uint8_t radix = 3) {
  gm::ClusterConfig cc;
  cc.nodes = 4;
  cc.fabric = net::FabricPreset::kRing;
  cc.switch_ports = radix;
  cc.mode = mode;
  cc.seed = 11;
  return cc;
}

void bring_up(gm::Cluster& cluster, mapper::FailoverManager& fm) {
  bool ok = false;
  fm.remap_now([&](bool r) { ok = r; });
  cluster.run_for(sim::msec(50));
  ASSERT_TRUE(ok);
  ASSERT_TRUE(fm.fully_converged());
  ASSERT_EQ(fm.mapper().epoch(), 1u);
}

TEST(Membership, HotAddFoldsInWithoutAFullRemap) {
  // Radix 5 packs 4 nodes onto 2 ring switches with free ports left over
  // for the joiner (radix 3 and 4 build out exactly full).
  gm::Cluster cluster(ring4(mcp::McpMode::kGm, 5));
  mapper::FailoverManager fm(cluster);
  bring_up(cluster, fm);
  const std::uint64_t runs = fm.mapper().stats().runs;
  const std::uint32_t epoch = fm.mapper().epoch();

  const net::NodeId id = cluster.add_node();
  EXPECT_EQ(id, 4);
  EXPECT_EQ(cluster.size(), 5);
  EXPECT_EQ(cluster.roster().epoch(), 2u);
  EXPECT_TRUE(cluster.roster().is_member(4));
  EXPECT_EQ(cluster.metrics().gauge("cluster.membership_epoch").value(), 2);
  EXPECT_EQ(cluster.metrics().counter("mapper.joins").value(), 1u);

  cluster.run_for(sim::msec(500));
  // The join converged via census fold-in at the recorded attach point:
  // one route-epoch bump, zero new discovery floods.
  EXPECT_EQ(fm.mapper().stats().runs, runs);
  EXPECT_GE(fm.mapper().stats().census_folds, 1u);
  EXPECT_EQ(fm.mapper().epoch(), epoch + 1);
  EXPECT_TRUE(fm.fully_converged());
  EXPECT_EQ(cluster.node(4).route_epoch(), fm.mapper().epoch());

  // And the joiner serves traffic both ways.
  gm::Port& rx = cluster.node(4).open_port(2, {});
  int got = 0;
  rx.set_receive_handler([&](const gm::RecvInfo&) { ++got; });
  rx.provide_receive_buffer(rx.alloc_dma_buffer(512));
  gm::Port& tx = cluster.node(1).open_port(2, {});
  cluster.run_for(sim::msec(2));
  const gm::Buffer b = tx.alloc_dma_buffer(256);
  ASSERT_TRUE(tx.post(b, 256, {.dst = 4, .dst_port = 2}).ok());
  cluster.run_for(sim::msec(10));
  EXPECT_EQ(got, 1);
}

TEST(Membership, DrainGatesNewStreamsFinishesInFlightAndRetires) {
  gm::Cluster cluster(ring4(mcp::McpMode::kGm));
  mapper::FailoverManager fm(cluster);
  bring_up(cluster, fm);
  EXPECT_EQ(fm.mapper().tracked_attach_points(), 4u);

  gm::Port& rx = cluster.node(3).open_port(2, {});
  int got = 0;
  rx.set_receive_handler([&](const gm::RecvInfo& info) {
    ++got;
    rx.provide_receive_buffer(info.buffer);
  });
  rx.provide_receive_buffer(rx.alloc_dma_buffer(512));
  gm::Port& tx1 = cluster.node(1).open_port(2, {});
  gm::Port& tx0 = cluster.node(0).open_port(2, {});
  cluster.run_for(sim::msec(2));

  // Node 1 establishes a stream to node 3 before the drain starts.
  const gm::Buffer b1 = tx1.alloc_dma_buffer(256);
  ASSERT_TRUE(tx1.post(b1, 256, {.dst = 3, .dst_port = 2}).ok());
  cluster.run_for(sim::msec(2));

  bool retired = false;
  cluster.drain_node(3, sim::msec(5),
                     [&](net::NodeId x) { retired = x == 3; });
  EXPECT_TRUE(cluster.roster().is_draining(3));
  EXPECT_EQ(cluster.metrics().counter("mapper.drains").value(), 1u);

  // A port with no established stream to the victim is refused...
  const gm::Buffer b0 = tx0.alloc_dma_buffer(256);
  EXPECT_EQ(tx0.post(b0, 256, {.dst = 3, .dst_port = 2}).code(),
            gm::Status::kDraining);
  // ...while the in-flight conversation keeps its admission (and must
  // deliver exactly-once).
  ASSERT_TRUE(tx1.post(b1, 256, {.dst = 3, .dst_port = 2}).ok());

  cluster.run_for(sim::msec(200));
  EXPECT_TRUE(retired);
  EXPECT_FALSE(cluster.roster().is_member(3));
  EXPECT_EQ(cluster.roster().epoch(), 3u);  // drain + retire
  EXPECT_EQ(got, 2);

  // Retirement bounds the mapper's cross-epoch caches: the attach point
  // and route memory of the retired node are evicted, not kept forever.
  EXPECT_EQ(fm.mapper().tracked_attach_points(), 3u);
  EXPECT_FALSE(fm.mapper().has_row(3));
  EXPECT_TRUE(fm.fully_converged());
}

TEST(Membership, ReplaceHandsTheNodeIdToASpareThatServesTraffic) {
  gm::Cluster cluster(ring4(mcp::McpMode::kGm));
  mapper::FailoverManager fm(cluster);
  bring_up(cluster, fm);

  // kGm has no watchdog: the wedged card would stay dead forever.
  cluster.node(2).mcp().inject_hang("membership test");
  cluster.run_for(sim::msec(10));

  gm::Node& spare = cluster.replace_node(2);
  EXPECT_EQ(&cluster.node(2), &spare);
  EXPECT_EQ(spare.id(), 2);
  EXPECT_TRUE(cluster.roster().is_member(2));
  EXPECT_EQ(cluster.roster().epoch(), 2u);
  EXPECT_EQ(cluster.metrics().counter("mapper.replaces").value(), 1u);

  // The fresh card holds no routes; the mapper re-pushes the current
  // table to it (same epoch — the fabric did not change shape).
  cluster.run_for(sim::msec(300));
  EXPECT_EQ(cluster.node(2).route_epoch(), fm.mapper().epoch());
  EXPECT_FALSE(cluster.node(2).mcp().hung());

  gm::Port& rx = spare.open_port(2, {});
  int got = 0;
  rx.set_receive_handler([&](const gm::RecvInfo&) { ++got; });
  rx.provide_receive_buffer(rx.alloc_dma_buffer(512));
  gm::Port& tx = cluster.node(0).open_port(2, {});
  cluster.run_for(sim::msec(2));
  const gm::Buffer b = tx.alloc_dma_buffer(256);
  ASSERT_TRUE(tx.post(b, 256, {.dst = 2, .dst_port = 2}).ok());
  cluster.run_for(sim::msec(10));
  EXPECT_EQ(got, 1);
}

// ---- scenario-level roster timeline ------------------------------------

TEST(MembershipScenario, ExpectedUpReplaysTheMembershipTimeline) {
  fi::Scenario s;
  s.nodes = 6;
  s.fabric = net::FabricPreset::kFatTree;
  using K = fi::ScenarioEvent::Kind;

  fi::ScenarioEvent drain;
  drain.kind = K::kNodeDrain;
  drain.node = 2;
  drain.at = fi::Scenario::kWarmup + sim::msec(1);
  fi::ScenarioEvent join;
  join.kind = K::kNodeJoin;
  join.at = fi::Scenario::kWarmup + sim::msec(2);
  // kGm: the hang excuses node 3 for good... unless the later replace
  // swaps in a spare, which is expected back up.
  s.mode = mcp::McpMode::kGm;
  fi::ScenarioEvent hang;
  hang.kind = K::kNicHang;
  hang.node = 3;
  hang.at = fi::Scenario::kWarmup + sim::msec(3);
  fi::ScenarioEvent repl;
  repl.kind = K::kNodeReplace;
  repl.node = 3;
  repl.at = fi::Scenario::kWarmup + sim::msec(4);
  s.events = {drain, join, hang, repl};

  const std::vector<net::NodeId> up = s.expected_up_at_horizon();
  // Drained node 2 is expected retired; replaced node 3 is expected back;
  // the joiner takes id 6.
  EXPECT_EQ(up, (std::vector<net::NodeId>{0, 1, 3, 4, 5, 6}));
}

TEST(MembershipScenario, MembershipKindsRoundTripThroughJson) {
  fi::Scenario s;
  s.nodes = 4;
  s.fabric = net::FabricPreset::kRing;
  s.radix = 5;  // free ports for the join (radix 4 builds out full)
  using K = fi::ScenarioEvent::Kind;
  fi::ScenarioEvent join;
  join.kind = K::kNodeJoin;
  join.at = fi::Scenario::kWarmup + sim::msec(1);
  fi::ScenarioEvent drain;
  drain.kind = K::kNodeDrain;
  drain.node = 2;
  drain.at = fi::Scenario::kWarmup + sim::msec(2);
  fi::ScenarioEvent repl;
  repl.kind = K::kNodeReplace;
  repl.node = 1;
  repl.at = fi::Scenario::kWarmup + sim::msec(3);
  s.events = {join, drain, repl};

  std::string err;
  const auto back = fi::Scenario::from_json(s.to_json(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(*back, s);
}

TEST(Membership, SustainedChurnRecyclesPortsAndBoundsMapperCaches) {
  // 100 join/drain cycles on a ring that only has two spare ports: from
  // cycle three on, every join reuses a port an earlier retirement handed
  // back (Fabric::release_port), and the mapper's cross-epoch caches must
  // stay bounded by live membership — the exact leak the soak drift
  // oracle bounds, pinned here as a plain regression test.
  gm::Cluster cluster(ring4(mcp::McpMode::kGm, 5));
  mapper::FailoverManager fm(cluster);
  bring_up(cluster, fm);

  for (int cycle = 0; cycle < 100; ++cycle) {
    const net::NodeId id = cluster.add_node();
    EXPECT_EQ(id, static_cast<net::NodeId>(4 + cycle));
    cluster.run_for(sim::msec(30));
    bool retired = false;
    cluster.drain_node(id, sim::msec(2),
                       [&](net::NodeId x) { retired = x == id; });
    cluster.run_for(sim::msec(50));
    ASSERT_TRUE(retired) << "cycle " << cycle;
    ASSERT_FALSE(cluster.roster().is_member(id)) << "cycle " << cycle;
  }

  // Back to the four seed members after 100 transient joiners...
  EXPECT_EQ(cluster.roster().members().size(), 4u);
  EXPECT_EQ(cluster.metrics().counter("mapper.joins").value(), 100u);
  EXPECT_EQ(cluster.metrics().counter("mapper.drains").value(), 100u);
  // ...and the mapper forgot every one of them: attach-point and route
  // caches track live members, not churn history.
  EXPECT_LE(fm.mapper().tracked_attach_points(), 4u);
  EXPECT_LE(fm.mapper().tracked_routes(), 4u);
  EXPECT_FALSE(fm.mapper().has_row(103));
  EXPECT_TRUE(fm.fully_converged());
}

TEST(MembershipScenario, ValidationRejectsImpossibleSchedules) {
  fi::Scenario s;
  s.nodes = 4;
  s.fabric = net::FabricPreset::kRing;
  s.radix = 4;
  fi::ScenarioEvent drain;
  drain.kind = fi::ScenarioEvent::Kind::kNodeDrain;
  drain.node = 0;  // the mapper home must not drain
  drain.at = fi::Scenario::kWarmup;
  s.events = {drain};
  std::string err;
  EXPECT_FALSE(fi::Scenario::from_json(s.to_json(), &err).has_value());
  EXPECT_NE(err.find("node 0"), std::string::npos);

  // A radix-3 ring has zero free ports: joins past capacity are rejected.
  fi::Scenario full;
  full.nodes = 4;
  full.fabric = net::FabricPreset::kRing;
  full.radix = 3;
  fi::ScenarioEvent join;
  join.kind = fi::ScenarioEvent::Kind::kNodeJoin;
  join.at = fi::Scenario::kWarmup;
  full.events = {join};
  EXPECT_FALSE(fi::Scenario::from_json(full.to_json(), &err).has_value());
  EXPECT_NE(err.find("free port"), std::string::npos);
}

}  // namespace
}  // namespace myri
