// Epoch-versioned route control plane (DESIGN.md section 11).
//
// The mapper is the single source of truth for routes: every successful
// run bumps a route epoch, MAP_ROUTE chunks carry it, cards ack every
// chunk, and lagging nodes are repaired by retry, scrub probes or the
// announce a recovered card sends. These tests pin the repair machinery
// end to end: a node hung through a remap converges without manual
// intervention, dropped chunks are healed by ack retries, a node that
// exhausts the retry budget is picked up by scrub, and sends against a
// stale epoch are gated with kRecovering.
#include <gtest/gtest.h>

#include "gm/cluster.hpp"
#include "gm/node.hpp"
#include "mapper/failover.hpp"
#include "net/map_info.hpp"

namespace myri {
namespace {

gm::ClusterConfig ring4(mcp::McpMode mode) {
  gm::ClusterConfig cc;
  cc.nodes = 4;
  cc.fabric = net::FabricPreset::kRing;
  // Radix 3 = one host per switch: a true 4-switch ring with 4 trunks
  // (radix 8 would fold all 4 hosts onto one switch, leaving no trunks).
  cc.switch_ports = 3;
  cc.mode = mode;
  cc.seed = 11;
  return cc;
}

/// Bring the fabric up under the FailoverManager and wait for epoch 1.
void bring_up(gm::Cluster& cluster, mapper::FailoverManager& fm) {
  bool ok = false;
  fm.remap_now([&](bool r) { ok = r; });
  cluster.run_for(sim::msec(50));
  ASSERT_TRUE(ok);
  ASSERT_TRUE(fm.converged());
  ASSERT_EQ(fm.mapper().epoch(), 1u);
}

TEST(RouteEpoch, DistributionStampsEveryNodeWithTheEpoch) {
  gm::Cluster cluster(ring4(mcp::McpMode::kGm));
  mapper::FailoverManager fm(cluster);
  bring_up(cluster, fm);

  for (int i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.node(i).route_epoch(), 1u) << "node " << i;
    EXPECT_FALSE(cluster.node(i).routes_stale()) << "node " << i;
  }
  EXPECT_EQ(cluster.metrics().gauge("mapper.route_epoch").value(), 1);
  EXPECT_GE(cluster.metrics().histogram("fabric.route_converge_us").count(),
            1u);
  EXPECT_TRUE(fm.settled());
}

TEST(RouteEpoch, DroppedChunksAreHealedByAckRetry) {
  gm::Cluster cluster(ring4(mcp::McpMode::kGm));
  mapper::FailoverManager fm(cluster);
  // Node 3's card swallows the first two MAP_ROUTE packets it sees: the
  // initial chunk and the first retry. The second retry must land.
  cluster.node(3).mcp().drop_next_map_routes(2);
  bring_up(cluster, fm);

  EXPECT_EQ(cluster.node(3).route_epoch(), 1u);
  EXPECT_GE(fm.mapper().stats().route_retries, 2u);
  EXPECT_GE(cluster.metrics().counter("mapper.map_route_retries").value(),
            2u);
  EXPECT_EQ(fm.mapper().stats().repushes, 0u);  // retries healed it alone
}

TEST(RouteEpoch, ScrubRepairsANodeThatExhaustedItsRetryBudget) {
  gm::Cluster cluster(ring4(mcp::McpMode::kGm));
  mapper::FailoverManager fm(cluster);
  // Swallow the initial chunk and all six retry rounds: the distribution
  // gives up on node 3 and the remap completes without it. The periodic
  // scrub must then probe the laggard and re-push its table.
  cluster.node(3).mcp().drop_next_map_routes(7);
  bool ok = false;
  fm.remap_now([&](bool r) { ok = r; });
  cluster.run_for(sim::msec(40));
  ASSERT_TRUE(ok);
  EXPECT_FALSE(fm.converged());  // node 3 still behind at this point
  EXPECT_EQ(cluster.node(3).route_epoch(), 0u);

  cluster.run_for(sim::msec(400));  // scrub cadence is 50 ms
  EXPECT_TRUE(fm.converged());
  EXPECT_EQ(cluster.node(3).route_epoch(), 1u);
  EXPECT_GE(fm.mapper().stats().scrub_probes, 1u);
  EXPECT_GE(fm.mapper().stats().repushes, 1u);
  EXPECT_GE(cluster.metrics().counter("mapper.scrub_repairs").value(), 1u);
  EXPECT_TRUE(fm.settled());
}

TEST(RouteEpoch, NodeHungThroughARemapConvergesWithoutIntervention) {
  gm::Cluster cluster(ring4(mcp::McpMode::kFtgm));
  mapper::FailoverManager fm(cluster);
  bring_up(cluster, fm);

  // Node 2 wedges, then a trunk dies while it is down: the remap runs
  // without node 2 (its card cannot answer scouts) and distributes a new
  // epoch to the survivors.
  cluster.node(2).mcp().inject_hang("test");
  cluster.node(2).ftd().mark_fault_injected();
  cluster.run_for(sim::msec(5));
  cluster.topo().set_cable_down(cluster.fabric().trunk_cables()[0], true);
  cluster.run_for(sim::msec(400));
  EXPECT_GE(fm.mapper().epoch(), 2u);

  // FTD recovery restores node 2's table and announces its (now stale)
  // epoch; the mapper does not know the node, so it remaps and folds it
  // back in. No test code touches the control plane from here on.
  cluster.run_for(sim::sec(6));
  EXPECT_FALSE(cluster.node(2).mcp().hung());
  EXPECT_EQ(fm.mapper().interfaces().size(), 4u);
  EXPECT_TRUE(fm.converged());
  EXPECT_TRUE(fm.settled());
  const std::uint32_t epoch = fm.mapper().epoch();
  EXPECT_GE(epoch, 3u);
  for (int i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.node(i).route_epoch(), epoch) << "node " << i;
    EXPECT_FALSE(cluster.node(i).routes_stale()) << "node " << i;
  }
  EXPECT_EQ(cluster.metrics().gauge("mapper.route_epoch").value(),
            static_cast<std::int64_t>(epoch));
}

TEST(RouteEpoch, AnnounceRetryHealsThroughALossyWindow) {
  gm::Cluster cluster(ring4(mcp::McpMode::kFtgm));
  mapper::FailoverManager::Config fc;
  // Isolate the announce path: no census (scrub effectively off) and no
  // blind remap retries. If the fabric converges, the retried announce
  // did it — there is no other repair channel and no external trigger.
  fc.scrub_interval = sim::sec(1000);
  fc.max_remap_retries = 0;
  mapper::FailoverManager fm(cluster, fc);
  bring_up(cluster, fm);

  // Node 3 wedges; a trunk it is not adjacent to dies while it is down
  // (trunk 1 = sw1-sw2; node 3 reaches the mapper home directly over the
  // closing trunk). The remap runs without node 3: epoch 2, three nodes.
  cluster.node(3).mcp().inject_hang("test");
  cluster.node(3).ftd().mark_fault_injected();
  cluster.run_for(sim::msec(5));
  cluster.topo().set_cable_down(cluster.fabric().trunk_cables()[1], true);
  cluster.run_for(sim::msec(50));
  ASSERT_GE(fm.mapper().epoch(), 2u);
  ASSERT_FALSE(fm.mapper().has_row(3));

  // 100% loss across every link before the recovery announce goes out:
  // the first announce (and the first few retries) die on the wire.
  net::LinkFaults lossy;
  lossy.drop_prob = 1.0;
  cluster.topo().set_all_faults(lossy);
  for (int i = 0;
       i < 800 && cluster.node(3).mcp().stats().announces_sent == 0; ++i) {
    cluster.run_for(sim::msec(10));
  }
  ASSERT_GE(cluster.node(3).mcp().stats().announces_sent, 1u);
  cluster.run_for(sim::msec(40));  // a few backoff retries die too
  cluster.topo().set_all_faults(net::LinkFaults{});

  // The next retry rides a clean fabric; the mapper folds node 3 back in
  // with a remap. No cable event, no scrub, no test intervention.
  cluster.run_for(sim::msec(500));
  EXPECT_GE(cluster.node(3).mcp().stats().announce_retries, 1u);
  EXPECT_EQ(fm.mapper().interfaces().size(), 4u);
  EXPECT_GE(fm.mapper().epoch(), 3u);
  EXPECT_TRUE(fm.converged());
  EXPECT_TRUE(fm.settled());
  EXPECT_FALSE(fm.gave_up());
  EXPECT_EQ(cluster.node(3).route_epoch(), fm.mapper().epoch());
}

TEST(RouteEpoch, CensusProbeRescuesWhenEveryAnnounceIsLost) {
  gm::Cluster cluster(ring4(mcp::McpMode::kFtgm));
  mapper::FailoverManager::Config fc;
  fc.max_remap_retries = 0;  // isolate census: no blind remap retries
  mapper::FailoverManager fm(cluster, fc);
  bring_up(cluster, fm);

  cluster.node(3).mcp().inject_hang("test");
  cluster.node(3).ftd().mark_fault_injected();
  cluster.run_for(sim::msec(5));
  cluster.topo().set_cable_down(cluster.fabric().trunk_cables()[1], true);
  cluster.run_for(sim::msec(50));
  ASSERT_GE(fm.mapper().epoch(), 2u);
  ASSERT_FALSE(fm.mapper().has_row(3));

  // Hold the loss window through the card's ENTIRE announce budget: the
  // recovered node goes permanently silent from the card side.
  net::LinkFaults lossy;
  lossy.drop_prob = 1.0;
  cluster.topo().set_all_faults(lossy);
  for (int i = 0;
       i < 800 && cluster.node(3).mcp().stats().announces_sent == 0; ++i) {
    cluster.run_for(sim::msec(10));
  }
  ASSERT_GE(cluster.node(3).mcp().stats().announces_sent, 1u);
  for (int i = 0; i < 200 && cluster.node(3).mcp().announce_pending(); ++i) {
    cluster.run_for(sim::msec(10));
  }
  cluster.run_for(sim::msec(200));  // the last armed retry fires and dies
  ASSERT_FALSE(cluster.node(3).mcp().announce_pending());
  cluster.topo().set_all_faults(net::LinkFaults{});

  // Only the mapper-side census probe can reach across now: scrub probes
  // the roster node missing from the map at its last known route, the
  // answer counts as progress, and a remap folds the node back in.
  cluster.run_for(sim::sec(1));
  EXPECT_GE(fm.mapper().stats().census_probes, 1u);
  EXPECT_GE(cluster.metrics().counter("mapper.census_probes").value(), 1u);
  EXPECT_EQ(fm.mapper().interfaces().size(), 4u);
  EXPECT_TRUE(fm.converged());
  EXPECT_TRUE(fm.settled());
  EXPECT_EQ(cluster.node(3).route_epoch(), fm.mapper().epoch());
}

TEST(RouteEpoch, CensusRederivesRoutesWhenTheFrozenRouteIsDead) {
  // PR-5 residual (b): census probes used to ride the route frozen at the
  // last epoch that contained the node. Here that route crosses trunk 3
  // (sw3-sw0, the home-side shortcut to node 3), which dies while node 3
  // is hung — the frozen bytes lead into the dead cable forever, while a
  // perfectly good path around the ring (sw0-sw1-sw2-sw3) exists in the
  // current map. The node's own announces ride its equally stale mirror
  // route over the same dead trunk, so the re-derived census probe is the
  // only repair channel left.
  gm::Cluster cluster(ring4(mcp::McpMode::kFtgm));
  mapper::FailoverManager::Config fc;
  fc.max_remap_retries = 0;  // no blind remaps: only census may heal this
  mapper::FailoverManager fm(cluster, fc);
  bring_up(cluster, fm);

  cluster.node(3).mcp().inject_hang("test");
  cluster.node(3).ftd().mark_fault_injected();
  cluster.run_for(sim::msec(5));
  // Trunk 3 is sw3-sw0: the link the epoch-1 home->node3 route crosses.
  cluster.topo().set_cable_down(cluster.fabric().trunk_cables()[3], true);
  cluster.run_for(sim::msec(50));
  ASSERT_GE(fm.mapper().epoch(), 2u);
  ASSERT_FALSE(fm.mapper().has_row(3));

  // FTD recovery brings the card back; its announce dies in the dead
  // trunk. The census probe, re-derived from the current switch graph to
  // node 3's remembered attach point, goes the long way round and lands.
  cluster.run_for(sim::sec(8));
  EXPECT_GE(fm.mapper().stats().census_probes, 1u);
  EXPECT_FALSE(cluster.node(3).mcp().hung());
  EXPECT_EQ(fm.mapper().interfaces().size(), 4u);
  EXPECT_TRUE(fm.converged());
  EXPECT_TRUE(fm.settled());
  EXPECT_EQ(cluster.node(3).route_epoch(), fm.mapper().epoch());
}

TEST(RouteEpoch, ReturnedNodeFoldsInWithoutRediscovery) {
  // A node missing from the map that answers a census probe (or
  // announces) used to trigger a *full* remap — re-scouting the whole
  // fabric. Under sustained loss that is how remap storms perpetuate:
  // each re-scout can lose a different node's replies, which the next
  // census folds back in, forever. The answer already proves where the
  // node sits, so the mapper must graft it in at its recorded attach
  // point and push routes without running discovery again.
  gm::Cluster cluster(ring4(mcp::McpMode::kFtgm));
  mapper::FailoverManager::Config fc;
  fc.max_remap_retries = 0;  // no blind remaps: fold-in must do the work
  mapper::FailoverManager fm(cluster, fc);
  bring_up(cluster, fm);

  // Hang node 3, then remap while it is out: epoch 2 lacks it, but its
  // attach point (sw3, host port) is remembered from epoch 1.
  cluster.node(3).mcp().inject_hang("test");
  cluster.node(3).ftd().mark_fault_injected();
  cluster.run_for(sim::msec(5));
  bool ok = false;
  fm.remap_now([&](bool r) { ok = r; });
  cluster.run_for(sim::msec(50));
  ASSERT_TRUE(ok);
  ASSERT_FALSE(fm.mapper().has_row(3));
  const std::uint64_t runs_before = fm.mapper().stats().runs;

  // Recovery + census answer/announce: the node must come back via the
  // incremental graft — same discovery count, census_folds bumped, and
  // the new epoch distributed to everyone.
  cluster.run_for(sim::sec(8));
  EXPECT_FALSE(cluster.node(3).mcp().hung());
  EXPECT_GE(fm.mapper().stats().census_folds, 1u);
  EXPECT_EQ(fm.mapper().stats().runs, runs_before);
  EXPECT_EQ(fm.mapper().interfaces().size(), 4u);
  EXPECT_TRUE(fm.converged());
  EXPECT_TRUE(fm.settled());
  EXPECT_EQ(cluster.node(3).route_epoch(), fm.mapper().epoch());
}

TEST(RouteEpoch, PortSweepRescuesANodeNeverPresentInAnyMap) {
  // PR-5 residual (a): a roster node hung through *every* mapping run has
  // no last route and no attach point — the census used to skip it
  // silently, and once its announce budget was burnt inside a loss
  // window, nothing would ever reach it again. The unknown-port sweep
  // must knock on the dark switch ports and find it.
  gm::Cluster cluster(ring4(mcp::McpMode::kFtgm));
  mapper::FailoverManager::Config fc;
  fc.max_remap_retries = 0;  // isolate the sweep: no blind remap retries
  mapper::FailoverManager fm(cluster, fc);

  // Node 3 wedges before the fabric is ever mapped: epoch 1 knows the
  // switch it hangs off (scouts map sw3 via its trunks) but not the node.
  cluster.node(3).mcp().inject_hang("test");
  cluster.node(3).ftd().mark_fault_injected();
  cluster.run_for(sim::msec(1));
  bool ok = false;
  fm.remap_now([&](bool r) { ok = r; });
  cluster.run_for(sim::msec(50));
  ASSERT_TRUE(ok);
  ASSERT_EQ(fm.mapper().epoch(), 1u);
  ASSERT_FALSE(fm.mapper().has_row(3));

  // FTD recovery restores the card — but its driver mirror is empty (it
  // never received a single chunk), so it has no route to the mapper and
  // cannot announce: the node is permanently silent from its own side.
  for (int i = 0; i < 2000 && cluster.node(3).mcp().hung(); ++i) {
    cluster.run_for(sim::msec(10));
  }
  ASSERT_FALSE(cluster.node(3).mcp().hung());
  ASSERT_EQ(cluster.node(3).mcp().stats().announces_sent, 0u);

  // Only the sweep can cross now: sw3's host port has no neighbour in the
  // map, the scrub probes it, the card acks, and a remap folds it in.
  cluster.run_for(sim::sec(2));
  EXPECT_GE(fm.mapper().stats().census_sweep_probes, 1u);
  EXPECT_GE(cluster.metrics().counter("mapper.census_probes").value(), 1u);
  EXPECT_EQ(fm.mapper().interfaces().size(), 4u);
  EXPECT_TRUE(fm.converged());
  EXPECT_TRUE(fm.settled());
  EXPECT_EQ(cluster.node(3).route_epoch(), fm.mapper().epoch());
}

TEST(RouteEpoch, RecoveredCardAnnouncesEvenAtEpochZero) {
  gm::Cluster cluster(ring4(mcp::McpMode::kFtgm));
  mapper::FailoverManager::Config fc;
  fc.scrub_interval = sim::sec(1000);  // no census: the announce must do it
  fc.max_remap_retries = 0;
  mapper::FailoverManager fm(cluster, fc);

  // Node 3 wedges before the fabric is ever mapped: the first epoch never
  // sees it at all.
  cluster.node(3).mcp().inject_hang("test");
  cluster.node(3).ftd().mark_fault_injected();
  cluster.run_for(sim::msec(1));
  bool ok = false;
  fm.remap_now([&](bool r) { ok = r; });
  cluster.run_for(sim::msec(50));
  ASSERT_TRUE(ok);
  ASSERT_EQ(fm.mapper().epoch(), 1u);
  ASSERT_FALSE(fm.mapper().has_row(3));

  // The first epoch-1 chunk reached node 3's host mirror before the card
  // wedged: the driver knows who the mapper is and holds a partial mirror
  // (a route to the mapper host), but the epoch never completed — the
  // installed epoch is still 0. This used to mean "nothing to announce".
  auto to_mapper = cluster.fabric().route(3, 0);
  ASSERT_TRUE(to_mapper.has_value());
  const std::vector<net::RouteEntry> partial{{0, *to_mapper}};
  const auto bytes = net::RouteUpdate{1, 0, 2, partial}.encode();
  cluster.node(3).driver().map_route_update(net::RouteUpdateView(bytes), 0);
  ASSERT_EQ(cluster.node(3).route_epoch(), 0u);

  // Recovery restores the card at epoch 0. The announce must go out
  // anyway: the mapper never mapped this node, so no scrub or census
  // probe will ever look for it — the announce is the only way back in.
  // (hung() clears at the reload step; the announce only goes out at the
  // route-restore step ~600 ms later — poll for the announce itself.)
  for (int i = 0;
       i < 800 && cluster.node(3).mcp().stats().announces_sent == 0; ++i) {
    cluster.run_for(sim::msec(10));
  }
  ASSERT_FALSE(cluster.node(3).mcp().hung());
  cluster.run_for(sim::msec(500));
  EXPECT_GE(cluster.node(3).mcp().stats().announces_sent, 1u);
  EXPECT_EQ(fm.mapper().interfaces().size(), 4u);
  EXPECT_GE(fm.mapper().epoch(), 2u);
  EXPECT_TRUE(fm.converged());
  EXPECT_EQ(cluster.node(3).route_epoch(), fm.mapper().epoch());
}

TEST(RouteEpoch, StaleEpochGatesSendsWithRecovering) {
  gm::Cluster cluster(ring4(mcp::McpMode::kGm));
  mapper::FailoverManager fm(cluster);
  bring_up(cluster, fm);

  gm::Node& n1 = cluster.node(1);
  auto& port = n1.open_port(2);
  cluster.run_for(sim::usec(100));
  gm::Buffer b = port.alloc_dma_buffer(64);
  ASSERT_TRUE(port.post(b, 64, {.dst = 2, .dst_port = 3}).ok());
  cluster.run_for(sim::msec(2));

  // An epoch-2 probe tells node 1's driver a newer table exists that it
  // does not hold: the port must gate new work until the push lands.
  const auto probe = net::RouteUpdate{2, 0, 0, {}}.encode();
  n1.driver().map_route_update(net::RouteUpdateView(probe), 0);
  EXPECT_TRUE(n1.routes_stale());
  EXPECT_EQ(port.post(b, 64, {.dst = 2, .dst_port = 3}).code(),
            gm::Status::kRecovering);

  // The full epoch-2 table arrives (one chunk): the gate lifts.
  std::vector<net::RouteEntry> table;
  n1.driver().route_mirror().for_each(
      [&](net::NodeId dst, const net::Route& route) {
        table.push_back({dst, route});
      });
  const auto push = net::RouteUpdate{2, 0, 1, table}.encode();
  n1.driver().map_route_update(net::RouteUpdateView(push), 0);
  EXPECT_FALSE(n1.routes_stale());
  EXPECT_EQ(n1.route_epoch(), 2u);
  EXPECT_TRUE(port.post(b, 64, {.dst = 2, .dst_port = 3}).ok());
  cluster.run_for(sim::msec(2));
}

TEST(RouteEpoch, StaleChunksFromAnOlderEpochAreIgnored) {
  gm::Cluster cluster(ring4(mcp::McpMode::kGm));
  mapper::FailoverManager fm(cluster);
  bring_up(cluster, fm);

  gm::Node& n1 = cluster.node(1);
  ASSERT_EQ(n1.route_epoch(), 1u);
  // A delayed epoch-0-style replay (epoch below installed) must neither
  // regress the epoch nor mark the node stale.
  const std::vector<net::RouteEntry> old{{9, {1, 2}}};
  const auto replay = net::RouteUpdate{0, 0, 1, old}.encode();
  n1.driver().map_route_update(net::RouteUpdateView(replay), 0);
  EXPECT_EQ(n1.route_epoch(), 1u);
  EXPECT_FALSE(n1.routes_stale());
  EXPECT_FALSE(n1.driver().route_mirror().contains(9));
}

}  // namespace
}  // namespace myri
