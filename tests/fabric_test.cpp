// FabricBuilder presets: capacity math, placement, route discovery and
// multi-switch clusters (the paper's testbed scaled past one M3M-SW8).
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <stdexcept>
#include <string>

#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "mapper/mapper.hpp"
#include "net/fabric.hpp"

namespace myri {
namespace {

using gm::Cluster;
using gm::ClusterConfig;
using net::FabricBuilder;
using net::FabricConfig;
using net::FabricPreset;

FabricConfig make(FabricPreset p, int nodes, std::uint8_t radix = 8) {
  FabricConfig fc;
  fc.preset = p;
  fc.nodes = nodes;
  fc.radix = radix;
  return fc;
}

TEST(Fabric, PresetNamesRoundTrip) {
  for (const auto p : {FabricPreset::kSingleSwitch, FabricPreset::kLine,
                       FabricPreset::kRing, FabricPreset::kFatTree,
                       FabricPreset::kFatTree3}) {
    const auto back = net::parse_fabric_preset(net::to_string(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(net::parse_fabric_preset("torus").has_value());
  // The common unhyphenated spelling is accepted too.
  EXPECT_EQ(net::parse_fabric_preset("fattree"), FabricPreset::kFatTree);
}

TEST(Fabric, CapacityPerPreset) {
  EXPECT_EQ(FabricBuilder::capacity(make(FabricPreset::kSingleSwitch, 1, 8)),
            8u);
  EXPECT_EQ(FabricBuilder::capacity(make(FabricPreset::kLine, 1, 2)), 0u);
  EXPECT_EQ(FabricBuilder::capacity(make(FabricPreset::kFatTree, 1, 8)),
            4u * 255u);
  // Over-capacity configs are rejected at build time.
  sim::EventQueue eq;
  sim::Rng rng(1);
  net::Topology topo(eq, rng);
  EXPECT_THROW(FabricBuilder(topo, make(FabricPreset::kSingleSwitch, 9, 8)),
               std::invalid_argument);
}

TEST(Fabric, SingleSwitchPlacementMatchesSeedTestbed) {
  sim::EventQueue eq;
  sim::Rng rng(1);
  net::Topology topo(eq, rng);
  FabricBuilder fb(topo, make(FabricPreset::kSingleSwitch, 4));
  EXPECT_EQ(fb.num_switches(), 1u);
  EXPECT_EQ(fb.tiers(), 1);
  EXPECT_TRUE(fb.trunk_cables().empty());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(fb.placements()[i].port, i);
  }
  // One route byte: the destination's host port.
  auto r = fb.route(0, 3);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, std::vector<std::uint8_t>{3});
}

TEST(Fabric, FatTreeShape64Nodes) {
  sim::EventQueue eq;
  sim::Rng rng(1);
  net::Topology topo(eq, rng);
  FabricBuilder fb(topo, make(FabricPreset::kFatTree, 64, 8));
  // 16 leaves of 4 hosts each + 4 spines; every leaf trunks to every spine.
  EXPECT_EQ(fb.num_switches(), 20u);
  EXPECT_EQ(fb.trunk_cables().size(), 16u * 4u);
  EXPECT_EQ(fb.tiers(), 3);
  EXPECT_EQ(fb.placements().size(), 64u);
}

TEST(Fabric, FatTreeEveryPairReachableAtTierLength) {
  sim::EventQueue eq;
  sim::Rng rng(1);
  net::Topology topo(eq, rng);
  FabricBuilder fb(topo, make(FabricPreset::kFatTree, 64, 8));
  const int hosts_per_leaf = 4;
  for (int a = 0; a < 64; ++a) {
    for (int b = 0; b < 64; ++b) {
      if (a == b) continue;
      auto r = fb.route(static_cast<net::NodeId>(a),
                        static_cast<net::NodeId>(b));
      ASSERT_TRUE(r) << a << "->" << b;
      // Same leaf: one byte (host port). Cross leaf: leaf-spine-leaf, so
      // exactly tiers() bytes — one per traversed switch.
      const bool same_leaf = a / hosts_per_leaf == b / hosts_per_leaf;
      EXPECT_EQ(r->size(), same_leaf ? 1u : 3u) << a << "->" << b;
      EXPECT_LE(r->size(), static_cast<std::size_t>(fb.tiers()));
      EXPECT_EQ(r->back(), b % hosts_per_leaf);
    }
  }
}

TEST(Fabric, RingRoutesWrapTheShortWay) {
  sim::EventQueue eq;
  sim::Rng rng(1);
  net::Topology topo(eq, rng);
  // 12 nodes, radix 4 => 2 hosts/switch, 6 switches in a loop.
  FabricBuilder fb(topo, make(FabricPreset::kRing, 12, 4));
  EXPECT_EQ(fb.num_switches(), 6u);
  EXPECT_EQ(fb.trunk_cables().size(), 6u);
  // Worst case: opposite side of the loop, 3 trunk hops + the host switch.
  EXPECT_EQ(fb.tiers(), 4);
  auto near = fb.route(0, 2);  // adjacent switches
  ASSERT_TRUE(near);
  EXPECT_EQ(near->size(), 2u);
  auto far = fb.route(0, 6);  // opposite side
  ASSERT_TRUE(far);
  EXPECT_EQ(far->size(), 4u);
  // Wrapping backwards (sw0 -> sw5) must not walk the long way round.
  auto wrap = fb.route(0, 10);
  ASSERT_TRUE(wrap);
  EXPECT_EQ(wrap->size(), 2u);
}

// Antipodal ring pairs have two shortest routes; the tie-break is the
// neighbour order the BFS visits. The builder keeps its insertion order
// (switch k >= 1 lists its prev trunk, port 3, before its next trunk,
// port 2; switch 0 lists next before prev), the mapper keeps ascending
// port order. The two orders agree leaving switch 0 and disagree leaving
// switch 3, so both directions are pinned for both callers.
TEST(Fabric, RingAntipodalTieBreakPinnedForBuilderAndMapper) {
  ClusterConfig cc;
  cc.nodes = 12;
  cc.fabric = FabricPreset::kRing;
  cc.switch_ports = 4;
  cc.install_routes = false;
  Cluster cluster(cc);
  using Bytes = std::vector<std::uint8_t>;
  EXPECT_EQ(cluster.fabric().route(0, 6), (Bytes{2, 2, 2, 0}));
  EXPECT_EQ(cluster.fabric().route(6, 0), (Bytes{3, 3, 3, 0}));
  mapper::Mapper m(cluster.node(0));
  bool ok = false;
  m.run([&](bool r) { ok = r; });
  cluster.run_until_idle();
  ASSERT_TRUE(ok);
  EXPECT_EQ(m.route_between(0, 6), (Bytes{2, 2, 2, 0}));
  EXPECT_EQ(m.route_between(6, 0), (Bytes{2, 2, 2, 0}));
}

TEST(Fabric, FatTree3CrossPodRoutePinnedForBuilderAndMapper) {
  // Radix 4: 4 hosts per pod, node 13 in pod 3. Edge, agg and core
  // neighbour lists are built in port order, so both callers agree.
  ClusterConfig cc;
  cc.nodes = 16;
  cc.fabric = FabricPreset::kFatTree3;
  cc.switch_ports = 4;
  cc.install_routes = false;
  Cluster cluster(cc);
  using Bytes = std::vector<std::uint8_t>;
  EXPECT_EQ(cluster.fabric().route(0, 13), (Bytes{2, 2, 3, 0, 1}));
  EXPECT_EQ(cluster.fabric().route(13, 0), (Bytes{2, 2, 0, 0, 0}));
  mapper::Mapper m(cluster.node(0));
  bool ok = false;
  m.run([&](bool r) { ok = r; });
  cluster.run_until_idle();
  ASSERT_TRUE(ok);
  EXPECT_EQ(m.route_between(0, 13), (Bytes{2, 2, 3, 0, 1}));
  EXPECT_EQ(m.route_between(13, 0), (Bytes{2, 2, 0, 0, 0}));
}

TEST(Fabric, LineHasNoWrapAround) {
  sim::EventQueue eq;
  sim::Rng rng(1);
  net::Topology topo(eq, rng);
  FabricBuilder fb(topo, make(FabricPreset::kLine, 12, 4));
  EXPECT_EQ(fb.trunk_cables().size(), 5u);  // 6 switches, open chain
  auto end_to_end = fb.route(0, 10);
  ASSERT_TRUE(end_to_end);
  EXPECT_EQ(end_to_end->size(), 6u);  // all six switches traversed
}

TEST(Fabric, ClusterTrafficCrossesTheFatTree) {
  ClusterConfig cc;
  cc.nodes = 16;
  cc.fabric = FabricPreset::kFatTree;
  Cluster cluster(cc);
  ASSERT_EQ(cluster.fabric().num_switches(), 8u);  // 4 leaves + 4 spines

  // Stream between nodes on different leaves: traffic must cross a spine.
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(15).open_port(3);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 20;
  wc.msg_len = 1024;
  fi::StreamWorkload wl(tx, rx, wc);
  cluster.run_for(sim::usec(900));
  wl.start();
  cluster.run_for(sim::msec(50));
  EXPECT_TRUE(wl.complete());
  EXPECT_EQ(wl.duplicates(), 0);
}

TEST(Fabric, MapperDiscoversTheBuiltFatTree) {
  ClusterConfig cc;
  cc.nodes = 16;
  cc.fabric = FabricPreset::kFatTree;
  cc.install_routes = false;  // the mapper is the only source of routes
  Cluster cluster(cc);
  mapper::Mapper m(cluster.node(0));
  bool ok = false;
  m.run([&](bool r) { ok = r; });
  cluster.run_until_idle();
  ASSERT_TRUE(ok);
  EXPECT_EQ(m.num_switches(), cluster.fabric().num_switches());
  EXPECT_EQ(m.interfaces().size(), 16u);
  for (net::NodeId b = 1; b < 16; ++b) {
    auto r = m.route_between(0, b);
    ASSERT_TRUE(r) << "0->" << int(b);
    EXPECT_LE(r->size(),
              static_cast<std::size_t>(cluster.fabric().tiers()));
  }
}

TEST(Fabric, FatTree3Shape512Nodes) {
  // Radix-16 k-ary fat-tree: 8 pods in use for 512 nodes (128 hosts per
  // pod), 16 switches per pod plus the 64-core spine grid.
  sim::EventQueue eq;
  sim::Rng rng(1);
  net::Topology topo(eq, rng);
  FabricBuilder fb(topo, make(FabricPreset::kFatTree3, 512, 16));
  EXPECT_EQ(FabricBuilder::capacity(make(FabricPreset::kFatTree3, 1, 16)),
            1024u);
  EXPECT_EQ(fb.num_switches(), 8u * 16u + 64u);
  EXPECT_EQ(fb.trunk_cables().size(), 8u * 8u * 8u * 2u);
  EXPECT_EQ(fb.tiers(), 5);  // edge-agg-core-agg-edge worst case
  // Every endpoint got a distinct (switch, port) plug.
  std::set<std::pair<std::uint16_t, std::uint8_t>> plugs;
  for (const auto& p : fb.placements()) plugs.insert({p.sw, p.port});
  EXPECT_EQ(plugs.size(), 512u);
}

TEST(Fabric, FatTree3RoutesReachEveryPairWithinFiveHops) {
  sim::EventQueue eq;
  sim::Rng rng(1);
  net::Topology topo(eq, rng);
  FabricBuilder fb(topo, make(FabricPreset::kFatTree3, 128, 8));
  for (net::NodeId a = 0; a < 128; a = static_cast<net::NodeId>(a + 17)) {
    const auto rows = fb.routes_from(a);
    for (net::NodeId b = 0; b < 128; ++b) {
      if (a == b) continue;
      ASSERT_FALSE(rows[b].empty()) << int(a) << "->" << int(b);
      EXPECT_LE(rows[b].size(), 5u);
      // The batch derivation must agree with the per-pair BFS.
      const auto single = fb.route(a, b);
      ASSERT_TRUE(single.has_value());
      EXPECT_EQ(rows[b], *single) << int(a) << "->" << int(b);
    }
  }
}

TEST(Fabric, RoutesFromMatchesRoutePerPairOnEveryPreset) {
  for (const auto p : {FabricPreset::kSingleSwitch, FabricPreset::kLine,
                       FabricPreset::kRing, FabricPreset::kFatTree}) {
    sim::EventQueue eq;
    sim::Rng rng(1);
    net::Topology topo(eq, rng);
    FabricBuilder fb(topo, make(p, 6, 8));
    for (net::NodeId a = 0; a < 6; ++a) {
      const auto rows = fb.routes_from(a);
      for (net::NodeId b = 0; b < 6; ++b) {
        const auto single = fb.route(a, b);
        if (a == b) {
          EXPECT_TRUE(rows[b].empty());
        } else {
          ASSERT_TRUE(single.has_value());
          EXPECT_EQ(rows[b], *single) << net::to_string(p);
        }
      }
    }
  }
}

TEST(Fabric, PlanCountsMatchTheBuiltFabricOnEveryPreset) {
  // Scenario generation and validation count trunk cables and free ports
  // on the plan alone; the built fabric must agree, switch by switch and
  // endpoint by endpoint, for every preset over a sweep of sizes and
  // radices (an unsatisfiable config is refused by both).
  int built = 0;
  for (const auto p : {FabricPreset::kSingleSwitch, FabricPreset::kLine,
                       FabricPreset::kRing, FabricPreset::kFatTree,
                       FabricPreset::kFatTree3}) {
    for (const int radix : {2, 3, 4, 5, 6, 8, 10, 16}) {
      for (const int nodes : {1, 2, 3, 5, 8, 13, 16, 31, 64, 100, 200}) {
        const FabricConfig fc =
            make(p, nodes, static_cast<std::uint8_t>(radix));
        const std::string what = std::string(net::to_string(p)) + " radix " +
                                 std::to_string(radix) + " nodes " +
                                 std::to_string(nodes);
        sim::EventQueue eq;
        sim::Rng rng(0);
        net::Topology topo(eq, rng);
        if (static_cast<std::size_t>(nodes) > FabricBuilder::capacity(fc)) {
          EXPECT_THROW((void)FabricBuilder::plan(fc), std::invalid_argument)
              << what;
          EXPECT_THROW(FabricBuilder(topo, fc), std::invalid_argument) << what;
          continue;
        }
        const net::FabricPlan plan = FabricBuilder::plan(fc);
        const FabricBuilder fb(topo, fc);
        ++built;
        EXPECT_EQ(plan.trunks.size(), fb.trunk_cables().size()) << what;
        EXPECT_EQ(plan.free_ports(), fb.free_ports()) << what;
        ASSERT_EQ(plan.switches.size(), fb.num_switches()) << what;
        for (std::size_t s = 0; s < plan.switches.size(); ++s) {
          const auto& sw = topo.get_switch(static_cast<std::uint16_t>(s));
          EXPECT_EQ(plan.switches[s].ports, sw.num_ports()) << what;
        }
        ASSERT_EQ(plan.endpoints.size(), fb.placements().size()) << what;
        for (std::size_t i = 0; i < plan.endpoints.size(); ++i) {
          EXPECT_EQ(plan.endpoints[i].sw, fb.placements()[i].sw) << what;
          EXPECT_EQ(plan.endpoints[i].port, fb.placements()[i].port) << what;
        }
      }
    }
  }
  EXPECT_GT(built, 150);
}

TEST(Fabric, ClusterTrafficCrossesTheFatTree3) {
  // Cross-pod traffic on the smallest honest 3-level config: radix 4 ->
  // 4 hosts per pod; node 0 (pod 0) streams to node 5 (pod 1) through
  // edge, agg and core tiers.
  ClusterConfig cc;
  cc.nodes = 8;
  cc.fabric = FabricPreset::kFatTree3;
  cc.switch_ports = 4;
  Cluster cluster(cc);
  auto& src = cluster.node(0).open_port(2);
  auto& dst = cluster.node(5).open_port(2);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 20;
  wc.msg_len = 512;
  fi::StreamWorkload wl(src, dst, wc);
  cluster.run_for(sim::usec(900));
  wl.start();
  cluster.run_for(sim::msec(50));
  EXPECT_TRUE(wl.complete());
  EXPECT_EQ(wl.duplicates(), 0);
}

TEST(Fabric, MapperDiscoversTheBuiltFatTree3) {
  ClusterConfig cc;
  cc.nodes = 16;
  cc.fabric = FabricPreset::kFatTree3;
  cc.switch_ports = 4;
  cc.install_routes = false;  // the mapper is the only source of routes
  Cluster cluster(cc);
  mapper::Mapper m(cluster.node(0));
  bool ok = false;
  m.run([&](bool r) { ok = r; });
  cluster.run_until_idle();
  ASSERT_TRUE(ok);
  EXPECT_EQ(m.num_switches(), cluster.fabric().num_switches());
  EXPECT_EQ(m.interfaces().size(), 16u);
  for (net::NodeId b = 1; b < 16; ++b) {
    auto r = m.route_between(0, b);
    ASSERT_TRUE(r) << "0->" << int(b);
    EXPECT_LE(r->size(),
              static_cast<std::size_t>(cluster.fabric().tiers()));
  }
}

TEST(Fabric, RunUntilIdleHonoursConfiguredEventBound) {
  ClusterConfig cc;
  cc.nodes = 2;
  cc.max_events = 500;
  Cluster cluster(cc);
  // A self-rescheduling event never lets the queue drain: only the bound
  // ends the run.
  std::function<void()> forever = [&] {
    cluster.eq().schedule_after(sim::usec(1), forever);
  };
  forever();
  EXPECT_EQ(cluster.run_until_idle(), 500u);
  // An explicit override beats the config without mutating it.
  EXPECT_EQ(cluster.run_until_idle(100), 100u);
  EXPECT_EQ(cluster.config().max_events, 500u);
}

TEST(Fabric, IdleClusterDrainsBelowTheEventBound) {
  // L_timer housekeeping schedules no events: booted, idle GM and FTGM
  // clusters drain, and the ticks that elapsed are still accounted.
  for (const mcp::McpMode mode : {mcp::McpMode::kGm, mcp::McpMode::kFtgm}) {
    ClusterConfig cc;
    cc.nodes = 4;
    cc.mode = mode;
    cc.max_events = 500;
    Cluster cluster(cc);
    cluster.node(0).open_port(2);
    EXPECT_LT(cluster.run_until_idle(), 500u);
    EXPECT_TRUE(cluster.eq().empty());
    EXPECT_TRUE(cluster.node(0).mcp().port_open(2));
    // The queue drained after the first L_timer run (551.05 us), which
    // opened the port; 11 ms later the clock is at 11.55 ms, and an idle
    // card runs L_timer every 551.05 us.
    cluster.run_for(sim::msec(11));
    EXPECT_TRUE(cluster.eq().empty());
    EXPECT_EQ(cluster.eq().now(), sim::usecf(551.05) + sim::msec(11));
    EXPECT_EQ(cluster.node(1).mcp().stats().l_timer_runs, 20u);
  }
}

}  // namespace
}  // namespace myri
