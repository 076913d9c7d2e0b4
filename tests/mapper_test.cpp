// Mapper tests: topology discovery, route computation, distribution,
// remapping — the GM self-configuration the FTD's route restoration
// depends on.
#include <gtest/gtest.h>

#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "mapper/mapper.hpp"

namespace myri {
namespace {

struct Fabric {
  sim::EventQueue eq;
  sim::Rng rng{7};
  std::unique_ptr<net::Topology> topo;
  std::vector<std::unique_ptr<gm::Node>> nodes;

  gm::Node& add_node(std::uint16_t sw, std::uint8_t port,
                     mcp::McpMode mode = mcp::McpMode::kGm) {
    gm::Node::Config nc;
    nc.id = static_cast<net::NodeId>(nodes.size());
    nc.mode = mode;
    nc.host_mem_bytes = 4u << 20;
    nodes.push_back(std::make_unique<gm::Node>(
        eq, nc, std::string("n").append(std::to_string(nodes.size()))));
    nodes.back()->attach(*topo, sw, port);
    nodes.back()->boot();
    return *nodes.back();
  }
};

TEST(Mapper, SingleSwitchDiscoversAllInterfaces) {
  Fabric f;
  f.topo = std::make_unique<net::Topology>(f.eq, f.rng);
  const auto sw = f.topo->add_switch(8);
  for (int i = 0; i < 4; ++i) f.add_node(sw, static_cast<std::uint8_t>(i));

  mapper::Mapper m(*f.nodes[0]);
  bool ok = false;
  m.run([&](bool r) { ok = r; });
  f.eq.run(5'000'000);
  EXPECT_TRUE(ok);
  EXPECT_EQ(m.interfaces(), (std::vector<net::NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(m.num_switches(), 1u);
}

TEST(Mapper, SingleSwitchRoutesAreOneHop) {
  Fabric f;
  f.topo = std::make_unique<net::Topology>(f.eq, f.rng);
  const auto sw = f.topo->add_switch(8);
  for (int i = 0; i < 3; ++i) f.add_node(sw, static_cast<std::uint8_t>(i));
  mapper::Mapper m(*f.nodes[0]);
  m.run([](bool) {});
  f.eq.run(5'000'000);
  const auto r = m.route_between(0, 2);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (std::vector<std::uint8_t>{2}));
}

TEST(Mapper, TwoSwitchFabric) {
  Fabric f;
  f.topo = std::make_unique<net::Topology>(f.eq, f.rng);
  const auto s0 = f.topo->add_switch(8);
  const auto s1 = f.topo->add_switch(8);
  f.topo->connect_switches(s0, 7, s1, 6);
  f.add_node(s0, 0);
  f.add_node(s0, 1);
  f.add_node(s1, 0);
  f.add_node(s1, 1);

  mapper::Mapper m(*f.nodes[0]);
  bool ok = false;
  m.run([&](bool r) { ok = r; });
  f.eq.run(10'000'000);
  EXPECT_TRUE(ok);
  EXPECT_EQ(m.num_switches(), 2u);
  EXPECT_EQ(m.interfaces().size(), 4u);
  const auto r = m.route_between(0, 2);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (std::vector<std::uint8_t>{7, 0}));
}

TEST(Mapper, ThreeSwitchLine) {
  Fabric f;
  f.topo = std::make_unique<net::Topology>(f.eq, f.rng);
  const auto s0 = f.topo->add_switch(4);
  const auto s1 = f.topo->add_switch(4);
  const auto s2 = f.topo->add_switch(4);
  f.topo->connect_switches(s0, 3, s1, 0);
  f.topo->connect_switches(s1, 3, s2, 0);
  f.add_node(s0, 0);
  f.add_node(s2, 1);

  mapper::Mapper m(*f.nodes[0]);
  m.run([](bool) {});
  f.eq.run(10'000'000);
  EXPECT_EQ(m.num_switches(), 3u);
  const auto r = m.route_between(0, 1);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (std::vector<std::uint8_t>{3, 3, 1}));
}

TEST(Mapper, DistributedRoutesActuallyWork) {
  // The proof of the pudding: after mapping, run real traffic between
  // nodes that never had routes installed manually.
  Fabric f;
  f.topo = std::make_unique<net::Topology>(f.eq, f.rng);
  const auto s0 = f.topo->add_switch(8);
  const auto s1 = f.topo->add_switch(8);
  f.topo->connect_switches(s0, 7, s1, 7);
  auto& n0 = f.add_node(s0, 0);
  f.add_node(s0, 1);
  auto& n2 = f.add_node(s1, 0);

  mapper::Mapper m(n0);
  m.run([](bool) {});
  f.eq.run(10'000'000);

  auto& tx = n0.open_port(2);
  auto& rx = n2.open_port(3);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 10;
  wc.msg_len = 1024;
  fi::StreamWorkload wl(tx, rx, wc);
  f.eq.run_for(sim::usec(900));
  wl.start();
  f.eq.run_for(sim::msec(20));
  EXPECT_TRUE(wl.complete());
}

TEST(Mapper, RemapAfterNodeAppears) {
  Fabric f;
  f.topo = std::make_unique<net::Topology>(f.eq, f.rng);
  const auto sw = f.topo->add_switch(8);
  auto& n0 = f.add_node(sw, 0);
  f.add_node(sw, 1);

  mapper::Mapper m(n0);
  m.run([](bool) {});
  f.eq.run(5'000'000);
  EXPECT_EQ(m.interfaces().size(), 2u);

  // A new node appears (paper Section 2: the mapper reconfigures when
  // nodes appear or disappear); re-run mapping.
  f.add_node(sw, 5);
  bool ok = false;
  m.run([&](bool r) { ok = r; });
  f.eq.run(5'000'000);
  EXPECT_TRUE(ok);
  EXPECT_EQ(m.interfaces().size(), 3u);
  EXPECT_TRUE(m.route_between(0, 2));
}

TEST(Mapper, HomeSwitchPortLearnt) {
  Fabric f;
  f.topo = std::make_unique<net::Topology>(f.eq, f.rng);
  const auto sw = f.topo->add_switch(8);
  auto& n0 = f.add_node(sw, 5);  // attached on port 5
  f.add_node(sw, 2);
  mapper::Mapper m(n0);
  m.run([](bool) {});
  f.eq.run(5'000'000);
  // Route from node1 (port 2) back to node0 must be [5].
  const auto r = m.route_between(1, 0);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (std::vector<std::uint8_t>{5}));
}

TEST(Mapper, StatsAccountScoutsAndTimeouts) {
  Fabric f;
  f.topo = std::make_unique<net::Topology>(f.eq, f.rng);
  const auto sw = f.topo->add_switch(8);
  f.add_node(sw, 0);
  f.add_node(sw, 1);
  mapper::Mapper m(*f.nodes[0]);
  m.run([](bool) {});
  f.eq.run(5'000'000);
  const auto& s = m.stats();
  // 1 root scout + 7 ports probed from the switch; each of the 6 empty
  // ports is probed scout_tries (3) times before it counts as dead.
  EXPECT_EQ(s.scouts_sent, 20u);
  EXPECT_EQ(s.replies, 2u);         // switch + node1 (own port skipped)
  EXPECT_EQ(s.scout_retries, 12u);  // 6 empty ports x 2 re-probes
  EXPECT_EQ(s.timeouts, 6u);        // empty switch ports, tries exhausted
}

TEST(Mapper, EmptyFabricReportsFailure) {
  // A mapper whose NIC is not cabled finds nothing.
  sim::EventQueue eq;
  gm::Node::Config nc;
  nc.id = 0;
  nc.host_mem_bytes = 4u << 20;
  gm::Node lone(eq, nc, "lone");
  lone.boot();
  mapper::Mapper m(lone);
  bool fired = false, ok = true;
  m.run([&](bool r) {
    fired = true;
    ok = r;
  });
  eq.run(5'000'000);
  EXPECT_TRUE(fired);
  EXPECT_FALSE(ok);
}

TEST(Mapper, RouteTablesInstalledOnRemoteCards) {
  Fabric f;
  f.topo = std::make_unique<net::Topology>(f.eq, f.rng);
  const auto sw = f.topo->add_switch(8);
  f.add_node(sw, 0);
  f.add_node(sw, 1);
  f.add_node(sw, 2);
  mapper::Mapper m(*f.nodes[0]);
  m.run([](bool) {});
  f.eq.run(5'000'000);
  EXPECT_EQ(f.nodes[1]->nic().num_routes(), 2u);
  EXPECT_EQ(f.nodes[2]->nic().num_routes(), 2u);
  // Driver mirrors updated too (FTD restoration source).
  EXPECT_EQ(f.nodes[1]->driver().route_mirror().size(), 2u);
}

}  // namespace
}  // namespace myri
