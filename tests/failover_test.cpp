// Fabric failover: cable failures and the mapper's reconfiguration around
// them (paper Section 2: "The GM mapper can also reconfigure the network
// if links or nodes appear or disappear").
#include <gtest/gtest.h>

#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "gm/node.hpp"
#include "mapper/failover.hpp"
#include "mapper/mapper.hpp"
#include "net/topology.hpp"

namespace myri {
namespace {

// A triangle of switches gives every pair of nodes two disjoint paths.
struct Triangle {
  sim::EventQueue eq;
  sim::Rng rng{17};
  std::unique_ptr<net::Topology> topo;
  std::uint16_t s0, s1, s2;
  net::Topology::CableId c01, c12, c02;
  std::vector<std::unique_ptr<gm::Node>> nodes;

  Triangle() {
    topo = std::make_unique<net::Topology>(eq, rng);
    s0 = topo->add_switch(8);
    s1 = topo->add_switch(8);
    s2 = topo->add_switch(8);
    c01 = topo->connect_switches(s0, 6, s1, 5);
    c12 = topo->connect_switches(s1, 6, s2, 5);
    c02 = topo->connect_switches(s0, 7, s2, 6);
    for (int i = 0; i < 3; ++i) {
      gm::Node::Config nc;
      nc.id = static_cast<net::NodeId>(i);
      nc.host_mem_bytes = 8u << 20;
      nodes.push_back(
          std::make_unique<gm::Node>(eq, nc, std::string("n").append(std::to_string(i)),
                                     nc.id + 1));
    }
    nodes[0]->attach(*topo, s0, 0);
    nodes[1]->attach(*topo, s1, 0);
    nodes[2]->attach(*topo, s2, 0);
    for (auto& n : nodes) n->boot();
  }
};

TEST(Failover, DownCableDropsEverything) {
  sim::EventQueue eq;
  sim::Rng rng(1);
  net::Topology topo(eq, rng);
  const auto a = topo.add_switch(4);
  const auto b = topo.add_switch(4);
  const auto cable = topo.connect_switches(a, 3, b, 3);

  class Spy : public net::PacketSink {
   public:
    void deliver(net::Packet, std::uint8_t) override { ++count; }
    int count = 0;
  } sink;
  topo.attach_endpoint(sink, b, 0, "dst");

  net::Packet p;
  p.route = {3, 0};
  p.seal();
  topo.set_cable_down(cable, true);
  topo.get_switch(a).deliver(p, 1);
  eq.run();
  EXPECT_EQ(sink.count, 0);

  topo.set_cable_down(cable, false);
  topo.get_switch(a).deliver(p, 1);
  eq.run();
  EXPECT_EQ(sink.count, 1);
}

TEST(Failover, MapperFindsBothPathsInTriangle) {
  Triangle t;
  mapper::Mapper m(*t.nodes[0]);
  bool ok = false;
  m.run([&](bool r) { ok = r; });
  t.eq.run(10'000'000);
  ASSERT_TRUE(ok);
  EXPECT_EQ(m.num_switches(), 3u);
  EXPECT_EQ(m.interfaces().size(), 3u);
  // Direct route 0->1 goes via the s0-s1 cable.
  auto r = m.route_between(0, 1);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->size(), 2u);  // one inter-switch hop + the host port
}

TEST(Failover, RemapRoutesAroundAFailedCable) {
  Triangle t;
  mapper::Mapper m(*t.nodes[0]);
  m.run([](bool) {});
  t.eq.run(10'000'000);
  auto direct = m.route_between(0, 1);
  ASSERT_TRUE(direct);
  ASSERT_EQ(direct->size(), 2u);

  // The s0-s1 cable dies; remap must route 0->1 the long way (via s2).
  t.topo->set_cable_down(t.c01, true);
  bool ok = false;
  m.run([&](bool r) { ok = r; });
  t.eq.run(20'000'000);
  ASSERT_TRUE(ok);
  auto detour = m.route_between(0, 1);
  ASSERT_TRUE(detour);
  EXPECT_EQ(detour->size(), 3u);  // two inter-switch hops now
  EXPECT_EQ(m.interfaces().size(), 3u);  // nobody was lost
}

TEST(Failover, TrafficResumesAfterRemap) {
  Triangle t;
  mapper::Mapper m(*t.nodes[0]);
  m.run([](bool) {});
  t.eq.run(10'000'000);

  auto& tx = t.nodes[0]->open_port(2);
  auto& rx = t.nodes[1]->open_port(3);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 10;
  wc.msg_len = 1024;
  fi::StreamWorkload first(tx, rx, wc);
  t.eq.run_until(t.eq.now() + sim::usec(900));
  first.start();
  t.eq.run_until(t.eq.now() + sim::msec(20));
  ASSERT_TRUE(first.complete());

  // Cable dies mid-life; traffic stalls on the dead path...
  t.topo->set_cable_down(t.c01, true);
  fi::StreamWorkload second(tx, rx, wc);
  second.start();
  t.eq.run_until(t.eq.now() + sim::msec(20));
  EXPECT_FALSE(second.complete());

  // ...until the operator re-runs the mapper, which installs the detour;
  // Go-Back-N then pushes the stalled messages through it.
  m.run([](bool) {});
  t.eq.run_until(t.eq.now() + sim::msec(300));
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.duplicates(), 0);
}

// ---- FailoverManager: the automated cable-event -> remap -> reroute path
// on a multi-switch fabric (the PR's acceptance scenario). ----

gm::ClusterConfig fat_tree16() {
  gm::ClusterConfig cc;
  cc.nodes = 16;
  cc.fabric = net::FabricPreset::kFatTree;
  return cc;
}

TEST(FailoverManager, CableKillUnderLoadRemapsAndAllStreamsComplete) {
  gm::Cluster cluster(fat_tree16());
  mapper::FailoverManager fm(cluster);

  // Three concurrent streams; 0->15 crosses leaf0-spine0 (the BFS-first
  // uplink), the others exercise unrelated leaf pairs.
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 40;
  wc.msg_len = 1024;
  fi::StreamWorkload s0(cluster.node(0).open_port(2),
                        cluster.node(15).open_port(3), wc);
  fi::StreamWorkload s1(cluster.node(5).open_port(2),
                        cluster.node(10).open_port(3), wc);
  fi::StreamWorkload s2(cluster.node(12).open_port(2),
                        cluster.node(3).open_port(3), wc);
  cluster.run_for(sim::usec(900));
  s0.start();
  s1.start();
  s2.start();
  cluster.run_for(sim::usec(300));  // some traffic in flight

  // Kill the leaf0<->spine0 trunk mid-stream. The listener fires, the
  // debounced remap re-discovers the fabric and distributes detours; the
  // stalled Go-Back-N windows push through the surviving spines.
  cluster.topo().set_cable_down(cluster.fabric().trunk_cables()[0], true);
  cluster.run_for(sim::msec(600));

  EXPECT_GE(fm.remaps(), 1u);
  EXPECT_EQ(fm.failed_remaps(), 0u);
  EXPECT_TRUE(s0.complete());
  EXPECT_TRUE(s1.complete());
  EXPECT_TRUE(s2.complete());
  EXPECT_EQ(s0.duplicates() + s1.duplicates() + s2.duplicates(), 0);

  // Failover latency (cable event -> routes distributed) and post-remap
  // route lengths landed in the cluster registry.
  metrics::Registry& reg = cluster.metrics();
  EXPECT_EQ(reg.counter("fabric.cable_events").value(), 1u);
  EXPECT_GE(reg.counter("fabric.failover.remaps").value(), 1u);
  EXPECT_GE(reg.histogram("fabric.failover.remap_ns").count(), 1u);
  // 16 interfaces, routes recorded for each ordered reachable pair.
  EXPECT_GE(reg.histogram("fabric.route_len_hops").count(), 16u * 15u);
  // A 2-level Clos never needs more than 3 route bytes, dead trunk or not.
  EXPECT_LE(reg.histogram("fabric.route_len_hops").max(), 3u);
}

TEST(FailoverManager, CoalescesBackToBackCableEvents) {
  gm::Cluster cluster(fat_tree16());
  mapper::FailoverManager fm(cluster);
  // Two cable transitions inside one debounce window: one remap, not two.
  cluster.topo().set_cable_down(cluster.fabric().trunk_cables()[0], true);
  cluster.topo().set_cable_down(cluster.fabric().trunk_cables()[5], true);
  cluster.run_for(sim::msec(400));
  EXPECT_EQ(cluster.metrics().counter("fabric.cable_events").value(), 2u);
  EXPECT_EQ(fm.remaps(), 1u);
  EXPECT_FALSE(fm.remap_in_progress());
}

TEST(FailoverManager, RemapNowBringsUpAnUnmappedFabric) {
  gm::ClusterConfig cc = fat_tree16();
  cc.install_routes = false;  // cold fabric: only the mapper can route it
  gm::Cluster cluster(cc);
  auto& tx = cluster.node(1).open_port(2);
  cluster.run_for(sim::usec(900));
  gm::Buffer b = tx.alloc_dma_buffer(64);
  ASSERT_EQ(tx.post(b, 64, {.dst = 14, .dst_port = 3}).code(),
            gm::Status::kUnreachable);

  mapper::FailoverManager fm(cluster);
  bool ok = false;
  fm.remap_now([&](bool r) { ok = r; });
  cluster.run_for(sim::msec(400));
  ASSERT_TRUE(ok);
  EXPECT_EQ(fm.mapper().interfaces().size(), 16u);
  EXPECT_TRUE(tx.post(b, 64, {.dst = 14, .dst_port = 3}).ok());
}

TEST(Failover, NodeDisappearsFromTheMapWhenItsCableDies) {
  Triangle t;
  mapper::Mapper m(*t.nodes[0]);
  m.run([](bool) {});
  t.eq.run(10'000'000);
  ASSERT_EQ(m.interfaces().size(), 3u);

  // Fail node2's switch-to-switch connections: s1-s2 and s0-s2 both die,
  // so everything behind s2 vanishes from the next map.
  t.topo->set_cable_down(t.c12, true);
  t.topo->set_cable_down(t.c02, true);
  m.run([](bool) {});
  t.eq.run(20'000'000);
  EXPECT_EQ(m.interfaces().size(), 2u);
  EXPECT_FALSE(m.route_between(0, 2));
}

}  // namespace
}  // namespace myri
