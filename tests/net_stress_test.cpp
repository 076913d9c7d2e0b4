// Fabric stress tests: backpressure stalls, contention through shared
// switch ports, multi-hop fabrics under load, and packet-level edge cases
// the main transport tests don't reach.
#include <gtest/gtest.h>

#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "gm/node.hpp"
#include "net/topology.hpp"

namespace myri {
namespace {

class CollectSink : public net::PacketSink {
 public:
  void deliver(net::Packet pkt, std::uint8_t) override {
    packets.push_back(std::move(pkt));
  }
  std::vector<net::Packet> packets;
};

TEST(Backpressure, SwitchStallsInsteadOfDroppingWhenQueueFills) {
  sim::EventQueue eq;
  sim::Rng rng(3);
  // Tiny link queues force the switch's stall-and-retry path.
  net::Link::Config lc;
  lc.max_queued_packets = 2;
  net::Topology topo(eq, rng, lc);
  const auto sw = topo.add_switch(8);
  CollectSink dst;
  topo.attach_endpoint(dst, sw, 2, "dst");

  // Blast 10 packets into the switch simultaneously (as if arriving on
  // different input ports at once) so the single output link's 2-entry
  // queue must exert backpressure. (The stall budget is bounded, so a
  // bigger blast would legitimately start dropping.)
  for (int i = 0; i < 10; ++i) {
    net::Packet p;
    p.type = net::PacketType::kData;
    p.seq = static_cast<std::uint32_t>(i);
    p.route = {2};
    p.payload.assign(2048, std::byte{1});
    p.seal();
    topo.get_switch(sw).deliver(std::move(p), static_cast<std::uint8_t>(i % 8));
  }
  eq.run();
  EXPECT_EQ(dst.packets.size(), 10u);  // stalled, retried, all delivered
  EXPECT_GT(topo.get_switch(sw).stats().stalled, 0u);
  EXPECT_EQ(topo.get_switch(sw).stats().dead_routed, 0u);
}

TEST(Backpressure, BoundedRetriesEventuallyDropUnderSustainedOverload) {
  // The stall budget is finite: a blocked wormhole cannot hold packets
  // forever, so a sustained overload beyond the retry budget turns into
  // drops (which Go-Back-N heals end to end). Blast far more serialized
  // bytes than the retry window can cover.
  sim::EventQueue eq;
  sim::Rng rng(3);
  net::Link::Config lc;
  lc.max_queued_packets = 1;
  net::Topology topo(eq, rng, lc);
  const auto sw = topo.add_switch(4);
  CollectSink dst;
  topo.attach_endpoint(dst, sw, 1, "dst");
  for (int i = 0; i < 60; ++i) {
    net::Packet p;
    p.route = {1};
    p.payload.assign(4096, std::byte{1});
    p.seal();
    topo.get_switch(sw).deliver(std::move(p), static_cast<std::uint8_t>(i % 4));
  }
  eq.run();
  EXPECT_GT(topo.get_switch(sw).stats().dead_routed, 0u);
  EXPECT_GT(dst.packets.size(), 0u);
  EXPECT_LT(dst.packets.size(), 60u);
}

TEST(Fanin, SevenSendersThroughOneSwitchPortContend) {
  // All-to-one through a single switch: node 0's downlink and NIC are the
  // bottleneck (7 ports, one per sender); everything arrives exactly once.
  gm::ClusterConfig cc;
  cc.nodes = 8;
  gm::Cluster cluster(cc);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 12;
  wc.msg_len = 4096;
  wc.recv_buffers = 8;
  std::vector<std::unique_ptr<fi::StreamWorkload>> wls;
  for (int i = 1; i < 8; ++i) {
    auto& rx = cluster.node(0).open_port(static_cast<std::uint8_t>(i));
    wls.push_back(std::make_unique<fi::StreamWorkload>(
        cluster.node(i).open_port(1), rx, wc));
  }
  cluster.run_for(sim::usec(900));
  for (auto& w : wls) w->start();
  // 7 senders x window 16 can overwhelm the 64-deep RX queue: overflow
  // drops plus backed-off Go-Back-N retransmissions need a wide window.
  cluster.run_for(sim::msec(400));
  for (auto& w : wls) {
    EXPECT_TRUE(w->complete());
    EXPECT_EQ(w->duplicates(), 0);
  }
}

TEST(MultiHop, TrafficAcrossThreeSwitchesUnderLoss) {
  sim::EventQueue eq;
  sim::Rng rng(9);
  net::Topology topo(eq, rng);
  const auto s0 = topo.add_switch(4);
  const auto s1 = topo.add_switch(4);
  const auto s2 = topo.add_switch(4);
  topo.connect_switches(s0, 3, s1, 0);
  topo.connect_switches(s1, 3, s2, 0);

  auto make_node = [&](net::NodeId id, std::uint16_t sw, std::uint8_t port) {
    gm::Node::Config nc;
    nc.id = id;
    nc.host_mem_bytes = 8u << 20;
    auto n = std::make_unique<gm::Node>(eq, nc, std::string("n").append(std::to_string(id)),
                                        id + 1);
    n->attach(topo, sw, port);
    n->boot();
    return n;
  };
  auto a = make_node(0, s0, 1);
  auto b = make_node(1, s2, 1);
  a->install_route(1, {3, 3, 1});
  b->install_route(0, {0, 0, 1});
  topo.set_all_faults({0.08, 0.08, 0.0});

  auto& tx = a->open_port(2);
  auto& rx = b->open_port(3);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 30;
  wc.msg_len = 2000;
  fi::StreamWorkload wl(tx, rx, wc);
  eq.run_until(sim::usec(900));
  wl.start();
  eq.run_until(eq.now() + sim::msec(300));
  EXPECT_TRUE(wl.complete());
  EXPECT_EQ(wl.duplicates(), 0);
}

TEST(PacketEdge, MaxPayloadPacketSurvivesWire) {
  sim::EventQueue eq;
  sim::Rng rng(1);
  net::Topology topo(eq, rng);
  const auto sw = topo.add_switch(4);
  CollectSink dst;
  net::Link& up = topo.attach_endpoint(dst, sw, 0, "loop-src");
  CollectSink dst2;
  topo.attach_endpoint(dst2, sw, 1, "dst");
  net::Packet p;
  p.payload.assign(net::kMaxPacketPayload, std::byte{0x42});
  p.route = {1};
  p.seal();
  up.send(std::move(p));
  eq.run();
  ASSERT_EQ(dst2.packets.size(), 1u);
  EXPECT_TRUE(dst2.packets[0].intact());
  EXPECT_EQ(dst2.packets[0].payload.size(), net::kMaxPacketPayload);
}

TEST(PacketEdge, DirectedFlagCoveredByCrc) {
  net::Packet p;
  p.payload.assign(16, std::byte{1});
  p.directed = true;
  p.target_vaddr = 0x1234;
  p.seal();
  EXPECT_TRUE(p.intact());
  p.target_vaddr ^= 1;
  EXPECT_FALSE(p.intact());
  p.target_vaddr ^= 1;
  p.directed = false;
  EXPECT_FALSE(p.intact());
}

TEST(LinkStats, ByteAccountingMatchesWireSizes) {
  sim::EventQueue eq;
  net::Link link(eq, sim::Rng(1), {}, "l");
  CollectSink sink;
  link.connect(sink, 0);
  net::Packet p;
  p.payload.assign(100, std::byte{1});
  p.route = {1, 2};
  const auto wire = p.wire_size();
  p.seal();
  link.send(net::Packet(p));
  link.send(net::Packet(p));
  eq.run();
  EXPECT_EQ(link.stats().offered_bytes, 2 * wire);
  EXPECT_EQ(link.stats().delivered_bytes, 2 * wire);
  EXPECT_EQ(link.stats().delivered, 2u);
}

}  // namespace
}  // namespace myri
