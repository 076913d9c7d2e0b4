// net::RouteTable, the dense per-node route table behind the card
// (lanai::Nic) and the driver's mirror of it (core::Driver): presence is a
// bit per slot, so a zero-byte route is a route; the slot array is
// bounded, so a MAP_ROUTE entry naming a 16-bit destination past the
// bound is refused and counted instead of growing the table to 64 K
// slots.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "gm/cluster.hpp"
#include "net/fabric.hpp"
#include "net/map_info.hpp"
#include "net/route_table.hpp"

namespace myri {
namespace {

using Bytes = std::vector<std::uint8_t>;
using net::RouteTable;

TEST(RouteTable, AZeroByteRouteIsPresent) {
  RouteTable t;
  EXPECT_FALSE(t.contains(1));
  EXPECT_EQ(t.find(1), nullptr);
  ASSERT_TRUE(t.set(1, {}));  // back-to-back cards: no switch between
  ASSERT_NE(t.find(1), nullptr);
  EXPECT_TRUE(t.find(1)->empty());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.contains(0));  // a slot below it was never installed
}

TEST(RouteTable, OverwriteKeepsTheCountAndClearForgetsEverything) {
  RouteTable t;
  ASSERT_TRUE(t.set(3, Bytes{1, 2}));
  ASSERT_TRUE(t.set(9, Bytes{4}));
  ASSERT_TRUE(t.set(3, Bytes{7, 8, 9}));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(*t.find(3), (Bytes{7, 8, 9}));
  std::vector<net::NodeId> order;
  t.for_each([&](net::NodeId d, const net::Route&) { order.push_back(d); });
  EXPECT_EQ(order, (std::vector<net::NodeId>{3, 9}));

  const std::size_t slots = t.slots();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.contains(3));
  EXPECT_FALSE(t.contains(9));
  EXPECT_EQ(t.slots(), slots);  // buffers stay for the next install
  ASSERT_TRUE(t.set(9, Bytes{5}));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.find(9), Bytes{5});
}

TEST(RouteTable, DestinationsPastTheBoundAreRefusedAndCounted) {
  RouteTable t;
  ASSERT_TRUE(t.set(net::kRouteTableBound - 1, Bytes{1}));
  EXPECT_EQ(t.slots(), net::kRouteTableBound);
  for (const net::NodeId dst :
       {static_cast<net::NodeId>(net::kRouteTableBound),
        net::NodeId{0xfffe}, net::NodeId{0xffff}}) {
    EXPECT_FALSE(t.set(dst, Bytes{2}));
    EXPECT_FALSE(t.contains(dst));
  }
  EXPECT_EQ(t.refused(), 3u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.slots(), net::kRouteTableBound);
  t.clear();
  EXPECT_EQ(t.refused(), 3u);  // a life-long count
  // Growth doubles but never past the bound.
  RouteTable g;
  for (std::size_t d = 0; d < net::kRouteTableBound; d += 7) {
    ASSERT_TRUE(g.set(static_cast<net::NodeId>(d), Bytes{1}));
    ASSERT_LE(g.slots(), net::kRouteTableBound);
  }
}

TEST(RouteTable, HostileMapRouteEntriesReachNeitherCardNorMirror) {
  gm::ClusterConfig cc;
  cc.nodes = 2;
  cc.switch_ports = 8;
  gm::Cluster cluster(cc);
  gm::Node& from = cluster.node(0);
  gm::Node& to = cluster.node(1);
  ASSERT_NE(from.nic().route(1), nullptr);

  // One chunk: two entries past the bound around one ordinary entry.
  const std::vector<net::RouteEntry> entries{
      {0xfffe, {1, 2}}, {7, {5}}, {0xffff, {3}}};
  net::Packet pkt;
  pkt.type = net::PacketType::kMapRoute;
  pkt.src = 0;
  pkt.dst = 1;
  pkt.route = *from.nic().route(1);
  pkt.payload = net::RouteUpdate{1, 0, 1, entries}.encode();
  pkt.seal();
  from.mcp().send_raw(std::move(pkt));
  cluster.run_for(sim::msec(1));

  for (const net::RouteTable* t :
       {&to.nic().routes(), &to.driver().route_mirror()}) {
    EXPECT_FALSE(t->contains(0xfffe));
    EXPECT_FALSE(t->contains(0xffff));
    EXPECT_EQ(t->refused(), 2u);
    ASSERT_NE(t->find(7), nullptr);  // the ordinary entry went in
    EXPECT_EQ(*t->find(7), Bytes{5});
    EXPECT_LE(t->slots(), 8u);  // grown for dst 7 alone
  }
  EXPECT_EQ(to.route_epoch(), 1u);  // the chunk itself was whole
  EXPECT_TRUE(to.has_route(0));     // and the node's own routes untouched
}

TEST(RouteTable, DirectInstallsPastTheBoundThrow) {
  gm::ClusterConfig cc;
  cc.nodes = 2;
  cc.switch_ports = 8;
  gm::Cluster cluster(cc);
  EXPECT_THROW(cluster.node(0).install_route(0xffff, {1}), std::out_of_range);
  EXPECT_FALSE(cluster.node(0).has_route(0xffff));
  EXPECT_EQ(net::FabricBuilder::capacity(
                {.preset = net::FabricPreset::kLine, .nodes = 2,
                 .radix = 255}),
            net::kRouteTableBound);
}

}  // namespace
}  // namespace myri
