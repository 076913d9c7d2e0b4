// net::RouteGraph, the one BFS route engine behind the mapper and the
// fabric builder. The differential tests hold its rows against reference
// copies of the two per-source BFS loops it replaced (a std::map walk over
// the mapper's device map, and a dense walk over the builder's switch
// adjacency); the references live only here. The work gate pins the
// engine's whole point: one BFS tree per distinct attach switch per
// epoch, and none for queries against an unchanged graph.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <random>
#include <set>

#include "gm/cluster.hpp"
#include "mapper/failover.hpp"
#include "mapper/mapper.hpp"
#include "net/fabric.hpp"
#include "net/route_graph.hpp"

namespace myri {
namespace {

using Bytes = std::vector<std::uint8_t>;
using DeviceMap = std::map<std::uint32_t, mapper::DeviceInfo>;
using net::FabricPreset;
using net::RouteGraph;

constexpr std::uint32_t key(net::DeviceKind k, std::uint16_t id) {
  return static_cast<std::uint32_t>(k) << 16 | id;
}
constexpr std::uint32_t iface(std::uint16_t id) {
  return key(net::DeviceKind::kInterface, id);
}

// Reference: the mapper's per-interface BFS as it was, over std::map
// parents, reconstructing each route through devices.find().
std::map<std::uint32_t, Bytes> reference_map_routes(const DeviceMap& devices,
                                                    std::uint32_t src) {
  struct Hop {
    std::uint32_t parent;
    std::uint8_t out_port;
  };
  std::map<std::uint32_t, Hop> prev;
  std::deque<std::uint32_t> frontier{src};
  prev[src] = {src, 0};
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop_front();
    auto it = devices.find(u);
    if (it == devices.end()) continue;
    for (const auto& [port, nb] : it->second.neighbours) {
      if (prev.count(nb.key) != 0) continue;
      prev[nb.key] = {u, port};
      frontier.push_back(nb.key);
    }
  }
  std::map<std::uint32_t, Bytes> out;
  for (const auto& [v, hop] : prev) {
    if (v == src) continue;
    Bytes rev;
    for (std::uint32_t cur = v; cur != src;) {
      const Hop& h = prev.at(cur);
      const auto pit = devices.find(h.parent);
      if (pit != devices.end() &&
          pit->second.ref.kind == net::DeviceKind::kSwitch) {
        rev.push_back(h.out_port);
      }
      cur = h.parent;
    }
    out[v] = {rev.rbegin(), rev.rend()};
  }
  return out;
}

// Every key the map mentions: its devices plus dangling neighbour keys.
std::set<std::uint32_t> all_keys(const DeviceMap& devices) {
  std::set<std::uint32_t> keys;
  for (const auto& [k, d] : devices) {
    keys.insert(k);
    for (const auto& [port, nb] : d.neighbours) keys.insert(nb.key);
  }
  return keys;
}

// Every row the one-pass tree walk builds against RouteGraph::route for
// every ordered pair, including which destinations are unreachable.
void expect_tree_rows_match(const RouteGraph& g, const std::string& what) {
  RouteGraph::Row row;
  for (RouteGraph::Vertex src = 0; src < g.size(); ++src) {
    g.routes_from(src, row);
    ASSERT_EQ(row.route.size(), g.size()) << what;
    ASSERT_EQ(row.reached.size(), g.size()) << what;
    for (RouteGraph::Vertex dst = 0; dst < g.size(); ++dst) {
      if (dst == src) continue;
      const auto want = g.route(src, dst);
      ASSERT_EQ(row.reached[dst] != 0, want.has_value())
          << what << ": " << src << " -> " << dst;
      if (want) {
        EXPECT_EQ(row.route[dst], *want)
            << what << ": " << src << " -> " << dst;
      }
    }
  }
}

// Every row from every key, engine against reference, including which
// destinations are unreachable; and the engine's tree-walk rows against
// its own per-pair routes.
void expect_rows_match(const DeviceMap& devices, const std::string& what) {
  mapper::DeviceGraph g;
  g.build(devices);
  expect_tree_rows_match(g.graph(), what + " (tree rows)");
  const auto keys = all_keys(devices);
  for (const std::uint32_t src : keys) {
    const auto ref = reference_map_routes(devices, src);
    for (const std::uint32_t dst : keys) {
      const auto it = ref.find(dst);
      const auto got = g.route(src, dst);
      if (it == ref.end()) {
        EXPECT_FALSE(got.has_value())
            << what << ": " << std::hex << src << " -> " << dst;
      } else {
        ASSERT_TRUE(got.has_value())
            << what << ": " << std::hex << src << " -> " << dst;
        EXPECT_EQ(*got, it->second)
            << what << ": " << std::hex << src << " -> " << dst;
      }
    }
  }
}

gm::ClusterConfig mapped_config(FabricPreset p, int nodes, int radix) {
  gm::ClusterConfig cc;
  cc.nodes = nodes;
  cc.fabric = p;
  cc.switch_ports = static_cast<std::uint8_t>(radix);
  cc.install_routes = false;  // the mapper is the only source of routes
  return cc;
}

struct PresetCase {
  FabricPreset preset;
  int nodes;
  int radix;
};

const PresetCase kPresets[] = {
    {FabricPreset::kSingleSwitch, 6, 8}, {FabricPreset::kLine, 12, 4},
    {FabricPreset::kRing, 12, 4},        {FabricPreset::kRing, 13, 5},
    {FabricPreset::kFatTree, 64, 10},    {FabricPreset::kFatTree3, 16, 4},
    {FabricPreset::kFatTree3, 54, 6},
};

// The device map a real discovery produces on `c`.
DeviceMap discovered(const PresetCase& c) {
  gm::Cluster cluster(mapped_config(c.preset, c.nodes, c.radix));
  mapper::Mapper m(cluster.node(0));
  bool ok = false;
  m.run([&](bool r) { ok = r; });
  cluster.run_until_idle();
  EXPECT_TRUE(ok) << net::to_string(c.preset);
  return m.devices();
}

std::string name_of(const PresetCase& c) {
  return std::string(net::to_string(c.preset)) + "/" +
         std::to_string(c.nodes) + "/r" + std::to_string(c.radix);
}

TEST(RouteGraph, FirstListedNeighbourWinsTies) {
  // Diamond: 0 -> {1, 2} -> 3. Listing 2 first flips the route.
  for (const bool two_first : {false, true}) {
    RouteGraph g;
    for (int i = 0; i < 4; ++i) g.add_vertex(true);
    if (two_first) g.add_edge(0, 2, 5);
    g.add_edge(0, 1, 4);
    if (!two_first) g.add_edge(0, 2, 5);
    g.add_edge(1, 3, 6);
    g.add_edge(2, 3, 7);
    EXPECT_EQ(g.route(0, 3), two_first ? (Bytes{5, 7}) : (Bytes{4, 6}));
    EXPECT_EQ(g.route_len(0, 3), 2u);
  }
}

TEST(RouteGraph, SelfOutOfRangeAndUnreachableHaveNoRoute) {
  RouteGraph g;
  const auto a = g.add_vertex(true);
  const auto b = g.add_vertex(true);
  const auto c = g.add_vertex(true);
  g.add_edge(a, b, 1);
  EXPECT_FALSE(g.route(a, a));
  EXPECT_FALSE(g.route(a, 7));
  EXPECT_FALSE(g.route(a, c));
  EXPECT_FALSE(g.route(b, a));  // edges are directed
  EXPECT_FALSE(g.route_len(a, c));
  EXPECT_EQ(g.route(a, b), Bytes{1});
}

TEST(RouteGraph, InterfacesShareTheirSwitchTreeAndEditsInvalidate) {
  // Switch 0 with interfaces 1 and 2 (one port-0 cable each) and a second
  // switch 3 with interface 4 behind it.
  RouteGraph g;
  const auto s0 = g.add_vertex(true);
  const auto i1 = g.add_vertex(false);
  const auto i2 = g.add_vertex(false);
  const auto s3 = g.add_vertex(true);
  const auto i4 = g.add_vertex(false);
  for (const auto& [sw, v, port] :
       {std::tuple{s0, i1, 0}, std::tuple{s0, i2, 1}, std::tuple{s3, i4, 2}}) {
    g.add_edge(sw, v, static_cast<std::uint8_t>(port));
    g.add_edge(v, sw, 0);
  }
  g.add_edge(s0, s3, 7);
  g.add_edge(s3, s0, 3);
  EXPECT_EQ(g.route(i1, i2), Bytes{1});
  EXPECT_EQ(g.route(i2, i1), Bytes{0});
  EXPECT_EQ(g.route(i1, i4), (Bytes{7, 2}));
  EXPECT_EQ(g.route(i1, s0), Bytes{});  // the attach switch: no byte
  EXPECT_EQ(g.trees_built(), 1u);       // i1, i2 and s0 share one tree
  EXPECT_EQ(g.route(i4, i1), (Bytes{3, 0}));
  EXPECT_EQ(g.trees_built(), 2u);
  EXPECT_EQ(g.route_len(i2, i4), 2u);
  EXPECT_EQ(g.trees_built(), 2u);
  // Any edit drops the cache; a rebuilt graph counts on.
  const auto i5 = g.add_vertex(false);
  g.add_edge(s3, i5, 4);
  EXPECT_EQ(g.route(i1, i5), (Bytes{7, 4}));
  EXPECT_EQ(g.trees_built(), 3u);
  g.clear();
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.trees_built(), 3u);
}

TEST(RouteGraphDifferential, MapperRowsMatchReferenceOnEveryPreset) {
  for (const PresetCase& c : kPresets) {
    const DeviceMap devices = discovered(c);
    ASSERT_FALSE(devices.empty()) << name_of(c);
    expect_rows_match(devices, name_of(c));
  }
}

TEST(RouteGraphDifferential, MapperRowsMatchReferenceOnTruncatedMaps) {
  // Partial maps, as a discovery cut short by timeouts or a remap racing
  // faults leaves them: devices dropped (their keys dangle as leaves) and
  // single cable records dropped (one-sided edges).
  std::mt19937_64 rng(2026);
  for (const PresetCase& c : kPresets) {
    const DeviceMap full = discovered(c);
    for (int trial = 0; trial < 8; ++trial) {
      DeviceMap cut = full;
      for (auto it = cut.begin(); it != cut.end();) {
        if (rng() % 5 == 0) {
          it = cut.erase(it);
          continue;
        }
        auto& nb = it->second.neighbours;
        for (int port = 0; port < 256; ++port) {
          const auto p = static_cast<std::uint8_t>(port);
          if (nb.find(p) != nullptr && rng() % 8 == 0) nb.erase(p);
        }
        ++it;
      }
      expect_rows_match(cut, name_of(c) + " trial " + std::to_string(trial));
    }
  }
}

TEST(RouteGraphDifferential, MapperRowsMatchReferenceOnStaleGraphs) {
  // A 12-node, radix-4 line: switches sw0..sw5 with two hosts each.
  const DeviceMap base = discovered({FabricPreset::kLine, 12, 4});
  std::vector<std::uint32_t> switches;
  for (const auto& [k, d] : base) {
    if (d.ref.kind == net::DeviceKind::kSwitch) switches.push_back(k);
  }
  ASSERT_GE(switches.size(), 2u);
  const std::uint32_t x = iface(5);
  ASSERT_EQ(base.count(x), 1u);
  const auto [old_sw, old_port] = base.at(x).neighbours.at(0);
  const std::uint32_t new_sw = old_sw == switches[0] ? switches[1]
                                                     : switches[0];
  const std::uint8_t new_port = 1;  // a host port on every line switch

  // Interface listed by two switches: a fold_in re-attached x at new_sw
  // while old_sw's record of it was never cleared.
  DeviceMap twice = base;
  twice[new_sw].neighbours.set(new_port, {x, 0});
  twice[x].neighbours.set(0, {new_sw, new_port});
  expect_rows_match(twice, "interface listed by two switches");

  // Dangling neighbour: retire_node then removed x and unlinked only the
  // switch x itself pointed at, leaving old_sw's entry dangling.
  DeviceMap dangling = twice;
  dangling[new_sw].neighbours.erase(new_port);
  dangling.erase(x);
  ASSERT_EQ(dangling.at(old_sw).neighbours.at(old_port).key, x);
  expect_rows_match(dangling, "dangling neighbour after retire");

  // Interface with no edge, and one whose only edge dangles.
  DeviceMap edgeless = base;
  edgeless[x].neighbours.clear();
  mapper::DeviceInfo lone;
  lone.ref = {net::DeviceKind::kInterface, 40};
  lone.neighbours.set(0, {key(net::DeviceKind::kSwitch, 999), 3});
  edgeless[lone.ref.key()] = lone;
  expect_rows_match(edgeless, "edgeless interfaces");
}

TEST(RouteGraph, BackToBackCardsHaveAZeroByteRouteInTheirRow) {
  // Two interfaces cabled to each other: each is the other's tree root.
  RouteGraph g;
  const auto a = g.add_vertex(false);
  const auto b = g.add_vertex(false);
  g.add_edge(a, b, 0);
  g.add_edge(b, a, 0);
  EXPECT_EQ(g.tree_root(a), b);
  EXPECT_EQ(g.tree_root(b), a);
  EXPECT_EQ(g.route(a, b), Bytes{});
  RouteGraph::Row row;
  g.routes_from(a, row);
  ASSERT_EQ(row.reached[b], 1);
  EXPECT_TRUE(row.route[b].empty());
  expect_tree_rows_match(g, "back to back");
}

// Route lengths over every ordered pair of mapped interfaces, one
// route_len() call per pair: what Mapper::route_length_counts() reads
// off one tree walk per root.
std::vector<std::uint64_t> per_pair_length_counts(const mapper::Mapper& m) {
  mapper::DeviceGraph g;
  g.build(m.devices());
  std::vector<RouteGraph::Vertex> ifaces;
  for (const net::NodeId x : m.interfaces()) ifaces.push_back(*g.vertex(iface(x)));
  std::vector<std::uint64_t> counts;
  for (const RouteGraph::Vertex a : ifaces) {
    for (const RouteGraph::Vertex b : ifaces) {
      if (a == b) continue;
      const auto len = g.graph().route_len(a, b);
      if (!len) continue;
      if (*len >= counts.size()) counts.resize(*len + 1, 0);
      ++counts[*len];
    }
  }
  return counts;
}

TEST(RouteGraphDifferential, TreeRowsAndLengthCountsOnTheLargeFatTrees) {
  for (const PresetCase& c : {PresetCase{FabricPreset::kFatTree, 64, 10},
                              PresetCase{FabricPreset::kFatTree3, 128, 8}}) {
    gm::Cluster cluster(mapped_config(c.preset, c.nodes, c.radix));
    // A patient discovery: the 128-node burst's reply wave outlives the
    // default scout timeout, and this test wants every node mapped.
    mapper::Mapper::Config cfg;
    cfg.scout_timeout = sim::msec(5);
    mapper::Mapper m(cluster.node(0), cfg);
    bool ok = false;
    m.run([&](bool r) { ok = r; });
    cluster.run_until_idle();
    ASSERT_TRUE(ok) << name_of(c);
    ASSERT_EQ(m.interfaces().size(), static_cast<std::size_t>(c.nodes));
    expect_tree_rows_match(m.route_graph(), name_of(c));
    const auto counts = m.route_length_counts();
    EXPECT_EQ(counts, per_pair_length_counts(m)) << name_of(c);
    std::uint64_t pairs = 0;
    for (const std::uint64_t n : counts) pairs += n;
    EXPECT_EQ(pairs, static_cast<std::uint64_t>(c.nodes) * (c.nodes - 1));
    // Every row the mapper distributed is the per-pair route, in order.
    for (const net::NodeId x : m.table_nodes()) {
      std::size_t k = 0;
      for (const net::NodeId y : m.interfaces()) {
        if (y == x) continue;
        const auto want = m.route_between(x, y);
        ASSERT_TRUE(want.has_value()) << x << " -> " << y;
        ASSERT_LT(k, m.row(x).size());
        EXPECT_EQ(m.row(x)[k].dst, y);
        EXPECT_EQ(m.row(x)[k].route, *want) << x << " -> " << y;
        ++k;
      }
      EXPECT_EQ(k, m.row(x).size());
    }
  }
}

TEST(RouteGraphDifferential, LengthCountsMatchPerPairOnEveryPreset) {
  for (const PresetCase& c : kPresets) {
    gm::Cluster cluster(mapped_config(c.preset, c.nodes, c.radix));
    mapper::Mapper m(cluster.node(0));
    bool ok = false;
    m.run([&](bool r) { ok = r; });
    cluster.run_until_idle();
    ASSERT_TRUE(ok) << name_of(c);
    EXPECT_EQ(m.route_length_counts(), per_pair_length_counts(m))
        << name_of(c);
  }
}

// Reference: the builder's per-source dense BFS as it was, over its
// switch adjacency, ending each route with the destination's host port.
std::vector<Bytes> reference_fabric_row(const net::FabricBuilder& fb,
                                        std::size_t a) {
  const RouteGraph& g = fb.route_graph();
  const std::size_t nsw = fb.num_switches();
  std::vector<std::uint16_t> local(fb.placements().size());
  std::vector<std::vector<std::pair<std::uint16_t, std::uint8_t>>> adj(nsw);
  for (std::size_t s = 0; s < nsw; ++s) {
    for (const RouteGraph::Edge& e :
         g.neighbours(static_cast<RouteGraph::Vertex>(s))) {
      if (e.to < nsw) {
        adj[s].emplace_back(static_cast<std::uint16_t>(e.to), e.out_port);
      } else {
        local[e.to - nsw] = static_cast<std::uint16_t>(s);
      }
    }
  }
  struct Hop {
    std::uint16_t parent;
    std::uint8_t out_port;
  };
  std::vector<std::optional<Hop>> prev(nsw);
  const std::uint16_t src = local[a];
  std::deque<std::uint16_t> q{src};
  prev[src] = Hop{src, 0};
  while (!q.empty()) {
    const std::uint16_t u = q.front();
    q.pop_front();
    for (const auto& [to, port] : adj[u]) {
      if (prev[to].has_value()) continue;
      prev[to] = Hop{u, port};
      q.push_back(to);
    }
  }
  std::vector<Bytes> out(fb.placements().size());
  for (std::size_t b = 0; b < out.size(); ++b) {
    if (b == a || !prev[local[b]].has_value()) continue;
    Bytes rev{fb.placements()[b].port};
    for (std::uint16_t cur = local[b]; cur != src; cur = prev[cur]->parent) {
      rev.push_back(prev[cur]->out_port);
    }
    out[b].assign(rev.rbegin(), rev.rend());
  }
  return out;
}

void expect_fabric_rows_match(const net::FabricBuilder& fb,
                              const std::string& what) {
  for (std::size_t a = 0; a < fb.placements().size(); ++a) {
    const auto ref = reference_fabric_row(fb, a);
    const auto row = fb.routes_from(static_cast<net::NodeId>(a));
    for (std::size_t b = 0; b < ref.size(); ++b) {
      EXPECT_EQ(row[b], ref[b]) << what << ": " << a << " -> " << b;
      const auto single = fb.route(static_cast<net::NodeId>(a),
                                   static_cast<net::NodeId>(b));
      EXPECT_EQ(single.value_or(net::Route{}), ref[b])
          << what << ": " << a << " -> " << b;
    }
  }
}

TEST(RouteGraphDifferential, FabricRowsMatchReferenceOnEveryPreset) {
  for (const PresetCase& c : kPresets) {
    sim::EventQueue eq;
    sim::Rng rng(1);
    net::Topology topo(eq, rng);
    net::FabricConfig fc;
    fc.preset = c.preset;
    fc.nodes = c.nodes;
    fc.radix = static_cast<std::uint8_t>(c.radix);
    net::FabricBuilder fb(topo, fc);
    expect_fabric_rows_match(fb, name_of(c));
    // Hot-adds extend the graph (and drop its cached trees); a released
    // port handed out again gives two placements the same plug.
    if (fb.reserve_port().has_value()) {
      fb.release_port(static_cast<net::NodeId>(fb.placements().size() - 1));
      ASSERT_TRUE(fb.reserve_port().has_value());
      expect_fabric_rows_match(fb, name_of(c) + " after hot-add");
    }
  }
}

// The work gate. soak64's fabric: 64 nodes on a radix-10 fat-tree are 13
// leaves of up to five hosts plus five spines.
gm::ClusterConfig soak_fabric() {
  return mapped_config(FabricPreset::kFatTree, 64, 10);
}

TEST(RouteGraphWork, OneTreePerAttachSwitchPerEpoch) {
  gm::Cluster cluster(soak_fabric());
  mapper::Mapper m(cluster.node(0));
  bool ok = false;
  m.run([&](bool r) { ok = r; });
  cluster.run_until_idle();
  ASSERT_TRUE(ok);
  ASSERT_EQ(m.interfaces().size(), 64u);
  ASSERT_EQ(m.num_switches(), 18u);
  // compute_and_distribute: the home routes and all 64 table rows.
  EXPECT_EQ(m.route_graph().trees_built(), 13u);
  // Queries against the unchanged graph reuse the trees.
  const auto counts = m.route_length_counts();
  EXPECT_EQ(counts.at(1) + counts.at(3), 64u * 63u);
  EXPECT_TRUE(m.route_between(7, 60).has_value());
  EXPECT_EQ(m.route_graph().trees_built(), 13u);
}

TEST(RouteGraphWork, RemapRecordsRouteLengthsWithoutAnotherBfs) {
  gm::Cluster cluster(soak_fabric());
  mapper::FailoverManager fm(cluster);
  bool ok = false;
  fm.remap_now([&](bool r) { ok = r; });
  cluster.run_until_idle();
  ASSERT_TRUE(ok);
  // The epoch's 13 trees feed both the tables and record_route_lengths.
  EXPECT_EQ(fm.mapper().route_graph().trees_built(), 13u);
  const auto* lens = cluster.metrics().find_histogram("fabric.route_len_hops");
  ASSERT_NE(lens, nullptr);
  EXPECT_EQ(lens->count(), 64u * 63u);
}

}  // namespace
}  // namespace myri
