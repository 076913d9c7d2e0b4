// Fabric builder: preset multi-switch topologies with computed placement.
//
// Assembles switches and trunk cables in a Topology from a small recipe
// (single switch, line, ring, 2-level fat-tree/Clos) and computes where
// each endpoint plugs in, so a cluster is no longer bounded by one
// switch's ports. The builder also keeps the as-built graph and can emit
// pristine source routes for direct installation (tests/benches skipping
// the mapper); live fabrics learn and re-learn routes from the mapper,
// which is what routes around failed cables.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "net/route_graph.hpp"
#include "net/route_table.hpp"
#include "net/topology.hpp"

namespace myri::net {

enum class FabricPreset : std::uint8_t {
  kSingleSwitch,  // one switch, node i on port i (the seed testbed)
  kLine,          // chain of switches, no redundancy
  kRing,          // chain closed into a loop: one redundant path
  kFatTree,       // 2-level Clos: leaf switches + radix/2 spines
  kFatTree3,      // 3-level Clos (k-ary fat-tree): edge/agg pods + cores
};

[[nodiscard]] const char* to_string(FabricPreset p);
[[nodiscard]] std::optional<FabricPreset> parse_fabric_preset(
    std::string_view s);

struct FabricConfig {
  FabricPreset preset = FabricPreset::kSingleSwitch;
  int nodes = 2;
  /// Ports per edge switch (the Myrinet switch radix). Fat-tree spines are
  /// wider: one port per leaf, mirroring a Clos built from a bigger
  /// crossbar (or a quad of small ones) in the middle.
  std::uint8_t radix = 8;
};

/// Where the builder plugged endpoint (node) `i` in.
struct Placement {
  std::uint16_t sw = 0;
  std::uint8_t port = 0;
};

/// A preset's wiring, worked out without building it: the switches, the
/// trunk cables in creation order and each endpoint's port. Trunks and
/// endpoints refer to a switch by its index in `switches`. FabricBuilder
/// instantiates exactly this plan; code that needs only its counts (trunk
/// cables, free ports) reads them here instead of building a throwaway
/// fabric.
struct FabricPlan {
  struct Switch {
    std::uint8_t ports = 0;
    std::string name;
  };
  struct Trunk {
    std::uint16_t a = 0;
    std::uint8_t port_a = 0;
    std::uint16_t b = 0;
    std::uint8_t port_b = 0;
  };
  struct Endpoint {
    std::uint16_t sw = 0;  // local switch index
    std::uint8_t port = 0;
  };
  std::vector<Switch> switches;
  std::vector<Trunk> trunks;
  std::vector<Endpoint> endpoints;  // by node id

  /// Switch ports used by neither a trunk nor an endpoint (what
  /// FabricBuilder::free_ports() reads on the freshly built fabric).
  [[nodiscard]] std::size_t free_ports() const;
};

class FabricBuilder {
 public:
  /// Builds the preset into `topo` immediately (switches + trunk cables),
  /// from plan(cfg).
  /// Throws std::invalid_argument if `cfg` is unsatisfiable (node count
  /// over capacity, radix too small for the preset).
  FabricBuilder(Topology& topo, FabricConfig cfg);

  /// The wiring the constructor would build for `cfg`, with nothing
  /// built. Throws std::invalid_argument where the constructor would.
  [[nodiscard]] static FabricPlan plan(const FabricConfig& cfg);

  [[nodiscard]] const FabricConfig& config() const noexcept { return cfg_; }
  /// Endpoint placements, indexed by node id (0..nodes-1).
  [[nodiscard]] const std::vector<Placement>& placements() const noexcept {
    return placements_;
  }
  /// Inter-switch cables, in creation order (failover targets).
  [[nodiscard]] const std::vector<Topology::CableId>& trunk_cables()
      const noexcept {
    return trunks_;
  }
  [[nodiscard]] std::size_t num_switches() const noexcept {
    return sw_ids_.size();
  }
  /// Max switches any pristine minimal route traverses (= max route bytes:
  /// every traversed switch consumes one route byte). Fat-tree: 3.
  [[nodiscard]] int tiers() const noexcept { return tiers_; }

  /// Pristine shortest source route a -> b over the as-built graph (one
  /// output-port byte per traversed switch). nullopt when a == b or out
  /// of range. Ignores cable state: use the mapper on a degraded fabric.
  [[nodiscard]] std::optional<Route> route(NodeId a, NodeId b) const;

  /// Pristine shortest routes from `a` to every other endpoint, indexed
  /// by destination node id (empty route: self or unreachable). Rows and
  /// route() read the cached BFS tree of the source's switch, so full
  /// tables on an n-node cluster cost one BFS per hosting switch.
  [[nodiscard]] std::vector<Route> routes_from(NodeId a) const;

  /// The as-built graph: switches are vertices 0..num_switches()-1 (local
  /// order, trunks in creation order), endpoint i is vertex
  /// num_switches() + i, a leaf its switch reaches on its host port.
  [[nodiscard]] const RouteGraph& route_graph() const noexcept {
    return graph_;
  }

  /// Max endpoints the preset supports (0 = unsatisfiable config), never
  /// more than a route table holds (kRouteTableBound).
  [[nodiscard]] static std::size_t capacity(const FabricConfig& cfg);

  /// Reserve a free switch port for a hot-added endpoint: the first
  /// (switch, port) — in local switch order, then port order — occupied
  /// by neither a placement nor a trunk. Appends the placement (the new
  /// node id is placements().size() - 1) so route()/routes_from() cover
  /// it. nullopt when the as-built fabric has no free port, or the new
  /// id would fall past kRouteTableBound.
  std::optional<Placement> reserve_port();

  /// Ports reserve_port() could still hand out on the as-built switches.
  [[nodiscard]] std::size_t free_ports() const;

  /// Release the switch port behind placement `id` (a retired endpoint):
  /// reserve_port() may hand the same (switch, port) out again for a later
  /// hot-add, so sustained join/drain churn is not bounded by the as-built
  /// free-port count. The placement entry itself is kept — node ids stay
  /// stable and route()/routes_from() still index by id. No-op for ids out
  /// of range or already released.
  void release_port(NodeId id);

 private:
  std::vector<std::vector<bool>> port_usage() const;
  std::uint16_t add_switch(std::uint8_t ports, std::string name);
  void add_trunk(std::uint16_t a, std::uint8_t port_a, std::uint16_t b,
                 std::uint8_t port_b);
  /// Append endpoint placements().size() on local switch `s`, port `port`.
  Placement place(std::uint16_t s, std::uint8_t port);
  [[nodiscard]] RouteGraph::Vertex endpoint(NodeId i) const {
    return static_cast<RouteGraph::Vertex>(sw_ids_.size() + i);
  }
  void compute_tiers();

  Topology& topo_;
  FabricConfig cfg_;
  std::vector<Placement> placements_;
  std::vector<bool> released_;  // by node id: port given back by a retire
  std::vector<Topology::CableId> trunks_;
  std::vector<std::uint16_t> sw_ids_;       // local index -> topology id
  RouteGraph graph_;                        // switches, then endpoints
  std::vector<std::uint16_t> local_index_;  // by node id: placement switch
  int tiers_ = 1;
};

}  // namespace myri::net
