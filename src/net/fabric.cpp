#include "net/fabric.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace myri::net {

const char* to_string(FabricPreset p) {
  switch (p) {
    case FabricPreset::kSingleSwitch: return "single";
    case FabricPreset::kLine: return "line";
    case FabricPreset::kRing: return "ring";
    case FabricPreset::kFatTree: return "fat-tree";
    case FabricPreset::kFatTree3: return "fat-tree3";
  }
  return "?";
}

std::optional<FabricPreset> parse_fabric_preset(std::string_view s) {
  if (s == "single") return FabricPreset::kSingleSwitch;
  if (s == "line") return FabricPreset::kLine;
  if (s == "ring") return FabricPreset::kRing;
  if (s == "fat-tree" || s == "fattree") return FabricPreset::kFatTree;
  if (s == "fat-tree3" || s == "fattree3") return FabricPreset::kFatTree3;
  return std::nullopt;
}

namespace {
// Chains reserve the two highest ports for trunks; fat-trees split the
// radix evenly between hosts (low ports) and uplinks (high ports). A
// line's end-to-end route crosses every switch, one byte each, so a chain
// is as long as the longest route (Route::kMaxHops).
constexpr std::size_t kMaxSwitches = Route::kMaxHops;

// "p<pod><kind><index>", e.g. "p3e1". Built by appending: GCC 12 reports a
// false -Wrestrict for `"p" + std::to_string(pod)`, whose operator+
// inserts the literal in front of the temporary.
std::string pod_name(int pod, char kind, int index) {
  std::string name = "p";
  name += std::to_string(pod);
  name += kind;
  name += std::to_string(index);
  return name;
}
}  // namespace

std::size_t FabricBuilder::capacity(const FabricConfig& cfg) {
  const auto ports = [&]() -> std::size_t {
    switch (cfg.preset) {
      case FabricPreset::kSingleSwitch:
        return cfg.radix;
      case FabricPreset::kLine:
      case FabricPreset::kRing:
        if (cfg.radix < 3) return 0;
        return static_cast<std::size_t>(cfg.radix - 2) * kMaxSwitches;
      case FabricPreset::kFatTree:
        if (cfg.radix < 2) return 0;
        // One spine port per leaf; leaves bounded by the spine port counter.
        return static_cast<std::size_t>(cfg.radix / 2) * 255;
      case FabricPreset::kFatTree3: {
        if (cfg.radix < 2) return 0;
        // Canonical k-ary fat-tree: k pods of k/2 edge switches with k/2
        // hosts each — k³/4 endpoints (radix 16 ⇒ 1024).
        const std::size_t half = cfg.radix / 2;
        return half * half * cfg.radix;
      }
    }
    return 0;
  };
  // Every node id needs a slot in every card's route table.
  return std::min(ports(), kRouteTableBound);
}

FabricBuilder::FabricBuilder(Topology& topo, FabricConfig cfg)
    : topo_(topo), cfg_(cfg) {
  if (cfg_.nodes < 1) {
    throw std::invalid_argument("fabric needs at least one node");
  }
  if (static_cast<std::size_t>(cfg_.nodes) > capacity(cfg_)) {
    throw std::invalid_argument(
        std::string("fabric preset ") + to_string(cfg_.preset) + " radix " +
        std::to_string(cfg_.radix) + " cannot hold " +
        std::to_string(cfg_.nodes) + " nodes");
  }
  switch (cfg_.preset) {
    case FabricPreset::kSingleSwitch: build_single_switch(); break;
    case FabricPreset::kLine: build_chain(false); break;
    case FabricPreset::kRing: build_chain(true); break;
    case FabricPreset::kFatTree: build_fat_tree(); break;
    case FabricPreset::kFatTree3: build_fat_tree3(); break;
  }
  compute_tiers();
}

std::uint16_t FabricBuilder::add_switch(std::uint8_t ports,
                                        std::string name) {
  const std::uint16_t id = topo_.add_switch(ports, std::move(name));
  sw_ids_.push_back(id);
  graph_.add_vertex(true);
  return static_cast<std::uint16_t>(sw_ids_.size() - 1);  // local index
}

void FabricBuilder::add_trunk(std::uint16_t a, std::uint8_t port_a,
                              std::uint16_t b, std::uint8_t port_b) {
  trunks_.push_back(
      topo_.connect_switches(sw_ids_[a], port_a, sw_ids_[b], port_b));
  graph_.add_edge(a, b, port_a);
  graph_.add_edge(b, a, port_b);
}

Placement FabricBuilder::place(std::uint16_t s, std::uint8_t port) {
  // Endpoints follow every switch in the graph (see endpoint()): the
  // builders add all their switches before placing anyone.
  const Placement at{sw_ids_[s], port};
  placements_.push_back(at);
  local_index_.push_back(s);
  graph_.add_edge(s, graph_.add_vertex(false), port);
  return at;
}

void FabricBuilder::build_single_switch() {
  const std::uint16_t s = add_switch(cfg_.radix, "sw0");
  for (int i = 0; i < cfg_.nodes; ++i) {
    place(s, static_cast<std::uint8_t>(i));
  }
}

void FabricBuilder::build_chain(bool closed) {
  const int hosts_per = cfg_.radix - 2;
  const int num_sw = (cfg_.nodes + hosts_per - 1) / hosts_per;
  const std::uint8_t next_port = static_cast<std::uint8_t>(cfg_.radix - 2);
  const std::uint8_t prev_port = static_cast<std::uint8_t>(cfg_.radix - 1);
  for (int k = 0; k < num_sw; ++k) {
    add_switch(cfg_.radix, "sw" + std::to_string(k));
  }
  for (int k = 0; k + 1 < num_sw; ++k) {
    add_trunk(static_cast<std::uint16_t>(k), next_port,
              static_cast<std::uint16_t>(k + 1), prev_port);
  }
  if (closed && num_sw > 1) {
    add_trunk(static_cast<std::uint16_t>(num_sw - 1), next_port, 0,
              prev_port);
  }
  for (int i = 0; i < cfg_.nodes; ++i) {
    place(static_cast<std::uint16_t>(i / hosts_per),
          static_cast<std::uint8_t>(i % hosts_per));
  }
}

void FabricBuilder::build_fat_tree() {
  const int hosts_per_leaf = cfg_.radix / 2;
  const int uplinks = cfg_.radix / 2;
  const int leaves = (cfg_.nodes + hosts_per_leaf - 1) / hosts_per_leaf;
  // Leaves first (local 0..leaves-1), then spines. A spine carries one
  // port per leaf; spine j's port L cables to leaf L's uplink j.
  for (int l = 0; l < leaves; ++l) {
    add_switch(cfg_.radix, "leaf" + std::to_string(l));
  }
  for (int j = 0; j < uplinks; ++j) {
    add_switch(static_cast<std::uint8_t>(leaves),
               "spine" + std::to_string(j));
  }
  for (int l = 0; l < leaves; ++l) {
    for (int j = 0; j < uplinks; ++j) {
      add_trunk(static_cast<std::uint16_t>(l),
                static_cast<std::uint8_t>(hosts_per_leaf + j),
                static_cast<std::uint16_t>(leaves + j),
                static_cast<std::uint8_t>(l));
    }
  }
  for (int i = 0; i < cfg_.nodes; ++i) {
    place(static_cast<std::uint16_t>(i / hosts_per_leaf),
          static_cast<std::uint8_t>(i % hosts_per_leaf));
  }
}

void FabricBuilder::build_fat_tree3() {
  // Canonical k-ary fat-tree with k = radix. Pods hold k/2 edge switches
  // (low ports: hosts, high ports: uplinks to every agg in the pod) and
  // k/2 agg switches (low ports: one per edge, high ports: uplinks to
  // cores). Core c of agg-column a cables port p to pod p's agg a — the
  // (a, c) core grid gives (k/2)² disjoint spines between any two pods.
  const int half = cfg_.radix / 2;
  const int hosts_per_pod = half * half;
  const int pods = (cfg_.nodes + hosts_per_pod - 1) / hosts_per_pod;
  for (int p = 0; p < pods; ++p) {
    for (int e = 0; e < half; ++e) add_switch(cfg_.radix, pod_name(p, 'e', e));
    for (int a = 0; a < half; ++a) add_switch(cfg_.radix, pod_name(p, 'a', a));
  }
  const int core_base = pods * 2 * half;
  for (int a = 0; a < half; ++a) {
    for (int c = 0; c < half; ++c) {
      add_switch(cfg_.radix,
                 "core" + std::to_string(a) + "x" + std::to_string(c));
    }
  }
  for (int p = 0; p < pods; ++p) {
    const int base = p * 2 * half;
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        add_trunk(static_cast<std::uint16_t>(base + e),
                  static_cast<std::uint8_t>(half + a),
                  static_cast<std::uint16_t>(base + half + a),
                  static_cast<std::uint8_t>(e));
      }
    }
  }
  for (int p = 0; p < pods; ++p) {
    const int base = p * 2 * half;
    for (int a = 0; a < half; ++a) {
      for (int c = 0; c < half; ++c) {
        add_trunk(static_cast<std::uint16_t>(base + half + a),
                  static_cast<std::uint8_t>(half + c),
                  static_cast<std::uint16_t>(core_base + a * half + c),
                  static_cast<std::uint8_t>(p));
      }
    }
  }
  for (int i = 0; i < cfg_.nodes; ++i) {
    const int p = i / hosts_per_pod;
    const int e = (i % hosts_per_pod) / half;
    place(static_cast<std::uint16_t>(p * 2 * half + e),
          static_cast<std::uint8_t>(i % half));
  }
}

void FabricBuilder::compute_tiers() {
  // Route length (bytes) == switches traversed: the switch-to-switch
  // route's bytes (one per switch left) plus the destination switch's.
  // tiers_ is the worst case over switches that actually host nodes; the
  // trees built here are the ones routes_from() reads later.
  std::size_t worst = 0;
  std::vector<std::uint16_t> hosting(local_index_);
  std::sort(hosting.begin(), hosting.end());
  hosting.erase(std::unique(hosting.begin(), hosting.end()), hosting.end());
  for (const std::uint16_t src : hosting) {
    for (const std::uint16_t dst : hosting) {
      if (const auto len = graph_.route_len(src, dst)) {
        worst = std::max(worst, *len);
      }
    }
  }
  tiers_ = static_cast<int>(worst) + 1;
}

std::vector<std::vector<bool>> FabricBuilder::port_usage() const {
  std::vector<std::vector<bool>> used(sw_ids_.size());
  for (std::size_t s = 0; s < sw_ids_.size(); ++s) {
    used[s].assign(topo_.get_switch(sw_ids_[s]).num_ports(), false);
    for (const RouteGraph::Edge& e : graph_.neighbours(
             static_cast<RouteGraph::Vertex>(s))) {
      if (graph_.emits(e.to)) used[s][e.out_port] = true;  // trunks only
    }
  }
  // placements_ store topology switch ids; map back to local indices.
  std::vector<std::size_t> local(sw_ids_.size());
  for (std::size_t s = 0; s < sw_ids_.size(); ++s) local[sw_ids_[s]] = s;
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (i < released_.size() && released_[i]) continue;  // retired: reusable
    used[local[placements_[i].sw]][placements_[i].port] = true;
  }
  return used;
}

void FabricBuilder::release_port(NodeId id) {
  if (id >= placements_.size()) return;
  if (released_.size() < placements_.size()) {
    released_.resize(placements_.size(), false);
  }
  released_[id] = true;
}

std::optional<Placement> FabricBuilder::reserve_port() {
  if (placements_.size() >= kRouteTableBound) return std::nullopt;
  const auto used = port_usage();
  for (std::size_t s = 0; s < sw_ids_.size(); ++s) {
    for (std::size_t p = 0; p < used[s].size(); ++p) {
      if (used[s][p]) continue;
      return place(static_cast<std::uint16_t>(s),
                   static_cast<std::uint8_t>(p));
    }
  }
  return std::nullopt;
}

std::size_t FabricBuilder::free_ports() const {
  std::size_t n = 0;
  for (const auto& sw : port_usage()) {
    for (const bool u : sw) n += u ? 0 : 1;
  }
  return n;
}

std::optional<Route> FabricBuilder::route(NodeId a, NodeId b) const {
  if (a == b) return std::nullopt;
  if (a >= placements_.size() || b >= placements_.size()) {
    return std::nullopt;
  }
  // Switch bytes from a's switch, ending with b's host port at its own.
  return graph_.route(local_index_[a], endpoint(b));
}

std::vector<Route> FabricBuilder::routes_from(NodeId a) const {
  std::vector<Route> out(placements_.size());
  if (a >= placements_.size()) return out;
  // One pass over the tree of a's switch; each endpoint's route ends
  // with its host port.
  RouteGraph::Row row;
  graph_.routes_from(local_index_[a], row);
  for (std::size_t b = 0; b < placements_.size(); ++b) {
    const RouteGraph::Vertex v = endpoint(static_cast<NodeId>(b));
    if (b != a && row.reached[v] != 0) out[b] = std::move(row.route[v]);
  }
  return out;
}

}  // namespace myri::net
