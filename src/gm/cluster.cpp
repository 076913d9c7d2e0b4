#include "gm/cluster.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace myri::gm {

metrics::Registry& Cluster::metrics() {
  for (auto& n : nodes_) n->mcp().catch_up();
  for (auto& n : quarantined_) n->mcp().catch_up();
  for (const net::Link* l : topo_->links()) l->settle();
  return metrics_;
}

Cluster::Cluster(const ClusterConfig& cfg) : rng_(cfg.seed), cfg_(cfg) {
  if (cfg.nodes < 1) {
    throw std::invalid_argument("cluster needs at least one node");
  }
  topo_ = std::make_unique<net::Topology>(eq_, rng_);

  net::FabricConfig fc;
  fc.preset = cfg.fabric;
  fc.nodes = cfg.nodes;
  fc.radix = cfg.switch_ports;
  fabric_ = std::make_unique<net::FabricBuilder>(*topo_, fc);

  for (int i = 0; i < cfg.nodes; ++i) {
    nodes_.push_back(build_node(static_cast<net::NodeId>(i),
                                "node" + std::to_string(i)));
    const net::Placement& at = fabric_->placements()[i];
    nodes_.back()->attach(*topo_, at.sw, at.port);
    nodes_.back()->bind_metrics(metrics_);
  }
  topo_->set_all_faults(cfg.faults);
  topo_->bind_metrics(metrics_);

  if (cfg.install_routes) {
    // Pristine routes straight from the builder's graph (the mapper would
    // compute the same ones on an undamaged fabric, minus the discovery).
    // Rows read the builder's cached per-switch BFS trees: one BFS per
    // hosting switch for the whole table, not one per node or per pair.
    for (int a = 0; a < cfg.nodes; ++a) {
      auto row = fabric_->routes_from(static_cast<net::NodeId>(a));
      for (int b = 0; b < cfg.nodes; ++b) {
        if (a == b || row[static_cast<std::size_t>(b)].empty()) continue;
        nodes_[a]->install_route(static_cast<net::NodeId>(b),
                                 std::move(row[static_cast<std::size_t>(b)]));
      }
    }
  }
  if (cfg.boot) {
    for (auto& n : nodes_) n->boot();
  }

  std::vector<net::NodeId> seed;
  seed.reserve(nodes_.size());
  for (int i = 0; i < cfg.nodes; ++i) {
    seed.push_back(static_cast<net::NodeId>(i));
  }
  roster_.seed(seed, eq_.now());
  roster_.set_observer([this](const RosterEvent& ev) { on_roster_event(ev); });
  metrics_.gauge("cluster.membership_epoch")
      .set(static_cast<std::int64_t>(roster_.epoch()));
}

std::unique_ptr<Node> Cluster::build_node(net::NodeId id,
                                          const std::string& name) {
  Node::Config nc;
  nc.id = id;
  nc.mode = cfg_.mode;
  nc.timing = cfg_.timing;
  nc.host_mem_bytes = cfg_.host_mem_bytes;
  nc.send_window = cfg_.send_window;
  nc.rto = cfg_.rto;
  nc.ftgm_delayed_ack = cfg_.ftgm_delayed_ack;
  return std::make_unique<Node>(eq_, nc, name, ++boards_built_);
}

void Cluster::install_pristine_routes(net::NodeId id) {
  // Both directions: the new card's full row, and a route to it on every
  // existing member (per-switch trees, shared across those members). A
  // live mapper overwrites these at its next epoch.
  auto row = fabric_->routes_from(id);
  for (std::size_t b = 0; b < row.size(); ++b) {
    if (b == id || row[b].empty()) continue;
    nodes_[id]->install_route(static_cast<net::NodeId>(b),
                              std::move(row[b]));
  }
  for (std::size_t a = 0; a < nodes_.size(); ++a) {
    if (a == id || !roster_.is_member(static_cast<net::NodeId>(a))) continue;
    if (auto r = fabric_->route(static_cast<net::NodeId>(a), id)) {
      nodes_[a]->install_route(id, std::move(*r));
    }
  }
}

void Cluster::on_roster_event(const RosterEvent& ev) {
  metrics_.gauge("cluster.membership_epoch")
      .set(static_cast<std::int64_t>(roster_.epoch()));
  if (membership_listener_) membership_listener_(ev);
}

net::NodeId Cluster::add_node() {
  const auto at = fabric_->reserve_port();
  if (!at) {
    throw std::runtime_error("add_node: fabric has no free switch port");
  }
  const auto id = static_cast<net::NodeId>(nodes_.size());
  nodes_.push_back(build_node(id, "node" + std::to_string(id)));
  Node& n = *nodes_.back();
  // reattach, not attach: the port may be recycled from a retired node
  // (release_port in retire_now) whose endpoint is still plugged in, down.
  // On a virgin port reattach degrades to a plain attach.
  n.reattach(*topo_, at->sw, at->port);
  topo_->set_endpoint_faults(at->sw, at->port, cfg_.faults);
  n.bind_metrics(metrics_);
  if (cfg_.install_routes) install_pristine_routes(id);
  if (cfg_.boot) n.boot();
  roster_.join(id, eq_.now());
  return id;
}

void Cluster::drain_node(net::NodeId x, sim::Time quiet_window,
                         std::function<void(net::NodeId)> on_retired) {
  roster_.drain(x, eq_.now());  // throws if x is not a member
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (static_cast<net::NodeId>(i) == x) continue;
    nodes_[i]->set_dst_draining(x, true);
  }
  auto quiet_since = std::make_shared<sim::Time>(0);
  poll_drain(x, quiet_window, std::move(quiet_since), std::move(on_retired));
}

void Cluster::poll_drain(net::NodeId x, sim::Time quiet_window,
                         std::shared_ptr<sim::Time> quiet_since,
                         std::function<void(net::NodeId)> on_retired) {
  // Quiescent: no member still has unacked fragments in flight to x, and
  // x's own send streams are fully acknowledged. The quiet window guards
  // against sampling the gap between two fragments of a live stream.
  bool quiet = nodes_[x]->mcp().sends_quiescent();
  for (std::size_t i = 0; quiet && i < nodes_.size(); ++i) {
    if (static_cast<net::NodeId>(i) == x ||
        !roster_.is_member(static_cast<net::NodeId>(i))) {
      continue;
    }
    if (nodes_[i]->mcp().has_unacked_to(x)) quiet = false;
  }
  if (!quiet) {
    *quiet_since = 0;
  } else if (*quiet_since == 0) {
    *quiet_since = eq_.now();
  } else if (eq_.now() - *quiet_since >= quiet_window) {
    retire_now(x, std::move(on_retired));
    return;
  }
  eq_.post_after(sim::msec(1), [this, x, quiet_window, quiet_since,
                                on_retired = std::move(on_retired)]() mutable {
    poll_drain(x, quiet_window, std::move(quiet_since),
               std::move(on_retired));
  });
}

void Cluster::retire_now(net::NodeId x,
                         std::function<void(net::NodeId)> on_retired) {
  const net::Placement& at = fabric_->placements()[x];
  topo_->set_endpoint_down(at.sw, at.port, true);
  // Give the switch port back: sustained join/drain churn (soak mode)
  // would otherwise exhaust the as-built free ports after a handful of
  // hot-adds. The retired card stays plugged into its (down) links until
  // a later add_node re-points the port.
  fabric_->release_port(x);
  roster_.retire(x, eq_.now());
  if (on_retired) on_retired(x);
}

Node& Cluster::replace_node(net::NodeId x) {
  if (!roster_.is_member(x)) {
    throw std::invalid_argument("replace_node: node " + std::to_string(x) +
                                " is not a member");
  }
  const net::Placement at = fabric_->placements()[x];
  // Quarantine the dead card: scheduled events may still hold pointers
  // into it, so it must outlive the simulation. Its cable is cut by
  // reattach_endpoint below.
  quarantined_.push_back(std::move(nodes_[x]));
  ++replace_gen_;
  nodes_[x] = build_node(x, "node" + std::to_string(x) + "r" +
                                std::to_string(replace_gen_));
  Node& spare = *nodes_[x];
  spare.reattach(*topo_, at.sw, at.port);
  topo_->set_endpoint_faults(at.sw, at.port, cfg_.faults);
  spare.bind_metrics(metrics_);
  if (cfg_.install_routes) install_pristine_routes(x);
  if (cfg_.boot) spare.boot();
  roster_.replace(x, eq_.now());
  return spare;
}

void Cluster::set_trace(sim::Trace* t) {
  topo_->set_trace(t);
  for (auto& n : nodes_) n->set_trace(t);
}

}  // namespace myri::gm
