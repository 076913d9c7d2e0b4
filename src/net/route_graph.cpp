#include "net/route_graph.hpp"

namespace myri::net {

void RouteGraph::clear() {
  size_ = 0;
  changed();
}

RouteGraph::Vertex RouteGraph::add_vertex(bool emits) {
  changed();
  if (size_ == emits_.size()) {
    emits_.emplace_back();
    adj_.emplace_back();
    trees_.emplace_back();
    tree_version_.push_back(0);
  }
  emits_[size_] = emits ? 1 : 0;
  adj_[size_].clear();
  return static_cast<Vertex>(size_++);
}

void RouteGraph::add_edge(Vertex from, Vertex to, std::uint8_t out_port) {
  changed();
  adj_[from].push_back({to, out_port});
}

RouteGraph::Vertex RouteGraph::tree_root(Vertex src) const {
  if (emits_[src] == 0 && adj_[src].size() == 1 && adj_[src][0].to != src) {
    return adj_[src][0].to;
  }
  return src;
}

const RouteGraph::Tree& RouteGraph::tree(Vertex root) const {
  Tree& t = trees_[root];
  if (tree_version_[root] == version_) return t;
  tree_version_[root] = version_;
  ++trees_built_;
  t.hops.assign(size_, Hop{});
  t.hops[root].parent = root;
  // The BFS queue is the tree's order: parents before their children.
  t.order.assign(1, root);
  for (std::size_t head = 0; head < t.order.size(); ++head) {
    const Vertex u = t.order[head];
    const std::uint32_t len = t.hops[u].len + emits_[u];
    for (const Edge& e : adj_[u]) {
      if (t.hops[e.to].parent != kUnreached) continue;
      t.hops[e.to] = {u, len, e.out_port};
      t.order.push_back(e.to);
    }
  }
  return t;
}

void RouteGraph::routes_from(Vertex src, Row& out) const {
  out.route.resize(size_);
  out.reached.assign(size_, 0);
  if (src >= size_) return;
  const Vertex root = tree_root(src);
  const Tree& t = tree(root);
  for (const Vertex v : t.order) {
    out.reached[v] = 1;
    Route& r = out.route[v];
    if (v == root) {
      r.clear();
      continue;
    }
    const Hop& h = t.hops[v];
    r = out.route[h.parent];
    if (emits_[h.parent] != 0) r.push_back(h.out_port);
  }
}

std::optional<Route> RouteGraph::route(Vertex src, Vertex dst) const {
  if (src == dst || src >= size_ || dst >= size_) return std::nullopt;
  const Vertex root = tree_root(src);
  const std::vector<Hop>& t = tree(root).hops;
  if (t[dst].parent == kUnreached) return std::nullopt;
  // Filled back to front: the tree already knows the length.
  Route bytes;
  bytes.resize(t[dst].len);
  std::size_t i = bytes.size();
  for (Vertex v = dst; v != root; v = t[v].parent) {
    if (emits_[t[v].parent] != 0) bytes[--i] = t[v].out_port;
  }
  return bytes;
}

std::optional<std::size_t> RouteGraph::route_len(Vertex src,
                                                 Vertex dst) const {
  if (src == dst || src >= size_ || dst >= size_) return std::nullopt;
  const std::vector<Hop>& t = tree(tree_root(src)).hops;
  if (t[dst].parent == kUnreached) return std::nullopt;
  return t[dst].len;
}

}  // namespace myri::net
