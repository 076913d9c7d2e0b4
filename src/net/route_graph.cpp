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

const std::vector<RouteGraph::Hop>& RouteGraph::tree(Vertex root) const {
  std::vector<Hop>& t = trees_[root];
  if (tree_version_[root] == version_) return t;
  tree_version_[root] = version_;
  ++trees_built_;
  t.assign(size_, Hop{});
  t[root].parent = root;
  frontier_.assign(1, root);
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const Vertex u = frontier_[head];
    const std::uint32_t len = t[u].len + emits_[u];
    for (const Edge& e : adj_[u]) {
      if (t[e.to].parent != kUnreached) continue;
      t[e.to] = {u, len, e.out_port};
      frontier_.push_back(e.to);
    }
  }
  return t;
}

std::optional<Route> RouteGraph::route(Vertex src, Vertex dst) const {
  if (src == dst || src >= size_ || dst >= size_) return std::nullopt;
  const Vertex root = tree_root(src);
  const std::vector<Hop>& t = tree(root);
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
  const std::vector<Hop>& t = tree(tree_root(src));
  if (t[dst].parent == kUnreached) return std::nullopt;
  return t[dst].len;
}

}  // namespace myri::net
