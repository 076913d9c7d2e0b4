// Dense source-route engine shared by the mapper and the fabric builder.
//
// A RouteGraph is a directed graph over dense vertex indices. Each vertex
// keeps its neighbour list in the order the caller added the edges, and a
// flag saying whether leaving it consumes a route byte (true for switches:
// the byte is the output port; an interface's single cable needs none).
// Routes come from breadth-first trees with a FIFO frontier, so among
// equal-length paths the first neighbour listed wins.
//
// Trees are built once per root and cached until the graph changes. A
// vertex that emits no byte and has exactly one out-edge (an interface on
// its switch) shares the tree of that neighbour: its BFS would visit the
// neighbour first and then expand exactly what the neighbour's own BFS
// expands, so every other vertex gets the same parent and the same route
// bytes (DESIGN.md section 9). A fabric of n interfaces on s switches
// therefore costs s BFS runs, not n.
//
// A whole row -- the route from one source to every vertex -- is read off
// the source's tree in one top-down pass (routes_from): each vertex's
// bytes are its parent's plus at most one port, so no route is walked
// back to the root.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/route.hpp"

namespace myri::net {

class RouteGraph {
 public:
  using Vertex = std::uint32_t;

  struct Edge {
    Vertex to;
    std::uint8_t out_port;  // port taken when leaving the source vertex
  };

  /// Drop every vertex, edge and cached tree (trees_built() keeps
  /// counting). Buffers are kept for the next build.
  void clear();
  /// Add a vertex; `emits` = leaving it consumes one route byte.
  Vertex add_vertex(bool emits);
  /// Append `from -> to` to `from`'s neighbour list.
  void add_edge(Vertex from, Vertex to, std::uint8_t out_port);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool emits(Vertex v) const { return emits_[v] != 0; }
  [[nodiscard]] std::span<const Edge> neighbours(Vertex v) const {
    return adj_[v];
  }

  /// Source route src -> dst: one byte per emitting vertex left on the
  /// way. nullopt when src == dst, either is out of range, or dst is
  /// unreachable.
  [[nodiscard]] std::optional<Route> route(Vertex src, Vertex dst) const;
  /// Byte count of route(src, dst), read from the tree without building
  /// the bytes.
  [[nodiscard]] std::optional<std::size_t> route_len(Vertex src,
                                                     Vertex dst) const;

  /// Every route from one source, by vertex: `reached[v]` says whether a
  /// route exists, `route[v]` holds it. Reused across calls.
  struct Row {
    std::vector<Route> route;
    std::vector<std::uint8_t> reached;
  };
  /// The vertex whose cached tree answers queries from `src`. Sources
  /// with the same root have the same routes to every vertex but
  /// themselves.
  [[nodiscard]] Vertex tree_root(Vertex src) const;
  /// Fill `out` with route(src, v) for every vertex v != src, in one
  /// top-down pass over src's tree. The entry at src itself is what the
  /// shared tree holds there (the root reaches itself with an empty
  /// route), so one row serves every source with the same tree_root();
  /// each source skips its own entry. An out-of-range src reaches
  /// nothing.
  void routes_from(Vertex src, Row& out) const;

  /// BFS trees built so far, over the graph's whole life: a work counter
  /// for tests and benchmarks, not a setting.
  [[nodiscard]] std::uint64_t trees_built() const noexcept {
    return trees_built_;
  }

 private:
  static constexpr Vertex kUnreached = ~Vertex{0};

  struct Hop {
    Vertex parent = kUnreached;  // the root is its own parent
    std::uint32_t len = 0;       // route bytes root -> this vertex
    std::uint8_t out_port = 0;   // port taken at the parent
  };

  struct Tree {
    std::vector<Hop> hops;      // by vertex
    std::vector<Vertex> order;  // reached vertices, in BFS order
  };

  [[nodiscard]] const Tree& tree(Vertex root) const;
  /// Every cached tree is stale after an edit.
  void changed() noexcept { ++version_; }

  std::size_t size_ = 0;  // vertices in use; the vectors below may be longer
  std::vector<std::uint8_t> emits_;
  std::vector<std::vector<Edge>> adj_;
  /// Tree of each root vertex, valid while its stamp equals version_.
  mutable std::vector<Tree> trees_;
  mutable std::vector<std::uint64_t> tree_version_;
  std::uint64_t version_ = 1;
  mutable std::uint64_t trees_built_ = 0;
};

}  // namespace myri::net
