// A node's source-route table, one slot per destination NodeId.
//
// The card's table (lanai::Nic) and the driver's mirror of it
// (core::Driver) are both a RouteTable: a flat array indexed by NodeId
// with a presence bit per slot and a count of present routes. A present
// route may be empty: two cards cabled back to back reach each other with
// a zero-byte route.
//
// The array grows to the highest destination installed and never past
// kRouteTableBound slots. A MAP_ROUTE entry names its destination in a
// 16-bit field, so a corrupt or hostile entry (dst 0xffff, say) must not
// grow a table to 64 K slots: an entry at or past the bound is refused
// and counted instead (DESIGN.md section 11).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "net/route.hpp"

namespace myri::net {

/// Destinations a route table holds: NodeIds 0 .. kRouteTableBound - 1.
/// Fabrics are capped to it (FabricBuilder::capacity), so every node of
/// a built cluster has a slot.
inline constexpr std::size_t kRouteTableBound = 4096;

class RouteTable {
 public:
  /// Install (or overwrite) the route to `dst`; an overwrite reuses the
  /// slot's buffer. Returns false, and counts the entry in refused(),
  /// when `dst` is at or past kRouteTableBound.
  bool set(NodeId dst, std::span<const std::uint8_t> route) {
    if (dst >= kRouteTableBound) {
      ++refused_;
      return false;
    }
    if (dst >= routes_.size()) grow(dst);
    routes_[dst].assign(route);
    std::uint64_t& word = present_[dst / 64];
    const std::uint64_t bit = std::uint64_t{1} << (dst % 64);
    if ((word & bit) == 0) {
      word |= bit;
      ++count_;
    }
    return true;
  }

  /// The route to `dst`, or nullptr when none is installed.
  [[nodiscard]] const Route* find(NodeId dst) const noexcept {
    return present(dst) ? &routes_[dst] : nullptr;
  }
  [[nodiscard]] bool contains(NodeId dst) const noexcept {
    return find(dst) != nullptr;
  }
  /// Routes installed.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Slots allocated: more than the highest destination ever installed,
  /// never more than kRouteTableBound.
  [[nodiscard]] std::size_t slots() const noexcept { return routes_.size(); }
  /// Entries refused for a destination at or past the bound, over the
  /// table's whole life (clear() keeps counting).
  [[nodiscard]] std::uint64_t refused() const noexcept { return refused_; }

  /// Forget every route; the slots and their buffers stay for reuse.
  void clear() noexcept {
    std::fill(present_.begin(), present_.end(), std::uint64_t{0});
    count_ = 0;
  }

  /// Call f(dst, route) for each installed route, by ascending dst.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t d = 0; d < routes_.size(); ++d) {
      if (present(static_cast<NodeId>(d))) {
        f(static_cast<NodeId>(d), routes_[d]);
      }
    }
  }

 private:
  [[nodiscard]] bool present(NodeId dst) const noexcept {
    return dst < routes_.size() &&
           (present_[dst / 64] >> (dst % 64) & 1) != 0;
  }

  /// Room for `dst`: at least doubling, capped at the bound, so the
  /// capacity never exceeds kRouteTableBound either.
  void grow(NodeId dst) {
    const std::size_t n = std::min(
        kRouteTableBound,
        std::max<std::size_t>(std::size_t{dst} + 1, 2 * routes_.size()));
    routes_.reserve(n);
    routes_.resize(n);
    present_.resize((n + 63) / 64);
  }

  // Routes by destination, and a presence bit per destination beside
  // them: a flag in each slot would pad a 24-byte route to 32.
  std::vector<Route> routes_;
  std::vector<std::uint64_t> present_;
  std::size_t count_ = 0;
  std::uint64_t refused_ = 0;
};

}  // namespace myri::net
