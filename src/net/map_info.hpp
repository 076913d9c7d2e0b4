// Payload carried by mapper scout replies.
//
// When a MAP_SCOUT's route ends at a device, the device answers with a
// MAP_REPLY describing itself, sent back along the reversed walked route.
// This mirrors how the GM mapper discovers Myrinet topologies by probing
// routes and reading back device identities.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "net/route.hpp"

namespace myri::net {

enum class DeviceKind : std::uint8_t { kSwitch = 1, kInterface = 2 };

namespace detail {

inline void put_u16(std::byte* out, std::uint16_t v) {
  out[0] = std::byte{static_cast<unsigned char>(v & 0xff)};
  out[1] = std::byte{static_cast<unsigned char>(v >> 8)};
}

inline void put_u32(std::byte* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = std::byte{static_cast<unsigned char>((v >> (8 * i)) & 0xff)};
  }
}

inline std::uint16_t get_u16(std::span<const std::byte> p, std::size_t i) {
  return static_cast<std::uint16_t>(std::to_integer<unsigned>(p[i]) |
                                    std::to_integer<unsigned>(p[i + 1]) << 8);
}

inline std::uint32_t get_u32(std::span<const std::byte> p, std::size_t i) {
  std::uint32_t v = 0;
  for (int k = 3; k >= 0; --k) {
    v = v << 8 | std::to_integer<std::uint32_t>(p[i + static_cast<unsigned>(k)]);
  }
  return v;
}

/// Route bytes stored in a payload, viewed as port numbers.
inline std::span<const std::uint8_t> as_ports(std::span<const std::byte> p) {
  return {reinterpret_cast<const std::uint8_t*>(p.data()), p.size()};
}

}  // namespace detail

struct MapReplyInfo {
  DeviceKind kind = DeviceKind::kInterface;
  std::uint16_t id = 0;      // switch id or interface NodeId
  std::uint8_t ports = 1;    // port count (1 for interfaces)
  /// Input ports the scout recorded on its way here; lets the mapper learn
  /// the far end of each cable (switch port <-> switch port).
  Route walked;

  [[nodiscard]] std::vector<std::byte> encode() const {
    std::vector<std::byte> out(5 + walked.size());
    out[0] = std::byte{static_cast<unsigned char>(kind)};
    detail::put_u16(&out[1], id);
    out[3] = std::byte{ports};
    out[4] = std::byte{static_cast<unsigned char>(walked.size())};
    if (!walked.empty()) std::memcpy(&out[5], walked.data(), walked.size());
    return out;
  }

  /// A short payload decodes to the defaults; a walked list cut short by
  /// the payload's end keeps the bytes that are there.
  static MapReplyInfo decode(std::span<const std::byte> p) {
    MapReplyInfo info;
    if (p.size() >= 5) {
      info.kind = static_cast<DeviceKind>(p[0]);
      info.id = detail::get_u16(p, 1);
      info.ports = std::to_integer<std::uint8_t>(p[3]);
      const auto n = std::to_integer<std::size_t>(p[4]);
      info.walked.assign(
          detail::as_ports(p.subspan(5, std::min(n, p.size() - 5))));
    }
    return info;
  }
};

/// Route back to the prober: reverse the recorded input ports.
inline Route reverse_route(const Route& walked) {
  Route r = walked;
  std::reverse(r.begin(), r.end());
  return r;
}

/// Route-table entry carried in MAP_ROUTE packets.
struct RouteEntry {
  NodeId dst = kInvalidNode;
  Route route;
};

/// Sentinel chunk index in a MAP_ROUTE_ACK answering an epoch probe
/// (a MAP_ROUTE with nchunks == 0) rather than a data chunk.
inline constexpr std::uint16_t kProbeChunk = 0xffff;

/// MAP_ROUTE header: epoch (4 bytes), chunk (2), nchunks (2). Each entry
/// that follows is dst (2), route length (1) and the route bytes.
inline constexpr std::size_t kRouteUpdateHeader = 8;

/// Payload of a MAP_ROUTE packet as the mapper sends it: one chunk of an
/// epoch-stamped route table push. `nchunks == 0` is an epoch probe: no
/// entries, the receiver just reports (and, if behind, flags) its
/// installed epoch. The entries are a view of the sender's table rows.
struct RouteUpdate {
  std::uint32_t epoch = 0;
  std::uint16_t chunk = 0;    // index of this chunk within the push
  std::uint16_t nchunks = 0;  // total chunks in the push (0 = probe)
  std::span<const RouteEntry> entries;

  [[nodiscard]] std::vector<std::byte> encode() const {
    std::size_t size = kRouteUpdateHeader;
    for (const RouteEntry& e : entries) size += 3 + e.route.size();
    std::vector<std::byte> out(size);
    detail::put_u32(&out[0], epoch);
    detail::put_u16(&out[4], chunk);
    detail::put_u16(&out[6], nchunks);
    std::byte* w = out.data() + kRouteUpdateHeader;
    for (const RouteEntry& e : entries) {
      detail::put_u16(w, e.dst);
      w[2] = std::byte{static_cast<unsigned char>(e.route.size())};
      if (!e.route.empty()) std::memcpy(w + 3, e.route.data(), e.route.size());
      w += 3 + e.route.size();
    }
    return out;
  }
};

/// A received MAP_ROUTE payload, read in place: the header, and a walk
/// over the entries that hands out each route as a span of the payload.
/// Nothing is copied or allocated; the view must not outlive the payload.
class RouteUpdateView {
 public:
  /// A payload shorter than the header reads as epoch 0, chunk 0, a
  /// probe with no entries.
  explicit RouteUpdateView(std::span<const std::byte> payload)
      : p_(payload) {
    if (p_.size() < kRouteUpdateHeader) {
      p_ = {};
      return;
    }
    epoch = detail::get_u32(p_, 0);
    chunk = detail::get_u16(p_, 4);
    nchunks = detail::get_u16(p_, 6);
  }

  std::uint32_t epoch = 0;
  std::uint16_t chunk = 0;
  std::uint16_t nchunks = 0;

  /// Call f(dst, route bytes) for each entry in order. A truncated or
  /// corrupt tail ends the walk at the last whole entry.
  template <typename F>
  void for_each(F&& f) const {
    std::size_t i = kRouteUpdateHeader;
    while (i + 3 <= p_.size()) {
      const auto dst = static_cast<NodeId>(detail::get_u16(p_, i));
      const auto len = std::to_integer<std::size_t>(p_[i + 2]);
      i += 3;
      if (i + len > p_.size()) break;
      f(dst, detail::as_ports(p_.subspan(i, len)));
      i += len;
    }
  }

 private:
  std::span<const std::byte> p_;
};

/// Payload of a MAP_ROUTE_ACK. `epoch`/`chunk` echo the MAP_ROUTE being
/// acknowledged (kProbeChunk for probes); `installed_epoch` is the last
/// epoch the node holds *completely*. `announce` marks an unsolicited
/// post-recovery epoch announcement (node -> mapper), which the mapper
/// answers with a re-push when the node is behind.
struct RouteAck {
  std::uint32_t epoch = 0;
  std::uint16_t chunk = 0;
  std::uint32_t installed_epoch = 0;
  bool announce = false;

  static constexpr std::size_t kSize = 11;

  [[nodiscard]] std::vector<std::byte> encode() const {
    std::vector<std::byte> out(kSize);
    detail::put_u32(&out[0], epoch);
    detail::put_u16(&out[4], chunk);
    detail::put_u32(&out[6], installed_epoch);
    out[10] = std::byte{static_cast<unsigned char>(announce ? 1 : 0)};
    return out;
  }

  static RouteAck decode(std::span<const std::byte> p) {
    RouteAck a;
    if (p.size() < kSize) return a;
    a.epoch = detail::get_u32(p, 0);
    a.chunk = detail::get_u16(p, 4);
    a.installed_epoch = detail::get_u32(p, 6);
    a.announce = std::to_integer<unsigned>(p[10]) != 0;
    return a;
  }
};

}  // namespace myri::net
