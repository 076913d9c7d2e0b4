// Myrinet-style packets.
//
// A packet carries a source route (one output-port byte consumed per switch
// hop), a GM protocol header, a payload, and a CRC covering both. Links can
// corrupt payload/header bits without fixing the CRC, which is how receivers
// detect damage, exactly as GM's MCP does on real hardware.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/crc32.hpp"
#include "net/route.hpp"

namespace myri::net {

/// Cluster-wide interface (node) identifier, assigned by the mapper.
using NodeId = std::uint16_t;

inline constexpr NodeId kInvalidNode = 0xffff;

/// GM fragments messages into packets of at most 4 KB (paper, Section 5.1).
inline constexpr std::uint32_t kMaxPacketPayload = 4096;

enum class PacketType : std::uint8_t {
  kData,      // message fragment
  kAck,       // cumulative acknowledgement for a stream
  kNack,      // negative ack carrying the expected sequence number
  kGetReq,    // gm_get: fetch from remote registered memory
  kMapScout,  // mapper topology probe
  kMapReply,  // mapper probe answer (carries reversed route)
  kMapRoute,  // mapper route-table distribution (epoch-stamped)
  kMapRouteAck,  // per-node acknowledgement of a MAP_ROUTE chunk/probe
  kControl,   // misc control (port open notifications etc.)
};

const char* to_string(PacketType t);

struct Packet {
  // --- routing ---
  Route route;   // remaining hops: output port per switch
  Route walked;  // input ports recorded per hop (scouts, route pushes)

  // --- protocol header ---
  PacketType type = PacketType::kData;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint8_t src_port = 0;   // GM port (0..7) on the sender
  std::uint8_t dst_port = 0;   // GM port (0..7) on the receiver
  std::uint8_t priority = 0;   // 0 = low, 1 = high
  std::uint32_t stream = 0;    // sequence-number stream id (see mcp/stream.hpp)
  std::uint32_t seq = 0;       // Go-Back-N sequence number (kData)
  std::uint32_t ack_seq = 0;   // cumulative ack / expected seq (kAck, kNack)
  std::uint32_t msg_id = 0;    // sender-local message id (reassembly)
  std::uint32_t msg_len = 0;   // total message length in bytes
  std::uint32_t frag_offset = 0;  // payload offset of this fragment

  /// GM directed send (RDMA put): the payload lands at target_vaddr in the
  /// receiving process's registered memory, consuming no receive token.
  bool directed = false;
  std::uint32_t target_vaddr = 0;
  /// Directed send with completion notification at the RECEIVER (carries a
  /// gm_get response: the requester gets a GOT event when it lands).
  bool notify = false;

  std::vector<std::byte> payload;

  std::uint32_t crc = 0;

  /// CRC over the protocol header and payload (route excluded: it is
  /// consumed in flight, as in Myrinet's per-hop route stripping).
  [[nodiscard]] std::uint32_t compute_crc() const;

  /// Stamp crc from current contents. Call after filling in all fields.
  void seal() { crc = compute_crc(); }

  /// True if the CRC still matches (no in-flight corruption).
  [[nodiscard]] bool intact() const { return crc == compute_crc(); }

  /// Bytes serialized on the wire: route + header + payload + CRC.
  [[nodiscard]] std::size_t wire_size() const;

  /// Short human-readable description for traces.
  [[nodiscard]] std::string describe() const;
};

}  // namespace myri::net
