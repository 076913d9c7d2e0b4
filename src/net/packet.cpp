#include "net/packet.hpp"

#include <array>
#include <sstream>

namespace myri::net {

const char* to_string(PacketType t) {
  switch (t) {
    case PacketType::kData: return "DATA";
    case PacketType::kAck: return "ACK";
    case PacketType::kNack: return "NACK";
    case PacketType::kGetReq: return "GET_REQ";
    case PacketType::kMapScout: return "MAP_SCOUT";
    case PacketType::kMapReply: return "MAP_REPLY";
    case PacketType::kMapRoute: return "MAP_ROUTE";
    case PacketType::kMapRouteAck: return "MAP_ROUTE_ACK";
    case PacketType::kControl: return "CONTROL";
  }
  return "?";
}

std::uint32_t Packet::compute_crc() const {
  // The header as twelve little-endian 32-bit fields, two to a word, then
  // the payload.
  auto pair = [](std::uint32_t lo, std::uint32_t hi) {
    return lo | static_cast<std::uint64_t>(hi) << 32;
  };
  const std::array<std::uint64_t, 6> hdr = {
      pair(static_cast<std::uint32_t>(type),
           static_cast<std::uint32_t>(src) << 16 | dst),
      pair(static_cast<std::uint32_t>(src_port) << 16 | dst_port, priority),
      pair(stream, seq),
      pair(ack_seq, msg_id),
      pair(msg_len, frag_offset),
      pair((directed ? 1u : 0u) | (notify ? 2u : 0u), target_vaddr),
  };
  return crc32_fold(0xffffffffu, hdr,
                    reinterpret_cast<const std::uint8_t*>(payload.data()),
                    payload.size()) ^
         0xffffffffu;
}

std::size_t Packet::wire_size() const {
  // Myrinet framing: route bytes + 16-byte GM header + payload + 4-byte CRC.
  constexpr std::size_t kHeaderBytes = 16;
  constexpr std::size_t kCrcBytes = 4;
  return route.size() + kHeaderBytes + payload.size() + kCrcBytes;
}

std::string Packet::describe() const {
  std::ostringstream os;
  os << to_string(type) << " " << src << ":" << int(src_port) << "->" << dst
     << ":" << int(dst_port) << " stream=" << stream << " seq=" << seq;
  if (type == PacketType::kAck || type == PacketType::kNack) {
    os << " ack_seq=" << ack_seq;
  }
  os << " len=" << payload.size();
  return os.str();
}

}  // namespace myri::net
