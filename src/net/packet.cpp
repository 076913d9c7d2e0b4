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

namespace {

// Slicing-by-8: table k advances a byte k positions further through the
// register, so eight input bytes fold in one step of eight lookups. The
// values are those of the classic byte-at-a-time loop over table 0.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

const CrcTables& crc_tables() {
  static const auto tables = make_crc_tables();
  return tables;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Fold `n` bytes into the running (pre-inverted) CRC register `c`.
std::uint32_t crc_fold(std::uint32_t c, const std::uint8_t* p,
                       std::size_t n) {
  const auto& t = crc_tables();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) {
  return crc_fold(seed, data, len) ^ 0xffffffffu;
}

std::uint32_t Packet::compute_crc() const {
  // Serialize header fields into a flat buffer, then fold in the payload.
  std::array<std::uint32_t, 12> hdr = {
      static_cast<std::uint32_t>(type),
      static_cast<std::uint32_t>(src) << 16 | dst,
      static_cast<std::uint32_t>(src_port) << 16 | dst_port,
      priority,
      stream,
      seq,
      ack_seq,
      msg_id,
      msg_len,
      frag_offset,
      (directed ? 1u : 0u) | (notify ? 2u : 0u),
      target_vaddr,
  };
  std::uint32_t c = crc_fold(0xffffffffu,
                             reinterpret_cast<const std::uint8_t*>(hdr.data()),
                             hdr.size() * sizeof(std::uint32_t));
  c = crc_fold(c, reinterpret_cast<const std::uint8_t*>(payload.data()),
               payload.size());
  return c ^ 0xffffffffu;
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
