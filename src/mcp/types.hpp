// Host<->MCP interface types: send requests, receive tokens, events.
//
// These mirror GM's token system (paper Section 3.1): a send token carries
// location/size/priority/destination of a send buffer; a receive token
// describes a posted receive buffer. The MCP reports completions and
// arrivals to the host by posting EventRecords into a port's receive queue.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "host/host_memory.hpp"
#include "net/map_info.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace myri::mcp {

/// GM allows 8 ports per node (paper Section 4.1).
inline constexpr std::uint8_t kMaxPorts = 8;

enum class McpMode : std::uint8_t {
  kGm,    // baseline GM-1.5.1 behaviour
  kFtgm,  // the paper's fault-tolerant variant
};

/// Packets (and sequence numbers) a message of `len` bytes takes; a
/// zero-byte message still sends one.
constexpr std::uint32_t fragments_of(std::uint32_t len) {
  return len == 0 ? 1u
                  : (len + net::kMaxPacketPayload - 1) / net::kMaxPacketPayload;
}

struct SendRequest {
  std::uint8_t port = 0;          // source GM port
  net::NodeId dst = net::kInvalidNode;
  std::uint8_t dst_port = 0;
  std::uint8_t priority = 0;
  host::DmaAddr host_addr = 0;    // pinned send buffer (virtual == DMA here)
  std::uint32_t len = 0;
  std::uint32_t token_id = 0;     // library-side send-token handle
  std::uint32_t msg_id = 0;       // unique per (port); assigned by library
  /// FTGM: host-generated first sequence number for this message's
  /// fragments (paper Section 4.1). Ignored in GM mode.
  std::uint32_t seq_first = 0;
  /// GM directed send (RDMA put): payload lands at target_vaddr in the
  /// remote process's registered memory; no receive token is consumed and
  /// no receive event is posted. Re-execution after a recovery is safe
  /// because a put is idempotent.
  bool directed = false;
  std::uint32_t target_vaddr = 0;
  /// Directed send that posts a GOT event at the receiver when it lands
  /// (carries a gm_get response).
  bool notify = false;
  /// MCP-originated send (a get response): no SENT event, MCP-minted
  /// sequence numbers on a reserved internal stream.
  bool internal = false;
};

/// gm_get (RDMA read): fetch `len` bytes of the remote process's
/// registered memory at `remote_vaddr` into local registered memory at
/// `local_vaddr`. The response arrives as an internal directed put with
/// notification; `correlation` ties it back to the caller.
struct GetRequest {
  std::uint8_t port = 0;
  net::NodeId dst = net::kInvalidNode;
  std::uint8_t dst_port = 0;
  std::uint32_t remote_vaddr = 0;
  std::uint32_t local_vaddr = 0;
  std::uint32_t len = 0;
  std::uint32_t correlation = 0;
};

struct RecvToken {
  std::uint8_t port = 0;
  host::DmaAddr host_addr = 0;
  std::uint32_t size = 0;         // buffer capacity
  std::uint8_t priority = 0;
  std::uint32_t token_id = 0;
};

enum class EventType : std::uint8_t {
  kRecv,           // message landed in a posted buffer
  kSent,           // send complete; send token returns to the process
  kGot,            // gm_get response landed in local registered memory
  kAlarm,          // gm_set_alarm expiry
  kFaultDetected,  // FTGM: posted by the FTD after NIC recovery
  kSendError,      // unroutable destination etc. (middleware treats as fatal)
};

const char* to_string(EventType t);

struct EventRecord {
  EventType type = EventType::kRecv;
  std::uint8_t port = 0;
  net::NodeId peer = net::kInvalidNode;  // src node (kRecv) / dst (kSent)
  std::uint8_t peer_port = 0;
  std::uint32_t stream = 0;
  std::uint32_t seq = 0;       // FTGM: last seq of the message just ACKed
  std::uint32_t len = 0;
  std::uint32_t token_id = 0;  // recv token (kRecv) / send token (kSent)
  std::uint32_t msg_id = 0;
};

/// Size charged for the event-post DMA into the host receive queue.
inline constexpr std::size_t kEventRecordWireBytes = 64;

/// What the MCP sees of the host: event delivery and page-hash lookups.
/// Implemented by the driver/GM-library glue on each node.
class HostIface {
 public:
  virtual ~HostIface() = default;

  /// Deliver an event record to the host-side receive queue of `port`.
  /// Called after the event-post DMA has completed.
  virtual void post_event(std::uint8_t port, const EventRecord& ev) = 0;

  /// Page-hash translation for DMA addresses (std::nullopt if unmapped,
  /// which makes the MCP refuse the DMA).
  virtual std::optional<host::DmaAddr> translate(std::uint8_t port,
                                                 std::uint64_t vaddr) = 0;

  /// Mapper pushed an epoch-stamped route update (or epoch probe, when
  /// `update.nchunks == 0`) to this card. The driver versions its mirror
  /// with it and returns the last epoch it holds *completely*; the MCP
  /// echoes that in the MAP_ROUTE_ACK so the mapper can re-push laggards.
  virtual std::uint32_t map_route_update(const net::RouteUpdateView& update,
                                         net::NodeId /*from*/) {
    return update.epoch;
  }
};

/// Sequence-number stream identifier inside packets.
/// GM multiplexes all traffic between two nodes over one connection
/// (stream id 0); FTGM gives each source port its own stream (paper Fig 6).
constexpr std::uint32_t stream_id(McpMode mode, std::uint8_t src_port) {
  return mode == McpMode::kGm ? 0u : static_cast<std::uint32_t>(src_port);
}

/// MCP-internal streams (gm_get responses) live above the port streams;
/// their sequence numbers are MCP-minted (not host-backed), which is safe
/// because get responses are idempotent and re-requested by the host.
inline constexpr std::uint32_t kInternalSidBase = 0x100;
constexpr std::uint32_t internal_stream_id(std::uint8_t src_port) {
  return kInternalSidBase | src_port;
}

/// Map key for per-peer stream state: (remote node, stream id).
constexpr std::uint64_t stream_key(net::NodeId peer, std::uint32_t stream) {
  return (static_cast<std::uint64_t>(peer) << 32) | stream;
}

struct McpStats {
  std::uint64_t sends_posted = 0;
  std::uint64_t fragments_tx = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t acks_tx = 0;
  std::uint64_t acks_rx = 0;
  std::uint64_t nacks_tx = 0;
  std::uint64_t nacks_rx = 0;
  std::uint64_t stale_nacks = 0;  // NACKs below everything still held: dropped
  std::uint64_t renumbers = 0;    // outstanding tails moved to a NACK's seq
  std::uint64_t crc_drops = 0;
  std::uint64_t foreign_drops = 0;  // misrouted packets for another node
  std::uint64_t dup_drops = 0;
  std::uint64_t ooo_drops = 0;
  std::uint64_t no_token_drops = 0;
  std::uint64_t unmapped_dma_refusals = 0;
  std::uint64_t msgs_delivered = 0;
  std::uint64_t directed_frags = 0;   // directed fragments written
  std::uint64_t directed_puts = 0;    // directed messages completed
  std::uint64_t gets_served = 0;      // gm_get requests answered
  std::uint64_t events_posted = 0;
  std::uint64_t l_timer_runs = 0;
  std::uint64_t send_chunk_runs = 0;
  std::uint64_t send_chunk_native = 0;  // runs the native mirror served
  std::uint64_t send_chunk_bailouts = 0;  // error-path returns, no DMA
  std::uint64_t alarms_fired = 0;
  std::uint64_t announces_sent = 0;     // post-recovery route announces
  std::uint64_t announce_retries = 0;   // announces re-sent (no MAP_ROUTE)
  sim::Time busy_ns = 0;  // LANai occupancy (Table 2 "LANai utilization")
  // Persistent across reloads (fault classification reads these).
  std::uint64_t hangs = 0;
  std::uint64_t self_restarts = 0;
};

}  // namespace myri::mcp
