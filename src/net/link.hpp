// Point-to-point Myrinet link (one direction of a full-duplex cable).
//
// A link serializes packets at a configurable rate (2 Gb/s by default, the
// paper's Myrinet generation), adds propagation delay, and optionally
// injects the transient faults GM must tolerate: drops, bit corruption and
// misroutes. Bounded queueing models backpressure: wormhole flow control is
// approximated by stalling the upstream switch when the queue is full.
#pragma once

#include <cstdint>
#include <string>

#include "metrics/registry.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace myri::net {

/// Receiving side of a link: a switch input port or a NIC packet interface.
class PacketSink {
 public:
  virtual ~PacketSink() = default;

  /// Packet arrival. `in_port` is the receiver-local port the packet came
  /// in on (switches use it for scout route recording).
  virtual void deliver(Packet pkt, std::uint8_t in_port) = 0;
};

struct LinkFaults {
  double drop_prob = 0.0;      // packet silently vanishes
  double corrupt_prob = 0.0;   // one random payload/header bit flips
  double misroute_prob = 0.0;  // first remaining route byte is altered
};

struct LinkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t misrouted = 0;
  // Offered load counts every packet handed to the link; delivered load
  // counts only what reached the far end. Dropped and cable-cut packets
  // must never inflate a bandwidth computation, so the two are separate.
  std::uint64_t offered_bytes = 0;
  std::uint64_t delivered_bytes = 0;
};

class Link {
 public:
  struct Config {
    double gbps = 2.0;                     // paper: 2 Gb/s links
    sim::Time propagation = 100;           // ns of cable + switch port delay
    std::size_t max_queued_packets = 32;   // backpressure threshold
  };

  Link(sim::EventQueue& eq, sim::Rng rng, Config cfg, std::string name);

  /// Attach the receiving endpoint; `dst_port` is the endpoint-local port.
  void connect(PacketSink& dst, std::uint8_t dst_port);

  void set_faults(const LinkFaults& f) { faults_ = f; }
  void set_trace(sim::Trace* t) { trace_ = t; }

  /// Publish this link's accounting into `reg` under "link.<name>.*".
  void bind_metrics(metrics::Registry& reg);

  /// Take the link down (unplugged/failed cable): everything sent is lost.
  void set_down(bool down) { down_ = down; }
  [[nodiscard]] bool is_down() const noexcept { return down_; }

  /// True if the link can accept another packet without exceeding its
  /// queue bound. Upstream devices stall (retry later) when false.
  [[nodiscard]] bool can_accept() const;

  /// Enqueue a packet for transmission. Faults are applied per-packet.
  /// Precondition: connect() has been called.
  void send(Packet pkt);

  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] sim::Time busy_until() const noexcept { return busy_until_; }

  /// Serialization time for `bytes` at the configured rate.
  [[nodiscard]] sim::Time serialization_time(std::size_t bytes) const;

 private:
  void apply_faults(Packet& pkt, bool& drop);

  sim::EventQueue& eq_;
  sim::Rng rng_;
  Config cfg_;
  std::string name_;
  PacketSink* dst_ = nullptr;
  std::uint8_t dst_port_ = 0;
  LinkFaults faults_;
  LinkStats stats_;
  sim::Time busy_until_ = 0;
  std::size_t queued_ = 0;
  bool down_ = false;
  sim::Trace* trace_ = nullptr;
  metrics::CounterViews views_;
};

}  // namespace myri::net
