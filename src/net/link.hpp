// Point-to-point Myrinet link (one direction of a full-duplex cable).
//
// A link serializes packets at a configurable rate (2 Gb/s by default, the
// paper's Myrinet generation), adds propagation delay, and optionally
// injects the transient faults GM must tolerate: drops, bit corruption and
// misroutes. Bounded queueing models backpressure: wormhole flow control is
// approximated by stalling the upstream switch when the queue is full.
//
// A packet that goes on through the switch at the far end takes one event
// for the hop: the switch's routing step, at arrival + routing latency.
// Arrival is then a virtual event, so what an arrival counts (packets in
// flight, delivered packets and bytes) is settled when it is read, from
// the in-flight packets' arrival instants (DESIGN.md section 9).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "metrics/registry.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace myri::net {

class Switch;

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

  /// Attach a switch input port. A packet whose route goes on through
  /// `dst` is then handed to its routing step directly. The routing step
  /// reads its output link as of after every arrival due at its instant,
  /// which needs the propagation delay to exceed the routing latency;
  /// throws std::invalid_argument otherwise.
  void connect(Switch& dst, std::uint8_t dst_port);

  /// A LinkFaults as the three per-packet draws, each a
  /// sim::FixedBernoulli: a packet's fault draws compare integers (same
  /// draws, same results). Making one costs three threshold searches, so
  /// a caller setting many links makes it once.
  struct FaultDraws {
    FaultDraws() = default;
    explicit FaultDraws(const LinkFaults& f)
        : drop(f.drop_prob),
          corrupt(f.corrupt_prob),
          misroute(f.misroute_prob) {}
    sim::FixedBernoulli drop;
    sim::FixedBernoulli corrupt;
    sim::FixedBernoulli misroute;
  };

  void set_faults(const LinkFaults& f) { faults_ = FaultDraws(f); }
  void set_faults(const FaultDraws& d) { faults_ = d; }
  void set_trace(sim::Trace* t) { trace_ = t; }

  /// Publish this link's accounting into `reg` under "link.<name>.*".
  void bind_metrics(metrics::Registry& reg);

  /// Take the link down (unplugged/failed cable): everything sent is lost.
  void set_down(bool down) { down_ = down; }
  [[nodiscard]] bool is_down() const noexcept { return down_; }

  /// True if the link can accept another packet without exceeding its
  /// queue bound. Upstream devices stall (retry later) when false. Counts
  /// the packets whose arrival does not precede the executing event.
  [[nodiscard]] bool can_accept() const;

  /// can_accept() for a reader placed after every arrival due now: a
  /// switch's routing step (DESIGN.md section 9).
  [[nodiscard]] bool can_accept_after_arrivals() const;

  /// Enqueue a packet for transmission. Faults are applied per-packet.
  /// Precondition: connect() has been called. Throws std::length_error,
  /// before any effect, for a packet of 16 MiB or more on the wire.
  void send(Packet&& pkt);

  /// Accounting as of the executing event (settle() first).
  [[nodiscard]] const LinkStats& stats() const {
    settle();
    return stats_;
  }

  /// Count every arrival that precedes the executing event as delivered.
  /// The registry reads `delivered` and `delivered_bytes` raw, so a
  /// reader of the registry settles first (gm::Cluster::metrics()).
  void settle() const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] sim::Time busy_until() const noexcept { return busy_until_; }

  /// Serialization time for `bytes` at the configured rate.
  [[nodiscard]] sim::Time serialization_time(std::size_t bytes) const;

 private:
  void apply_faults(Packet& pkt, bool& drop);

  // A packet in flight: its arrival's place in the event order (the
  // instant and the sequence number of the event posted at send) and its
  // wire size, the last two packed into one word: sequence numbers stay
  // below 2^40 (EventQueue), and send() refuses a wire size of 2^24 bytes
  // or more. Arrivals leave in order: both keys grow with each send.
  static constexpr int kWireBits = 24;
  struct InFlight {
    sim::Time at;
    std::uint64_t seq_wire;
    [[nodiscard]] std::uint64_t seq() const noexcept {
      return seq_wire >> kWireBits;
    }
    [[nodiscard]] std::uint64_t wire() const noexcept {
      return seq_wire & ((std::uint64_t{1} << kWireBits) - 1);
    }
  };
  [[gnu::noinline]] void grow_in_flight();
  [[nodiscard]] InFlight* ring() const noexcept {
    return spill_ != nullptr ? spill_.get() : inline_ring_;
  }

  sim::EventQueue& eq_;
  sim::Rng rng_;
  Config cfg_;
  std::string name_;
  PacketSink* dst_ = nullptr;
  Switch* sw_ = nullptr;  // dst_ when it is a switch
  std::uint8_t dst_port_ = 0;
  FaultDraws faults_;
  mutable LinkStats stats_;
  sim::Time busy_until_ = 0;
  // Ring buffer of the packets in flight, oldest at head_; its size is a
  // power of two. settle() retires arrivals from the head. The first
  // kInlineInFlight entries live in the link itself (last, so the fields
  // every packet reads stay together); a link with more packets in flight
  // moves its ring to the heap (spill_).
  static constexpr std::size_t kInlineInFlight = 8;
  std::unique_ptr<InFlight[]> spill_;
  std::size_t ring_size_ = kInlineInFlight;
  mutable std::size_t head_ = 0;
  mutable std::size_t queued_ = 0;
  bool down_ = false;
  sim::Trace* trace_ = nullptr;
  metrics::CounterViews views_;
  mutable InFlight inline_ring_[kInlineInFlight] = {};
};

}  // namespace myri::net
