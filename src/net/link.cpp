#include "net/link.hpp"

#include <cassert>
#include <stdexcept>

#include "net/switch.hpp"

namespace myri::net {

Link::Link(sim::EventQueue& eq, sim::Rng rng, Config cfg, std::string name)
    : eq_(eq), rng_(std::move(rng)), cfg_(cfg), name_(std::move(name)) {}

void Link::connect(PacketSink& dst, std::uint8_t dst_port) {
  dst_ = &dst;
  sw_ = nullptr;
  dst_port_ = dst_port;
}

void Link::connect(Switch& dst, std::uint8_t dst_port) {
  // An arrival due at the routing step's instant T was sent before
  // T - propagation, so before the step's old scheduling instant
  // T - routing_latency: the step followed it.
  if (cfg_.propagation <= dst.routing_latency()) {
    throw std::invalid_argument("link " + name_ +
                                ": propagation must exceed the switch's "
                                "routing latency");
  }
  dst_ = &dst;
  sw_ = &dst;
  dst_port_ = dst_port;
}

void Link::settle() const {
  const sim::Time now = eq_.now();
  const std::uint64_t seq = eq_.current_seq();
  const InFlight* ring = this->ring();
  const std::size_t mask = ring_size_ - 1;
  while (queued_ > 0) {
    const InFlight& f = ring[head_];
    if (f.at > now || (f.at == now && f.seq() > seq)) break;
    ++stats_.delivered;
    stats_.delivered_bytes += f.wire();
    head_ = (head_ + 1) & mask;
    --queued_;
  }
}

bool Link::can_accept() const {
  settle();
  return queued_ < cfg_.max_queued_packets;
}

bool Link::can_accept_after_arrivals() const {
  settle();
  // What is left at now() follows the executing event in the order.
  std::size_t n = queued_;
  const InFlight* ring = this->ring();
  const std::size_t mask = ring_size_ - 1;
  for (std::size_t i = 0; i < queued_; ++i) {
    if (ring[(head_ + i) & mask].at != eq_.now()) break;
    --n;
  }
  return n < cfg_.max_queued_packets;
}

void Link::grow_in_flight() {
  auto grown = std::make_unique<InFlight[]>(2 * ring_size_);
  const InFlight* old = ring();
  for (std::size_t i = 0; i < queued_; ++i) {
    grown[i] = old[(head_ + i) & (ring_size_ - 1)];
  }
  spill_ = std::move(grown);
  ring_size_ *= 2;
  head_ = 0;
}

void Link::bind_metrics(metrics::Registry& reg) {
  const std::string p = "link." + name_ + '.';
  views_.expose(reg, p + "offered_bytes", stats_.offered_bytes);
  views_.expose(reg, p + "delivered_bytes", stats_.delivered_bytes);
  views_.expose(reg, p + "dropped", stats_.dropped);
  views_.expose(reg, p + "corrupted", stats_.corrupted);
  views_.expose(reg, p + "misrouted", stats_.misrouted);
}

sim::Time Link::serialization_time(std::size_t bytes) const {
  // bits / (Gb/s) = ns exactly, so: bytes * 8 / gbps nanoseconds.
  return static_cast<sim::Time>(static_cast<double>(bytes) * 8.0 / cfg_.gbps);
}

void Link::apply_faults(Packet& pkt, bool& drop) {
  drop = false;
  if (faults_.drop(rng_)) {
    drop = true;
    ++stats_.dropped;
    return;
  }
  if (faults_.corrupt(rng_)) {
    ++stats_.corrupted;
    if (!pkt.payload.empty()) {
      const std::size_t bit = static_cast<std::size_t>(
          rng_.below(pkt.payload.size() * 8));
      pkt.payload[bit / 8] ^= std::byte{static_cast<unsigned char>(
          1u << (bit % 8))};
    } else {
      // Header corruption on a payload-less packet (e.g. an ACK).
      pkt.seq ^= 1u << rng_.below(32);
    }
    // crc left as-is: the receiver's CRC check catches the damage.
  }
  if (!pkt.route.empty() && faults_.misroute(rng_)) {
    ++stats_.misrouted;
    pkt.route.front() =
        static_cast<std::uint8_t>(pkt.route.front() ^ (1u + rng_.below(7)));
  }
}

void Link::send(Packet&& pkt) {
  assert(dst_ != nullptr && "link not connected");
  // Fault injection only flips bits, so the wire size is stable from here.
  const std::size_t wire = pkt.wire_size();
  if (wire >> kWireBits != 0) {
    throw std::length_error("link " + name_ + ": packet too long");
  }
  ++stats_.sent;
  stats_.offered_bytes += wire;
  if (down_) {
    ++stats_.dropped;  // unplugged cable: everything is lost
    return;
  }

  bool drop = false;
  apply_faults(pkt, drop);
  if (drop) {
    if (trace_ && trace_->on(sim::TraceCat::kNet)) {
      trace_->log(sim::TraceCat::kNet, eq_.now(), name_,
                  "DROP " + pkt.describe());
    }
    return;
  }

  const sim::Time depart = std::max(eq_.now(), busy_until_);
  const sim::Time ser = serialization_time(wire);
  busy_until_ = depart + ser;
  const sim::Time arrive = busy_until_ + cfg_.propagation;

  if (trace_ && trace_->on(sim::TraceCat::kNet)) {
    trace_->log(sim::TraceCat::kNet, eq_.now(), name_,
                "TX " + pkt.describe());
  }
  settle();  // the ring holds only what is in flight
  // The event posted here takes the arrival's place in the order.
  const std::uint64_t seq = eq_.next_seq();
  if (sw_ != nullptr && sw_->routes_on(pkt)) {
    // The packet goes on through the switch: one event for the hop, the
    // switch's routing step, due routing_latency after the arrival.
    eq_.post_at(arrive + sw_->routing_latency(),
                [this, p = std::move(pkt)]() mutable {
                  if (sim::Checks* c = eq_.checks()) c->link_delivered(*this);
                  sw_->route(std::move(p), dst_port_);
                });
  } else {
    eq_.post_at(arrive, [this, p = std::move(pkt)]() mutable {
      settle();
      if (sim::Checks* c = eq_.checks()) c->link_delivered(*this);
      dst_->deliver(std::move(p), dst_port_);
    });
  }
  if (queued_ == ring_size_) grow_in_flight();
  ring()[(head_ + queued_) & (ring_size_ - 1)] =
      InFlight{arrive, seq << kWireBits | wire};
  ++queued_;
}

}  // namespace myri::net
