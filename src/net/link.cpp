#include "net/link.hpp"

#include <cassert>

namespace myri::net {

Link::Link(sim::EventQueue& eq, sim::Rng rng, Config cfg, std::string name)
    : eq_(eq), rng_(std::move(rng)), cfg_(cfg), name_(std::move(name)) {}

void Link::connect(PacketSink& dst, std::uint8_t dst_port) {
  dst_ = &dst;
  dst_port_ = dst_port;
}

bool Link::can_accept() const { return queued_ < cfg_.max_queued_packets; }

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
  if (rng_.bernoulli(faults_.drop_prob)) {
    drop = true;
    ++stats_.dropped;
    return;
  }
  if (rng_.bernoulli(faults_.corrupt_prob)) {
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
  if (!pkt.route.empty() && rng_.bernoulli(faults_.misroute_prob)) {
    ++stats_.misrouted;
    pkt.route.front() =
        static_cast<std::uint8_t>(pkt.route.front() ^ (1u + rng_.below(7)));
  }
}

void Link::send(Packet pkt) {
  assert(dst_ != nullptr && "link not connected");
  // Fault injection only flips bits, so the wire size is stable from here.
  const std::size_t wire = pkt.wire_size();
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

  ++queued_;
  if (trace_ && trace_->on(sim::TraceCat::kNet)) {
    trace_->log(sim::TraceCat::kNet, eq_.now(), name_,
                "TX " + pkt.describe());
  }
  eq_.post_at(arrive, [this, wire, p = std::move(pkt)]() mutable {
    --queued_;
    ++stats_.delivered;
    stats_.delivered_bytes += wire;
    if (sim::Checks* c = eq_.checks()) c->link_delivered(*this);
    dst_->deliver(std::move(p), dst_port_);
  });
}

}  // namespace myri::net
