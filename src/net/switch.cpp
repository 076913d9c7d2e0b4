#include "net/switch.hpp"

#include "net/map_info.hpp"

namespace myri::net {

Switch::Switch(sim::EventQueue& eq, std::uint16_t id, std::uint8_t num_ports,
               Config cfg, std::string name)
    : eq_(eq),
      id_(id),
      num_ports_(num_ports),
      cfg_(cfg),
      name_(std::move(name)),
      out_(num_ports, nullptr) {}

void Switch::connect(std::uint8_t port, Link& out) { out_.at(port) = &out; }

void Switch::bind_metrics(metrics::Registry& reg) {
  const std::string p = "switch." + name_ + '.';
  views_.expose(reg, p + "forwarded", stats_.forwarded);
  views_.expose(reg, p + "dead_routed", stats_.dead_routed);
  views_.expose(reg, p + "backpressure_stalls", stats_.stalled);
}

void Switch::deliver(Packet pkt, std::uint8_t in_port) {
  if (pkt.type == PacketType::kMapScout) {
    pkt.walked.push_back(in_port);
    if (pkt.route.empty()) {
      answer_scout(pkt, in_port);
      return;
    }
  } else if (pkt.type == PacketType::kMapRoute) {
    // Route pushes record their walked input ports like scouts do, so the
    // receiving card can MAP_ROUTE_ACK along the reversed path even while
    // its own route table is stale or empty.
    pkt.walked.push_back(in_port);
    if (pkt.route.empty()) {
      ++stats_.dead_routed;
      return;
    }
  } else if (pkt.route.empty()) {
    // A data packet whose route ends at a switch is undeliverable: this is
    // what a misroute fault usually produces. The wormhole just kills it.
    ++stats_.dead_routed;
    if (trace_ && trace_->on(sim::TraceCat::kNet)) {
      trace_->log(sim::TraceCat::kNet, eq_.now(), name_,
                  "DEAD (route exhausted) " + pkt.describe());
    }
    return;
  }

  const std::uint8_t out_port = pkt.route.front();
  pkt.route.erase(pkt.route.begin());
  if (out_port >= num_ports_ || out_[out_port] == nullptr) {
    ++stats_.dead_routed;
    if (trace_ && trace_->on(sim::TraceCat::kNet)) {
      trace_->log(sim::TraceCat::kNet, eq_.now(), name_,
                  "DEAD (bad port " + std::to_string(out_port) + ") " +
                      pkt.describe());
    }
    return;
  }
  eq_.post_after(cfg_.routing_latency,
                 [this, p = std::move(pkt), out_port]() mutable {
                   forward(std::move(p), out_port, 0);
                 });
}

void Switch::forward(Packet pkt, std::uint8_t out_port, unsigned attempts) {
  Link& link = *out_[out_port];
  if (!link.can_accept()) {
    // Backpressure: the downstream queue is full; stall and retry, like a
    // blocked wormhole. Give up after a bounded time so a wedged receiver
    // cannot leak packets forever (they become drops, which Go-Back-N heals).
    constexpr unsigned kMaxAttempts = 500;
    if (attempts >= kMaxAttempts) {
      ++stats_.dead_routed;
      return;
    }
    ++stats_.stalled;
    eq_.post_after(cfg_.stall_retry,
                   [this, p = std::move(pkt), out_port, attempts]() mutable {
                     forward(std::move(p), out_port, attempts + 1);
                   });
    return;
  }
  ++stats_.forwarded;
  link.send(std::move(pkt));
}

void Switch::answer_scout(const Packet& scout, std::uint8_t in_port) {
  Link* back = out_[in_port];
  if (back == nullptr) return;
  ++stats_.scouts_answered;

  Packet reply;
  reply.type = PacketType::kMapReply;
  reply.src = kInvalidNode;
  reply.dst = scout.src;
  reply.msg_id = scout.msg_id;  // scout correlation id, echoed back
  // The walked list includes our own in_port (pushed by deliver); the
  // reverse of it routes the reply back to the prober. Our own entry is the
  // first reverse hop, consumed by us... except we *are* the sender, so we
  // drop it and transmit on that port directly.
  Route rev = reverse_route(scout.walked);
  rev.erase(rev.begin());
  reply.route = std::move(rev);
  reply.payload =
      MapReplyInfo{DeviceKind::kSwitch, id_, num_ports_, scout.walked}
          .encode();
  reply.seal();
  back->send(std::move(reply));
}

}  // namespace myri::net
