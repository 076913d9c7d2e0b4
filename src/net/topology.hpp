// Fabric construction: owns switches and links, wires full-duplex cables.
//
// A physical Myrinet cable is full duplex; we model it as two unidirectional
// Links. Endpoints (NIC packet interfaces) attach with exactly one port.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ranges>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/switch.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace myri::net {

class Topology {
 public:
  Topology(sim::EventQueue& eq, sim::Rng& rng, Link::Config link_cfg = {},
           Switch::Config switch_cfg = {});

  /// Create a switch with `ports` ports; returns its switch id.
  std::uint16_t add_switch(std::uint8_t ports, std::string name = "");

  /// Full-duplex cable identifier (for failure injection).
  using CableId = std::size_t;

  /// Cable between two switch ports (both directions).
  CableId connect_switches(std::uint16_t a, std::uint8_t port_a,
                           std::uint16_t b, std::uint8_t port_b);

  /// Fail / restore a cable: both directions drop everything while down.
  /// The mapper's next run routes around it (paper Section 2: the GM
  /// mapper reconfigures when links or nodes appear or disappear).
  void set_cable_down(CableId cable, bool down);

  /// Observer for cable state changes. mapper::FailoverManager registers
  /// here to trigger a remap whenever a cable dies or heals; only state
  /// transitions are reported. One listener at a time (last wins).
  using CableListener = std::function<void(CableId, bool down)>;
  void set_cable_listener(CableListener l) { cable_listener_ = std::move(l); }

  [[nodiscard]] std::size_t num_cables() const noexcept {
    return cables_.size();
  }
  [[nodiscard]] bool cable_is_down(CableId cable) const {
    return cables_.at(cable).first->is_down();
  }

  /// Cable between an endpoint and a switch port. Returns the Link the
  /// endpoint transmits on (endpoint -> switch); arriving packets are
  /// delivered to `sink` with in_port = 0.
  Link& attach_endpoint(PacketSink& sink, std::uint16_t sw, std::uint8_t port,
                        std::string name);

  /// Unplug / replug an endpoint cable (both directions). A retired node
  /// is unplugged so discovery and census can never re-find it.
  void set_endpoint_down(std::uint16_t sw, std::uint8_t port, bool down);

  /// Re-point an endpoint switch port at a replacement endpoint (spare
  /// NIC on a dead card's cable). The old endpoint's links are taken down
  /// permanently — a later recovery of the old card transmits into an
  /// unplugged cable. Returns the spare's transmit link.
  Link& reattach_endpoint(PacketSink& sink, std::uint16_t sw,
                          std::uint8_t port, std::string name);

  /// Apply a fault profile to every link (typical for error-rate sweeps).
  void set_all_faults(const LinkFaults& f);

  /// Apply a fault profile to one endpoint cable only (hot-added cables
  /// get the cluster's base profile without stomping an active
  /// set_all_faults fault window on the rest of the fabric).
  void set_endpoint_faults(std::uint16_t sw, std::uint8_t port,
                           const LinkFaults& f);

  void set_trace(sim::Trace* t);

  /// Publish every link's and switch's accounting into `reg`; devices
  /// added later bind on creation.
  void bind_metrics(metrics::Registry& reg);

  [[nodiscard]] Switch& get_switch(std::uint16_t id) {
    return *switches_.at(id);
  }
  [[nodiscard]] std::size_t num_switches() const { return switches_.size(); }
  /// Every link in creation order, as `const Link*`: a view over the
  /// owned links, nothing is copied.
  [[nodiscard]] auto links() const {
    return std::views::transform(
        links_, [](const std::unique_ptr<Link>& l) -> const Link* {
          return l.get();
        });
  }

 private:
  Link& new_link(std::string name);

  sim::EventQueue& eq_;
  sim::Rng& rng_;
  Link::Config link_cfg_;
  Switch::Config switch_cfg_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::pair<Link*, Link*>> cables_;  // switch-to-switch pairs
  // Endpoint cable pairs (up, down) keyed by (sw << 8) | port, so hot
  // membership ops can unplug or re-point a specific switch port.
  std::map<std::uint32_t, std::pair<Link*, Link*>> endpoints_;
  CableListener cable_listener_;
  sim::Trace* trace_ = nullptr;
  metrics::Registry* metrics_ = nullptr;
};

}  // namespace myri::net
