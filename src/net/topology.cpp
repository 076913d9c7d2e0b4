#include "net/topology.hpp"

namespace myri::net {

Topology::Topology(sim::EventQueue& eq, sim::Rng& rng, Link::Config link_cfg,
                   Switch::Config switch_cfg)
    : eq_(eq), rng_(rng), link_cfg_(link_cfg), switch_cfg_(switch_cfg) {}

std::uint16_t Topology::add_switch(std::uint8_t ports, std::string name) {
  const auto id = static_cast<std::uint16_t>(switches_.size());
  if (name.empty()) name = "sw" + std::to_string(id);
  switches_.push_back(
      std::make_unique<Switch>(eq_, id, ports, switch_cfg_, std::move(name)));
  switches_.back()->set_trace(trace_);
  if (metrics_ != nullptr) switches_.back()->bind_metrics(*metrics_);
  return id;
}

Link& Topology::new_link(std::string name) {
  links_.push_back(std::make_unique<Link>(eq_, rng_.fork(links_.size() + 1),
                                          link_cfg_, std::move(name)));
  links_.back()->set_trace(trace_);
  if (metrics_ != nullptr) links_.back()->bind_metrics(*metrics_);
  return *links_.back();
}

Topology::CableId Topology::connect_switches(std::uint16_t a,
                                             std::uint8_t port_a,
                                             std::uint16_t b,
                                             std::uint8_t port_b) {
  Switch& sa = *switches_.at(a);
  Switch& sb = *switches_.at(b);
  Link& ab = new_link(sa.name() + "." + std::to_string(port_a) + "->" +
                      sb.name());
  Link& ba = new_link(sb.name() + "." + std::to_string(port_b) + "->" +
                      sa.name());
  ab.connect(sb, port_b);
  ba.connect(sa, port_a);
  sa.connect(port_a, ab);
  sb.connect(port_b, ba);
  cables_.push_back({&ab, &ba});
  return cables_.size() - 1;
}

void Topology::set_cable_down(CableId cable, bool down) {
  auto [ab, ba] = cables_.at(cable);
  const bool was_down = ab->is_down();
  ab->set_down(down);
  ba->set_down(down);
  if (down != was_down && cable_listener_) cable_listener_(cable, down);
}

Link& Topology::attach_endpoint(PacketSink& sink, std::uint16_t sw,
                                std::uint8_t port, std::string name) {
  Switch& s = *switches_.at(sw);
  Link& up = new_link(name + "->" + s.name());     // endpoint transmits here
  Link& down = new_link(s.name() + "->" + name);   // endpoint receives here
  up.connect(s, port);
  down.connect(sink, 0);
  s.connect(port, down);
  endpoints_[(static_cast<std::uint32_t>(sw) << 8) | port] = {&up, &down};
  return up;
}

void Topology::set_endpoint_down(std::uint16_t sw, std::uint8_t port,
                                 bool down) {
  auto [up, dn] =
      endpoints_.at((static_cast<std::uint32_t>(sw) << 8) | port);
  up->set_down(down);
  dn->set_down(down);
}

Link& Topology::reattach_endpoint(PacketSink& sink, std::uint16_t sw,
                                  std::uint8_t port, std::string name) {
  const std::uint32_t key = (static_cast<std::uint32_t>(sw) << 8) | port;
  if (auto it = endpoints_.find(key); it != endpoints_.end()) {
    it->second.first->set_down(true);
    it->second.second->set_down(true);
  }
  // attach_endpoint re-points the switch port's egress at the new down
  // link and overwrites the registry entry.
  return attach_endpoint(sink, sw, port, std::move(name));
}

void Topology::set_all_faults(const LinkFaults& f) {
  for (auto& l : links_) l->set_faults(f);
}

void Topology::set_endpoint_faults(std::uint16_t sw, std::uint8_t port,
                                   const LinkFaults& f) {
  auto [up, dn] =
      endpoints_.at((static_cast<std::uint32_t>(sw) << 8) | port);
  up->set_faults(f);
  dn->set_faults(f);
}

void Topology::set_trace(sim::Trace* t) {
  trace_ = t;
  for (auto& l : links_) l->set_trace(t);
  for (auto& s : switches_) s->set_trace(t);
}

void Topology::bind_metrics(metrics::Registry& reg) {
  metrics_ = &reg;
  for (auto& l : links_) l->bind_metrics(reg);
  for (auto& s : switches_) s->bind_metrics(reg);
}

}  // namespace myri::net
