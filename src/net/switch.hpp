// Source-routed Myrinet switch.
//
// Each arriving packet's first route byte selects the output port and is
// consumed (route stripping). Routing latency models the crossbar setup of
// a cut-through switch; backpressure is modelled by retrying when the
// selected output link's bounded queue is full. A scout whose route is
// exhausted at this switch is answered with the switch's identity.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/trace.hpp"

namespace myri::net {

struct SwitchStats {
  std::uint64_t forwarded = 0;
  std::uint64_t dead_routed = 0;   // bad route byte / unconnected port
  std::uint64_t stalled = 0;       // backpressure retries
  std::uint64_t scouts_answered = 0;
};

class Switch : public PacketSink {
 public:
  struct Config {
    sim::Time routing_latency = 50;   // ns per hop (crossbar + arbitration)
    sim::Time stall_retry = 200;      // ns between backpressure retries
  };

  Switch(sim::EventQueue& eq, std::uint16_t id, std::uint8_t num_ports,
         Config cfg, std::string name);

  /// Attach the outgoing half-link on `port`.
  void connect(std::uint8_t port, Link& out);

  void deliver(Packet pkt, std::uint8_t in_port) override;

  void set_trace(sim::Trace* t) { trace_ = t; }

  /// Publish this switch's accounting into `reg` under "switch.<name>.*".
  void bind_metrics(metrics::Registry& reg);

  [[nodiscard]] std::uint16_t id() const noexcept { return id_; }
  [[nodiscard]] std::uint8_t num_ports() const noexcept { return num_ports_; }
  [[nodiscard]] const SwitchStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  void forward(Packet pkt, std::uint8_t out_port, unsigned attempts);
  void answer_scout(const Packet& scout, std::uint8_t in_port);

  sim::EventQueue& eq_;
  std::uint16_t id_;
  std::uint8_t num_ports_;
  Config cfg_;
  std::string name_;
  std::vector<Link*> out_;   // indexed by port; nullptr if unconnected
  SwitchStats stats_;
  sim::Trace* trace_ = nullptr;
  metrics::CounterViews views_;
};

}  // namespace myri::net
