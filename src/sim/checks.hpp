// Point-of-change invariant checks.
//
// A cluster-wide invariant checker (the chaos oracle, fi::Oracle)
// implements Checks and hangs it on the cluster's EventQueue
// (EventQueue::set_checks). Every component already holds that queue, so
// each one reports the state change a local invariant depends on at the
// moment it happens:
//
//   link_delivered       net::Link's arrival, after the delivered counters
//   send_token_returned  gm::Port gets a send token back
//   recv_token_added     mcp::Mcp takes a receive token for a port
//   ftd_counted          core::Ftd counts a wake-up, false alarm or recovery
//
// A violation is then seen at the virtual instant it appears, and nothing
// sweeps the cluster per event. With no checker attached a report costs
// one branch: `if (sim::Checks* c = eq_.checks()) c->link_delivered(*this);`
#pragma once

#include <cstdint>

namespace myri::net {
class Link;
}  // namespace myri::net
namespace myri::gm {
class Port;
}  // namespace myri::gm
namespace myri::mcp {
class Mcp;
}  // namespace myri::mcp
namespace myri::core {
class Ftd;
}  // namespace myri::core

namespace myri::sim {

class Checks {
 public:
  virtual void link_delivered(const net::Link& link) = 0;
  virtual void send_token_returned(const gm::Port& port) = 0;
  virtual void recv_token_added(const mcp::Mcp& mcp, std::uint8_t port) = 0;
  virtual void ftd_counted(const core::Ftd& ftd) = 0;
};

}  // namespace myri::sim
