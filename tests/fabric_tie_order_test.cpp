// Tie-order pins for the fabric's one event per switch hop (DESIGN.md
// sections 9 and 12).
//
// A packet that goes on through a switch used to take two events: its
// arrival, which posted the routing step routing_latency later. Now the
// link posts the routing step itself when it sends the packet, and the
// arrival's bookkeeping is settled when it is read. Every expected value
// in the FabricTieOrder tests below was computed on the two-event chain;
// the FabricResidualTie tests pin the orders the fused step does not
// reproduce, with the two-event order in their comments.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "faultinject/oracle.hpp"
#include "gm/cluster.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/checks.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace myri::net {
namespace {

constexpr sim::Time kProp = 100;    // Link::Config::propagation
constexpr sim::Time kRouting = 50;  // Switch::Config::routing_latency

// Serialization at the default 2 Gb/s: 4 ns per wire byte.
sim::Time ser(const Packet& p) {
  return static_cast<sim::Time>(p.wire_size()) * 4;
}

Packet data(std::uint32_t seq, Route route, std::size_t payload = 64) {
  Packet p;
  p.type = PacketType::kData;
  p.src = 0;
  p.dst = 1;
  p.seq = seq;
  p.route = std::move(route);
  p.payload.assign(payload, std::byte{0x5a});
  p.seal();
  return p;
}

Packet scout(std::uint32_t id, Route route) {
  Packet p;
  p.type = PacketType::kMapScout;
  p.src = 0;
  p.msg_id = id;
  p.route = std::move(route);
  p.seal();
  return p;
}

struct Got {
  sim::Time at;
  PacketType type;
  std::uint32_t seq;
  friend bool operator==(const Got&, const Got&) = default;
};

class Spy : public PacketSink {
 public:
  explicit Spy(sim::EventQueue& eq) : eq_(eq) {}
  void deliver(Packet pkt, std::uint8_t) override {
    got.push_back(Got{eq_.now(), pkt.type, pkt.seq});
  }
  [[nodiscard]] std::vector<std::uint32_t> seqs() const {
    std::vector<std::uint32_t> s;
    for (const Got& g : got) s.push_back(g.seq);
    return s;
  }
  std::vector<Got> got;

 private:
  sim::EventQueue& eq_;
};

// Two 8-port switches, sw0 and sw1, joined by a trunk on port 7 of each;
// spy endpoints attach to free ports.
struct Fabric {
  explicit Fabric(Link::Config lc = {}) : topo(eq, rng, lc) {
    s0 = topo.add_switch(8);
    s1 = topo.add_switch(8);
    topo.connect_switches(s0, 7, s1, 7);
  }

  // The endpoint's transmit link; what reaches it lands in spy(name).
  Link& attach(std::uint16_t sw, std::uint8_t port, const std::string& name) {
    spies[name] = std::make_unique<Spy>(eq);
    return topo.attach_endpoint(*spies[name], sw, port, name);
  }
  Spy& spy(const std::string& name) { return *spies.at(name); }

  [[nodiscard]] const Link& link(const std::string& name) const {
    for (const Link* l : topo.links()) {
      if (l->name() == name) return *l;
    }
    throw std::out_of_range(name);
  }

  // Send `p` on `up` at `t`, from an event claimed now.
  void send_at(sim::Time t, Link& up, Packet p) {
    eq.post_at(t, [&up, p = std::move(p)]() mutable { up.send(std::move(p)); });
  }

  // Run `f` at `t` from an event claimed at `claimed` (<= t), which places
  // it among the other events at `t`.
  template <typename F>
  void at(sim::Time t, sim::Time claimed, F f) {
    eq.post_at(claimed, [this, t, f]() mutable { eq.post_at(t, f); });
  }

  sim::EventQueue eq;
  sim::Rng rng{1};
  Topology topo;
  std::uint16_t s0 = 0;
  std::uint16_t s1 = 0;
  std::map<std::string, std::unique_ptr<Spy>> spies;
};

TEST(FabricTieOrder, SameNanosecondEntriesForOnePortLeaveInSendOrder) {
  // Two packets enter sw0 in the same nanosecond on ports 0 and 1, both
  // for port 2. The two-event chain ordered their routing steps by their
  // arrivals, so by send order; the fused steps follow send order too.
  for (const bool a_first : {true, false}) {
    Fabric f;
    Link& a = f.attach(f.s0, 0, "a");
    Link& b = f.attach(f.s0, 1, "b");
    f.attach(f.s0, 2, "d");
    const Packet p1 = data(1, {2});
    const Packet p2 = data(2, {2});
    if (a_first) {
      f.send_at(1000, a, p1);
      f.send_at(1000, b, p2);
    } else {
      f.send_at(1000, b, p2);
      f.send_at(1000, a, p1);
    }
    f.eq.run();
    const sim::Time step = 1000 + ser(p1) + kProp + kRouting;  // 1490
    const sim::Time out = ser(p1) - 4;  // one route byte consumed
    const std::uint32_t first = a_first ? 1 : 2;
    const std::uint32_t second = a_first ? 2 : 1;
    EXPECT_EQ(f.spy("d").got,
              (std::vector<Got>{{step + out + kProp, PacketType::kData, first},
                                {step + 2 * out + kProp, PacketType::kData,
                                 second}}))
        << "a_first=" << a_first;
    EXPECT_EQ(f.topo.get_switch(f.s0).stats().stalled, 0u);
  }

  // Unequal lengths, one arrival instant: the longer packet was sent
  // earlier, so it is routed first.
  Fabric f;
  Link& a = f.attach(f.s0, 0, "a");
  Link& b = f.attach(f.s0, 1, "b");
  f.attach(f.s0, 2, "d");
  const Packet big = data(1, {2}, 256);
  const Packet small = data(2, {2}, 16);
  f.send_at(1000, a, big);
  f.send_at(1000 + ser(big) - ser(small), b, small);
  f.eq.run();
  EXPECT_EQ(f.spy("d").seqs(), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(f.spy("d").got[0].at, 1000 + ser(big) + kProp + kRouting +
                                      ser(big) - 4 + kProp);
}

TEST(FabricTieOrder, FullLinkReadAtAnArrivalInstantOnBothSidesOfTheTie) {
  struct Read {
    bool accept = false;
    std::uint64_t delivered = 0;
  };
  struct Outcome {
    Read before;
    Read after;
    SwitchStats sw0;
    std::vector<Got> d;
  };
  // 32 packets routed by sw0 at 1050 fill the trunk's queue. Reads of the
  // trunk at its first arrival instant come from an event scheduled
  // before the arrival was (at 0) and from one scheduled after it (at
  // 1100). A 33rd packet's routing step at sw0 may fall on that instant
  // too; it is run apart from the reads, since the reads were scheduled
  // after its send and before its arrival (the residual ties below).
  auto run = [](bool step_at_arrival) {
    Fabric f;
    Link& a = f.attach(f.s0, 0, "a");
    f.attach(f.s1, 0, "d");
    const Link& trunk = f.link("sw0.7->sw1");
    Switch& sw0 = f.topo.get_switch(f.s0);
    const Packet filler = data(0, {0});  // as it leaves sw0
    const sim::Time first = 1050 + ser(filler) + kProp;
    EXPECT_EQ(first, 1490u);
    Outcome o;
    if (!step_at_arrival) {
      f.at(first, 0, [&] {
        o.before = Read{trunk.can_accept(), trunk.stats().delivered};
      });
    }
    f.eq.post_at(1000, [&] {
      for (std::uint32_t i = 0; i < 32; ++i) sw0.deliver(data(i, {7, 0}), 1);
    });
    if (step_at_arrival) {
      const Packet p = data(99, {7, 0});
      f.send_at(first - ser(p) - kProp - kRouting, a, p);
    } else {
      f.at(first, 1100, [&] {
        o.after = Read{trunk.can_accept(), trunk.stats().delivered};
      });
    }
    f.eq.run();
    EXPECT_EQ(trunk.stats().delivered, step_at_arrival ? 33u : 32u);
    o.sw0 = sw0.stats();
    o.d = f.spy("d").got;
    return o;
  };

  const Outcome reads = run(false);
  EXPECT_FALSE(reads.before.accept);
  EXPECT_EQ(reads.before.delivered, 0u);
  EXPECT_TRUE(reads.after.accept);
  EXPECT_EQ(reads.after.delivered, 1u);

  // The routing step followed the arrival, so it finds room.
  const Outcome step = run(true);
  EXPECT_EQ(step.sw0.stalled, 0u);
  EXPECT_EQ(step.sw0.forwarded, 33u);
  ASSERT_EQ(step.d.size(), 33u);
  EXPECT_EQ(step.d.back(), (Got{12856, PacketType::kData, 99}));
}

TEST(FabricTieOrder, ScoutAndDeadRouteResolveAtTheArrivalInstant) {
  Fabric f;
  Link& a = f.attach(f.s0, 0, "a");
  std::ostringstream log;
  sim::Trace trace;
  trace.enable(sim::TraceCat::kNet, &log);
  f.topo.set_trace(&trace);
  const Switch& sw0 = f.topo.get_switch(f.s0);
  const Switch& sw1 = f.topo.get_switch(f.s1);

  // Counter reads at `t`, before and after the arrival there: the first
  // from an event claimed at 0, the second from one claimed at t - 1.
  std::vector<std::uint64_t> reads;
  auto read_around = [&](sim::Time t, auto counter) {
    f.at(t, 0, [&reads, counter] { reads.push_back(counter()); });
    f.at(t, t - 1, [&reads, counter] { reads.push_back(counter()); });
  };
  auto answered0 = [&] { return sw0.stats().scouts_answered; };
  auto answered1 = [&] { return sw1.stats().scouts_answered; };
  auto dead0 = [&] { return sw0.stats().dead_routed; };

  // A scout that ends at sw0, answered at its arrival.
  const Packet s_here = scout(1, {});
  const sim::Time here = 1000 + ser(s_here) + kProp;
  read_around(here, answered0);
  f.send_at(1000, a, s_here);
  // A scout through sw0 (one fused hop) that ends at sw1.
  const Packet s_far = scout(2, {7});
  const sim::Time far =
      3000 + ser(s_far) + kProp + kRouting + (ser(s_far) - 4) + kProp;
  read_around(far, answered1);
  f.send_at(3000, a, s_far);
  // A data packet whose route ends at sw0, and one naming a dead port.
  const Packet exhausted = data(3, {});
  const sim::Time dead_at = 5000 + ser(exhausted) + kProp;
  read_around(dead_at, dead0);
  f.send_at(5000, a, exhausted);
  const Packet bad_port = data(4, {5});
  const sim::Time bad_at = 7000 + ser(bad_port) + kProp;
  read_around(bad_at, dead0);
  f.send_at(7000, a, bad_port);
  f.eq.run();

  EXPECT_EQ(here, 1180u);
  EXPECT_EQ(far, 3414u);
  EXPECT_EQ(reads, (std::vector<std::uint64_t>{0, 1, 0, 1, 0, 1, 1, 2}));
  // Both replies come back to the prober; the far one through sw0.
  EXPECT_EQ(f.spy("a").got,
            (std::vector<Got>{{1384, PacketType::kMapReply, 0},
                              {3884, PacketType::kMapReply, 0}}));

  // The DEAD lines carry the arrival instants.
  std::vector<std::string> dead;
  std::istringstream lines(log.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("DEAD") != std::string::npos) dead.push_back(line);
  }
  ASSERT_EQ(dead.size(), 2u);
  EXPECT_EQ(dead[0].substr(0, 30), "[       5.436 us] sw0: DEAD (r");
  EXPECT_EQ(dead[1].substr(0, 30), "[       7.440 us] sw0: DEAD (b");
  EXPECT_EQ(dead_at, 5436u);
  EXPECT_EQ(bad_at, 7440u);
}

TEST(FabricTieOrder, MetricsAndOracleReadsBetweenArrivalAndRoutingStep) {
  gm::ClusterConfig cc;
  cc.nodes = 2;
  cc.boot = false;
  cc.install_routes = false;
  gm::Cluster c(cc);
  Spy spy_a(c.eq());
  Spy spy_d(c.eq());
  Link& up = c.topo().attach_endpoint(spy_a, 0, 5, "spyA");
  c.topo().attach_endpoint(spy_d, 0, 6, "spyD");
  fi::Oracle oracle(c);
  oracle.attach();

  const Packet p = data(1, {6});
  const std::uint64_t wire = p.wire_size();
  const sim::Time t0 = 1000;
  const sim::Time arrive = t0 + ser(p) + kProp;
  const sim::Time step = arrive + kRouting;
  auto bytes = [&] {
    return c.metrics().counter("link.spyA->sw0.delivered_bytes").value();
  };
  auto forwarded = [&] {
    return c.metrics().counter("switch.sw0.forwarded").value();
  };
  std::vector<std::uint64_t> reads;
  auto at = [&](sim::Time t, sim::Time claimed, auto f) {
    c.eq().post_at(claimed, [&c, t, f] { c.eq().post_at(t, f); });
  };
  at(arrive, 0, [&] { reads.push_back(bytes()); });           // before it
  at(arrive, arrive - 1, [&] { reads.push_back(bytes()); });  // after it
  at(arrive + 25, 0, [&] {
    reads.push_back(bytes());
    reads.push_back(forwarded());
    oracle.check_now();
  });
  at(step, 0, [&] { reads.push_back(forwarded()); });           // before
  at(step, step - 1, [&] { reads.push_back(forwarded()); });    // after
  c.eq().post_at(t0, [&up, q = p]() mutable { up.send(std::move(q)); });
  c.eq().run();

  EXPECT_EQ(reads, (std::vector<std::uint64_t>{0, wire, wire, 0, 0, 1}));
  EXPECT_TRUE(oracle.ok());
  ASSERT_EQ(spy_d.got.size(), 1u);
  EXPECT_EQ(spy_d.got[0].at, step + ser(p) - 4 + kProp);
  EXPECT_EQ(c.metrics().counter("link.spyA->sw0.delivered_bytes").value(),
            wire);
}

// Records each link_delivered report with the counters it sees.
class DeliveredSpy : public sim::Checks {
 public:
  struct Report {
    sim::Time at;
    std::string link;
    std::uint64_t delivered;
    friend bool operator==(const Report&, const Report&) = default;
  };
  explicit DeliveredSpy(sim::EventQueue& eq) : eq_(eq) {}
  void link_delivered(const Link& link) override {
    reports.push_back(Report{eq_.now(), link.name(), link.stats().delivered});
  }
  void send_token_returned(const gm::Port&) override {}
  void recv_token_added(const mcp::Mcp&, std::uint8_t) override {}
  void ftd_counted(const core::Ftd&) override {}
  std::vector<Report> reports;

 private:
  sim::EventQueue& eq_;
};

TEST(FabricHop, LinkDeliveredRunsInTheEventThatStandsForTheArrival) {
  // The oracle's point-of-change hook runs in the arrival event where
  // there is one (the link into a spy endpoint), and in the routing step
  // of a fused hop, routing_latency after the arrival (the two-event
  // chain ran it at the arrival). Either way the arrival is counted.
  Fabric f;
  DeliveredSpy spy(f.eq);
  f.eq.set_checks(&spy);
  Link& a = f.attach(f.s0, 0, "a");
  f.attach(f.s0, 1, "d");
  const Packet p = data(1, {1});
  f.send_at(1000, a, p);
  f.eq.run();
  const sim::Time step = 1000 + ser(p) + kProp + kRouting;
  EXPECT_EQ(spy.reports,
            (std::vector<DeliveredSpy::Report>{
                {step, "a->sw0", 1},
                {step + ser(p) - 4 + kProp, "sw0->d", 1}}));
  f.eq.set_checks(nullptr);
}

// ---- residual ties ----------------------------------------------------
//
// An event at the routing step's nanosecond that was scheduled between the
// packet's send and its arrival ran before the two-event chain's routing
// step (posted at the arrival) and runs after the fused one (posted at the
// send). These pins show each such order; no pinned digest, golden trace
// or bench output meets one.

TEST(FabricResidualTie, StallRetryAndRoutingStepOnOnePort) {
  // Output queues of one packet. X holds sw0's port 2 until 1926; Q,
  // routed at 1690, stalls and retries at 1890 and 2090. P's routing step
  // also falls at 2090, and P was sent (1600) before Q's 2090 retry was
  // scheduled (1890). Two-event chain: the retry was scheduled before P's
  // arrival (2040) posted its step, so Q took the port first: 1, 2, 3.
  Link::Config lc;
  lc.max_queued_packets = 1;
  Fabric f(lc);
  Link& a = f.attach(f.s0, 0, "a");
  Link& b = f.attach(f.s0, 1, "b");
  f.attach(f.s0, 2, "d");
  f.send_at(1000, a, data(1, {2}));  // X
  f.send_at(1200, b, data(2, {2}));  // Q
  f.send_at(1600, a, data(3, {2}));  // P
  f.eq.run();
  EXPECT_EQ(f.spy("d").seqs(), (std::vector<std::uint32_t>{1, 3, 2}));
  EXPECT_EQ(f.spy("d").got[1].at, 2090u + 336 + kProp);
}

TEST(FabricResidualTie, ScoutAnswerAndRoutingStepOnOnePort) {
  // P (sent at 1000) is routed to port 1 at 2258; a scout from port 1,
  // sent at 2078, arrives at 2258 and is answered on port 1. Two-event
  // chain: the scout's arrival was scheduled (2078) before P's routing
  // step (2208), so the reply left first: reply, then P.
  Fabric f;
  Link& a = f.attach(f.s0, 0, "a");
  Link& b = f.attach(f.s0, 1, "b");
  const Packet p = data(1, {1}, 256);
  const Packet s = scout(9, {});
  const sim::Time step = 1000 + ser(p) + kProp + kRouting;
  ASSERT_EQ(step, 2258u);
  f.send_at(1000, a, p);
  f.send_at(step - ser(s) - kProp, b, s);
  f.eq.run();
  ASSERT_EQ(f.spy("b").got.size(), 2u);
  EXPECT_EQ(f.spy("b").got[0].type, PacketType::kData);
  EXPECT_EQ(f.spy("b").got[1].type, PacketType::kMapReply);
}

TEST(FabricResidualTie, TransmissionsThatMeetAtTheNextSwitch) {
  // P leaves sw0 at its routing step (1494), from an event scheduled at
  // its send (1000). Q is sent into sw1 at 1494 too, from an event
  // scheduled at 1200. Both reach sw1 at 1934 for port 2. Two-event
  // chain: P's step was scheduled at its arrival (1444), after Q's send,
  // so Q was on the wire, and routed at sw1, first: 2, then 1.
  Fabric f;
  Link& a = f.attach(f.s0, 0, "a");
  Link& c = f.attach(f.s1, 1, "c");
  f.attach(f.s1, 2, "d");
  const Packet p = data(1, {7, 2});
  const sim::Time leave = 1000 + ser(p) + kProp + kRouting;
  ASSERT_EQ(leave, 1494u);
  f.send_at(1000, a, p);
  f.at(leave, 1200, [&c] { c.send(data(2, {2})); });
  f.eq.run();
  EXPECT_EQ(f.spy("d").seqs(), (std::vector<std::uint32_t>{1, 2}));
}

}  // namespace
}  // namespace myri::net
