// Cluster bring-up: self-configuration of a multi-switch fabric.
//
// Builds a 3-switch / 6-node fabric with no routes installed anywhere,
// runs the GM mapper from node 0 (scout flood -> topology graph -> route
// computation -> MAP_ROUTE distribution), then proves the routes work by
// running traffic between nodes on opposite switches. This is the
// substrate the FTD's routing-table restoration depends on.
#include <cstdio>
#include <memory>
#include <vector>

#include "faultinject/workload.hpp"
#include "gm/node.hpp"
#include "mapper/mapper.hpp"
#include "net/topology.hpp"

using namespace myri;

int main() {
  sim::EventQueue eq;
  sim::Rng rng(2003);
  net::Topology topo(eq, rng);

  // Fabric: sw0 -- sw1 -- sw2 (a line), two hosts per switch.
  const auto s0 = topo.add_switch(8, "sw0");
  const auto s1 = topo.add_switch(8, "sw1");
  const auto s2 = topo.add_switch(8, "sw2");
  topo.connect_switches(s0, 7, s1, 6);
  topo.connect_switches(s1, 7, s2, 6);

  std::vector<std::unique_ptr<gm::Node>> nodes;
  const std::uint16_t attach_sw[] = {s0, s0, s1, s1, s2, s2};
  for (int i = 0; i < 6; ++i) {
    gm::Node::Config nc;
    nc.id = static_cast<net::NodeId>(i);
    nc.host_mem_bytes = 8u << 20;
    nodes.push_back(
        std::make_unique<gm::Node>(eq, nc, "node" + std::to_string(i),
                                   nc.id + 1));
    nodes.back()->attach(topo, attach_sw[i], static_cast<std::uint8_t>(i % 2));
    nodes.back()->boot();
  }

  std::printf("fabric: 3 switches in a line, 6 interfaces, no routes yet\n");
  std::printf("node5 route table size before mapping: %zu\n\n",
              nodes[5]->nic().num_routes());

  // Run the mapper from node 0.
  mapper::Mapper mapper(*nodes[0]);
  bool ok = false;
  mapper.run([&](bool r) { ok = r; });
  eq.run(10'000'000);

  std::printf("mapper finished: %s\n", ok ? "ok" : "FAILED");
  std::printf("discovered: %zu interfaces, %zu switches "
              "(%llu scouts, %llu timeouts)\n",
              mapper.interfaces().size(), mapper.num_switches(),
              static_cast<unsigned long long>(mapper.stats().scouts_sent),
              static_cast<unsigned long long>(mapper.stats().timeouts));
  for (net::NodeId a : {net::NodeId{0}, net::NodeId{2}}) {
    for (net::NodeId b : mapper.interfaces()) {
      if (a == b) continue;
      auto r = mapper.route_between(a, b);
      if (!r) continue;
      std::printf("  route %u->%u: [", a, b);
      for (std::size_t i = 0; i < r->size(); ++i) {
        std::printf("%s%u", i ? " " : "", (*r)[i]);
      }
      std::printf("]\n");
    }
  }
  std::printf("node5 route table size after mapping: %zu\n\n",
              nodes[5]->nic().num_routes());

  // Prove it: verified traffic between the far corners (node0 <-> node5).
  gm::Port& tx = nodes[0]->open_port(2);
  gm::Port& rx = nodes[5]->open_port(3);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 25;
  wc.msg_len = 4096;
  fi::StreamWorkload wl(tx, rx, wc);
  eq.run_for(sim::usec(900));
  wl.start();
  eq.run_for(sim::msec(50));
  std::printf("traffic node0 -> node5 across both inter-switch links: "
              "%d/25 delivered, %d corrupted\n",
              wl.received(), wl.corrupted());
  return wl.complete() && ok ? 0 : 1;
}
