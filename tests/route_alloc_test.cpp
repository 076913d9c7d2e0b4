// Deterministic allocation gate for the route pipeline.
//
// A remap moves every source route in the fabric: the mapper computes
// n·(n−1) routes, copies each into its table, encodes them into MAP_ROUTE
// chunks, and every card walks its chunks into the on-card table and the
// driver mirror. With routes as inline values (net::Route) none of those
// steps allocates per route; a std::vector per route costs several heap
// allocations each. The count depends on the fabric and the seed, not on
// the machine, so this gate holds on any runner.
//
// Its own binary: the counting global operator new below replaces the
// allocator for every test linked with it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <new>

#include "gm/cluster.hpp"
#include "mapper/failover.hpp"

namespace {
std::size_t g_allocs = 0;  // the simulator is single-threaded
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace myri {
namespace {

// soak64's cluster: 64 FTGM nodes on a radix-10 fat-tree, booted with the
// builder's pristine routes, as the scenario runner builds it.
gm::ClusterConfig soak_fabric() {
  gm::ClusterConfig cc;
  cc.nodes = 64;
  cc.fabric = net::FabricPreset::kFatTree;
  cc.switch_ports = 10;
  cc.mode = mcp::McpMode::kFtgm;
  cc.seed = 2026;
  return cc;
}

// Routing steps run by every switch of `c` so far.
std::uint64_t routing_steps(gm::Cluster& c) {
  std::uint64_t n = 0;
  for (std::uint16_t s = 0; s < c.topo().num_switches(); ++s) {
    n += c.topo().get_switch(s).stats().routing_steps;
  }
  return n;
}

TEST(RouteAllocations, RemapAllocatesAtMostTwicePerRoute) {
  gm::Cluster cluster(soak_fabric());
  mapper::FailoverManager fm(cluster);
  constexpr std::size_t kRoutes = 64 * 63;  // distributed per epoch
  // Events per epoch, pinned when routes were still std::vectors and a
  // switch hop took two events (the arrival, then the routing step): the
  // simulated program depends neither on how a route is stored nor on the
  // arrival being an event of its own. Each hop now folds its arrival
  // into its routing step, one event fewer per step.
  constexpr std::size_t kEvents[] = {6997, 6997, 6997};
  // Heap allocations per epoch, pinned with dense route tables on every
  // card and table rows read off one tree walk per attach switch: 1,503
  // for the first epoch (it sizes the mapper's per-node rows and the
  // cards' tables) and 867 for each later one (0.37 and 0.22 per route),
  // with a ~10% margin.
  constexpr std::size_t kMaxAllocs[] = {1650, 950, 950};
  for (std::size_t epoch = 0; epoch < std::size(kEvents); ++epoch) {
    const std::size_t expected_events = kEvents[epoch];
    const std::size_t before = g_allocs;
    const std::uint64_t steps0 = routing_steps(cluster);
    bool ok = false;
    fm.remap_now([&](bool r) { ok = r; });
    const std::size_t events = cluster.run_until_idle();
    const std::size_t allocs = g_allocs - before;
    const std::uint64_t steps = routing_steps(cluster) - steps0;
    ASSERT_TRUE(ok);
    EXPECT_TRUE(fm.converged());
    EXPECT_EQ(events + steps, expected_events);
    EXPECT_EQ(steps, 2194u);
    const double per_route = static_cast<double>(allocs) / kRoutes;
    std::printf("epoch %u: %zu events, %zu allocations, %.2f per route\n",
                fm.mapper().epoch(), events, allocs, per_route);
    EXPECT_LE(per_route, 2.0);
    EXPECT_LE(allocs, kMaxAllocs[epoch]);
  }
}

}  // namespace
}  // namespace myri
