// Deterministic allocation gate for the message path.
//
// A steady-state FTGM ping-pong walks every per-message layer: Port::post,
// the host CPU and PCI models, the MCP's exec/post_event steps, the wire
// and the switch, receive DMA and the receive handler. Each step's closure
// is type-erased once, inside its event-queue slab entry, so none of them
// allocates; a std::function per step costs one heap allocation for every
// closure past its 16-byte buffer, about 19 per delivered message. What
// remains is each packet's payload vector and std::deque chunk churn. The
// count depends on the workload and the seed, not on the machine, so this
// gate holds on any runner.
//
// Its own binary: the counting global operator new below replaces the
// allocator for every test linked with it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "gm/cluster.hpp"

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

constexpr std::uint32_t kLen = 64;
constexpr std::uint8_t kPort = 2;

// The paper's testbed: two FTGM nodes on one switch, one message in
// flight. Node 0 pings, node 1's receive handler echoes the bytes back,
// node 0's handler posts the next ping; both hand their buffer back.
class PingPong {
 public:
  PingPong() : cluster_(config()) {
    for (int i = 0; i < 2; ++i) {
      gm::Port& p = cluster_.node(i).open_port(kPort);
      port_[i] = &p;
      send_buf_[i] = p.alloc_dma_buffer(kLen);
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(p.provide_receive_buffer(p.alloc_dma_buffer(kLen)),
                  gm::Status::kOk);
      }
      p.set_receive_handler([this, i](const gm::RecvInfo& info) {
        ++delivered_;
        EXPECT_EQ(port_[i]->provide_receive_buffer(info.buffer),
                  gm::Status::kOk);
        post(i);
      });
    }
    std::memset(cluster_.node(0).memory().at(send_buf_[0].addr, kLen).data(),
                0x5a, kLen);
  }

  // The first ping, once the cards have booted and opened their ports.
  void start() { post(0); }

  gm::Cluster& cluster() { return cluster_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }

 private:
  static gm::ClusterConfig config() {
    gm::ClusterConfig cc;
    cc.nodes = 2;
    cc.mode = mcp::McpMode::kFtgm;
    cc.seed = 2026;
    return cc;
  }

  void post(int from) {
    const gm::Status st = port_[from]->post(
        send_buf_[from], kLen,
        {.dst = static_cast<net::NodeId>(1 - from),
         .dst_port = kPort,
         .callback = [this](bool ok) { completed_ += ok ? 1 : 0; }});
    EXPECT_EQ(st, gm::Status::kOk);
  }

  gm::Cluster cluster_;
  gm::Port* port_[2] = {nullptr, nullptr};
  gm::Buffer send_buf_[2];
  std::uint64_t delivered_ = 0;
  std::uint64_t completed_ = 0;
};

TEST(MessageAllocations, PingPongAllocatesAtMostThreeTimesPerMessage) {
  PingPong pp;
  gm::Cluster& c = pp.cluster();
  c.run_for(sim::usec(900));  // boot: ports open on the cards
  pp.start();
  c.run_for(sim::msec(20));  // warm-up: pools, queues and tables grown
  ASSERT_GT(pp.delivered(), 0u);

  const std::size_t allocs0 = g_allocs;
  const std::uint64_t events0 = c.eq().executed();
  const std::uint64_t delivered0 = pp.delivered();
  c.run_for(sim::msec(200));
  const std::size_t allocs = g_allocs - allocs0;
  const std::uint64_t events = c.eq().executed() - events0;
  const std::uint64_t delivered = pp.delivered() - delivered0;

  // Pinned when every step was still a std::function: the simulated
  // program does not depend on how a closure is stored.
  EXPECT_EQ(events, 398237u);
  EXPECT_EQ(delivered, 15243u);
  EXPECT_GE(pp.completed() + 1, pp.delivered());
  const double per_msg =
      static_cast<double>(allocs) / static_cast<double>(delivered);
  std::printf("%llu events, %llu messages, %zu allocations, %.2f per message\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(delivered), allocs, per_msg);
  EXPECT_LE(per_msg, 3.0);
}

}  // namespace
}  // namespace myri
