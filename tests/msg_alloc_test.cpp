// Deterministic allocation gate for the message path.
//
// A steady-state FTGM ping-pong walks every per-message layer: Port::post,
// the host CPU and PCI models, the MCP's exec/post_event steps, the wire
// and the switch, receive DMA and the receive handler. Each step's closure
// is type-erased once, inside its event-queue slab entry, so none of them
// allocates; a std::function per step costs one heap allocation for every
// closure past its 16-byte buffer, about 19 per delivered message. The
// queues and tables on the path (backup store, streams, token pools,
// receive queues, page hash) reuse their storage once grown, so what
// remains is each data packet's payload vector: one per message. The
// count depends on the workload and the seed, not on the machine, so this
// gate holds on any runner.
//
// The event queue on its own gets a ceiling too: a fresh queue running a
// sparse soak-like schedule allocates only when its slab grows. And since
// the allocator below can be made to fail, a failed slab growth is
// checked to leave the queue as it was.
//
// Its own binary: the counting global operator new below (plain and
// over-aligned) replaces the allocator for every test linked with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "gm/cluster.hpp"
#include "sim/event_queue.hpp"

namespace {
std::size_t g_allocs = 0;  // the simulator is single-threaded
// When set to n > 0, the n-th allocation from now on throws bad_alloc.
std::size_t g_fail_in = 0;
bool fail_now() { return g_fail_in != 0 && --g_fail_in == 0; }
}  // namespace

// All out of line. Inlined, the new's malloc() meets the operator delete
// below, and the deletes' free() meets pointers from this new: GCC's
// -Wmismatched-new-delete flags both pairings.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocs;
  if (fail_now()) throw std::bad_alloc();
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
// Sanitizer runtimes define the array forms themselves, bypassing the
// operator new above; route them through it so every build counts alike.
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(al);
  if (fail_now()) throw std::bad_alloc();
  if (void* p = std::aligned_alloc(a, (std::max<std::size_t>(n, 1) + a - 1) /
                                          a * a)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

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

// Routing steps run by every switch of `c` so far.
std::uint64_t routing_steps(gm::Cluster& c) {
  std::uint64_t n = 0;
  for (std::uint16_t s = 0; s < c.topo().num_switches(); ++s) {
    n += c.topo().get_switch(s).stats().routing_steps;
  }
  return n;
}

TEST(MessageAllocations, PingPongAllocatesAtMostThreeTimesPerMessage) {
  PingPong pp;
  gm::Cluster& c = pp.cluster();
  c.run_for(sim::usec(900));  // boot: ports open on the cards
  pp.start();
  c.run_for(sim::msec(20));  // warm-up: pools, queues and tables grown
  ASSERT_GT(pp.delivered(), 0u);

  const std::size_t allocs0 = g_allocs;
  const std::uint64_t events0 = c.eq().executed();
  const std::uint64_t steps0 = routing_steps(c);
  const std::uint64_t delivered0 = pp.delivered();
  c.run_for(sim::msec(200));
  const std::size_t allocs = g_allocs - allocs0;
  const std::uint64_t events = c.eq().executed() - events0;
  const std::uint64_t steps = routing_steps(c) - steps0;
  const std::uint64_t delivered = pp.delivered() - delivered0;

  // 398,237 was pinned when every step was still a std::function and a
  // switch hop took two events (the arrival, then the routing step): the
  // simulated program depends neither on how a closure is stored nor on
  // the arrival being an event of its own. Each hop now folds its arrival
  // into its routing step, one event fewer per step.
  EXPECT_EQ(events + steps, 398237u);
  EXPECT_EQ(steps, 30488u);
  EXPECT_EQ(delivered, 15243u);
  EXPECT_GE(pp.completed() + 1, pp.delivered());
  const double per_msg =
      static_cast<double>(allocs) / static_cast<double>(delivered);
  std::printf("%llu events, %llu messages, %zu allocations, %.2f per message\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(delivered), allocs, per_msg);
  // 1.00 measured: one payload vector per message.
  EXPECT_LE(per_msg, 1.1);
}

// A sparse soak-like schedule: 64 nodes, each with a housekeeping timer
// every 551 us, bursts of 4-12 message hops 0.2-2 us apart every 50-500 us,
// a 5 ms watchdog re-armed (cancelled and scheduled again) after every
// burst as Mcp::wake_ is, and now and then an alarm 0.1-1 s out.
class SparseSoak {
 public:
  explicit SparseSoak(sim::EventQueue& eq) : eq_(eq) {
    for (int n = 0; n < kNodes; ++n) {
      eq_.post_at(draw(1000), [this, n] { tick(n); });
      eq_.post_at(draw(50'000),
                  [this, n] { hop(n, 4 + static_cast<int>(draw(9))); });
    }
  }

  // Most slots the queue ever needed at once.
  [[nodiscard]] std::size_t peak_slots() const { return peak_; }

 private:
  static constexpr int kNodes = 64;

  void note() {
    peak_ = std::max(peak_, eq_.pending_events() + eq_.cancelled_pending() + 1);
  }
  void tick(int n) {
    note();
    eq_.post_after(551'000, [this, n] { tick(n); });
  }
  void hop(int n, int left) {
    note();
    if (left > 0) {
      eq_.post_after(200 + draw(1800), [this, n, left] { hop(n, left - 1); });
      return;
    }
    watchdog_[static_cast<std::size_t>(n)].cancel();
    watchdog_[static_cast<std::size_t>(n)] =
        eq_.schedule_after(5'000'000, [this] { note(); });
    if (draw(32) == 0) {
      eq_.post_after(100'000'000 + draw(900'000'000), [this] { note(); });
    }
    eq_.post_after(50'000 + draw(450'000),
                   [this, n] { hop(n, 4 + static_cast<int>(draw(9))); });
  }
  std::uint64_t draw(std::uint64_t bound) {
    x_ = x_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x_ >> 33) % bound;
  }

  sim::EventQueue& eq_;
  std::array<sim::EventQueue::Handle, kNodes> watchdog_{};
  std::uint64_t x_ = 2026;
  std::size_t peak_ = 0;
};

TEST(QueueAllocations, SparseSoakScheduleAllocatesOnlyWhenTheSlabGrows) {
  // A fresh queue runs about a million events. On the queue this replaced
  // (a ring of per-bucket vectors, regrown in every fresh queue, and an
  // overflow heap) the same run made 20,770 operator new calls. Now the
  // slab's chunks double from 256 entries, each one paired with one resize
  // of the near heap, and the queue makes two more arrays when built.
  const std::size_t allocs0 = g_allocs;
  std::uint64_t events = 0;
  std::size_t peak = 0;
  {
    sim::EventQueue eq;
    SparseSoak soak(eq);
    while (eq.executed() < 1'000'000) eq.run_until(eq.now() + sim::msec(10));
    events = eq.executed();
    peak = soak.peak_slots();
    EXPECT_GE(eq.compactions(), 1u);
  }
  const std::size_t allocs = g_allocs - allocs0;
  std::size_t chunks = 0;
  for (std::size_t slots = 0; slots < peak; ++chunks) {
    slots += std::size_t{256} << chunks;
  }
  std::printf("%llu events, peak %zu slots, %zu allocations\n",
              static_cast<unsigned long long>(events), peak, allocs);
  EXPECT_GE(events, 1'000'000u);
  EXPECT_LE(allocs, 2 + 2 * chunks);
}

TEST(QueueAllocations, FailedSlabGrowthLeavesTheQueueAsItWas) {
  // The 257th queued event opens the slab's second chunk, which takes two
  // allocations: a bigger near heap and the chunk itself. Fail the first,
  // then the second, until the growth goes through: a failed event must
  // not be counted or run, and the queue must keep its order.
  sim::EventQueue eq;
  std::array<int, 600> order{};
  std::size_t ran = 0;
  const auto post = [&](int i) {
    eq.post_at(sim::Time(1000 - i),
               [&order, &ran, i] { order.at(ran++) = i; });
  };
  for (int i = 0; i < 256; ++i) post(i);
  std::size_t failures = 0;
  for (std::size_t fail = 1;; ++fail) {
    g_fail_in = fail;
    try {
      post(256);
    } catch (const std::bad_alloc&) {
      g_fail_in = 0;
      ++failures;
      EXPECT_EQ(eq.pending_events(), 256u);
      EXPECT_EQ(eq.cancelled_pending(), 0u);
      continue;
    }
    g_fail_in = 0;
    break;
  }
  EXPECT_EQ(failures, 2u);
  for (int i = 257; i < 600; ++i) post(i);
  EXPECT_EQ(eq.pending_events(), 600u);
  EXPECT_EQ(eq.run(), 600u);
  EXPECT_TRUE(eq.empty());
  ASSERT_EQ(ran, 600u);
  for (int j = 0; j < 600; ++j) EXPECT_EQ(order[j], 599 - j);
}

}  // namespace
}  // namespace myri
