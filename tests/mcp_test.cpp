// MCP transport tests: fragmentation, Go-Back-N reliability, token
// matching, L_timer housekeeping, and failure semantics — exercised through
// the full stack (library -> PCI -> NIC -> wire -> NIC -> library).
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "lanai/registers.hpp"
#include "mcp/send_chunk.hpp"

namespace myri {
namespace {

using gm::Cluster;
using gm::ClusterConfig;

ClusterConfig base_config(mcp::McpMode mode = mcp::McpMode::kGm) {
  ClusterConfig cc;
  cc.nodes = 2;
  cc.mode = mode;
  return cc;
}

struct StreamResult {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<fi::StreamWorkload> wl;
};

StreamResult run_stream(ClusterConfig cc, int msgs, std::uint32_t len,
                        sim::Time window) {
  StreamResult r;
  r.cluster = std::make_unique<Cluster>(cc);
  auto& tx = r.cluster->node(0).open_port(2);
  auto& rx = r.cluster->node(1).open_port(3);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = msgs;
  wc.msg_len = len;
  r.wl = std::make_unique<fi::StreamWorkload>(tx, rx, wc);
  r.cluster->run_for(sim::usec(900));
  r.wl->start();
  r.cluster->run_for(window);
  return r;
}

TEST(McpTransport, SingleSmallMessage) {
  auto r = run_stream(base_config(), 1, 100, sim::msec(1));
  EXPECT_TRUE(r.wl->complete());
  EXPECT_EQ(r.cluster->node(0).mcp().stats().fragments_tx, 1u);
}

TEST(McpTransport, ZeroLengthMessage) {
  // GM supports zero-byte messages (pure notifications); the verified
  // workload needs a 4-byte index, so drive the API directly.
  Cluster cluster(base_config());
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  cluster.run_for(sim::usec(900));
  rx.provide_receive_buffer(rx.alloc_dma_buffer(64));
  int got = -1;
  rx.set_receive_handler(
      [&](const gm::RecvInfo& info) { got = static_cast<int>(info.len); });
  bool done = false;
  gm::Buffer b = tx.alloc_dma_buffer(16);
  ASSERT_TRUE(
      tx.post(b, 0, {.dst = 1, .dst_port = 3,
                     .callback = [&](bool ok) { done = ok; }}).ok());
  cluster.run_for(sim::msec(2));
  EXPECT_TRUE(done);
  EXPECT_EQ(got, 0);
}

TEST(McpTransport, ManyMessagesExactlyOnce) {
  auto r = run_stream(base_config(), 100, 512, sim::msec(20));
  EXPECT_TRUE(r.wl->complete());
  EXPECT_EQ(r.wl->duplicates(), 0);
}

TEST(McpTransport, FragmentationBoundaries) {
  // Sizes straddling the 4 KB packet limit (paper Section 5.1).
  for (std::uint32_t len : {4095u, 4096u, 4097u, 8192u, 12289u}) {
    auto r = run_stream(base_config(), 3, len, sim::msec(10));
    EXPECT_TRUE(r.wl->complete()) << "len=" << len;
    const std::uint64_t expect_frags =
        3ull * ((len + net::kMaxPacketPayload - 1) / net::kMaxPacketPayload);
    EXPECT_EQ(r.cluster->node(0).mcp().stats().fragments_tx, expect_frags)
        << "len=" << len;
  }
}

TEST(McpTransport, LargeMessageReassemblesCorrectly) {
  auto r = run_stream(base_config(), 2, 256 * 1024, sim::msec(80));
  EXPECT_TRUE(r.wl->complete());
  EXPECT_EQ(r.wl->corrupted(), 0);
}

TEST(McpTransport, BidirectionalTraffic) {
  ClusterConfig cc = base_config();
  Cluster cluster(cc);
  auto& p0 = cluster.node(0).open_port(2);
  auto& p1 = cluster.node(1).open_port(2);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 40;
  wc.msg_len = 1024;
  fi::StreamWorkload a_to_b(p0, p1, wc);
  fi::StreamWorkload b_to_a(p1, p0, wc);
  cluster.run_for(sim::usec(900));
  a_to_b.start();
  b_to_a.start();
  cluster.run_for(sim::msec(20));
  EXPECT_TRUE(a_to_b.complete());
  EXPECT_TRUE(b_to_a.complete());
}

TEST(McpTransport, TwoSendingPortsDeliverIndependently) {
  ClusterConfig cc = base_config(mcp::McpMode::kFtgm);
  Cluster cluster(cc);
  auto& tx_a = cluster.node(0).open_port(1);
  auto& tx_b = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 20;
  wc.msg_len = 700;
  fi::StreamWorkload wa(tx_a, rx, wc);
  cluster.run_for(sim::usec(900));
  wa.start();
  cluster.run_for(sim::msec(10));
  EXPECT_TRUE(wa.complete());
  // A second port's stream also starts at sequence 0: per-(port, dst)
  // streams mean no interference (paper Fig 6 restructuring).
  fi::StreamWorkload wb(tx_b, rx, wc);
  wb.start();
  cluster.run_for(sim::msec(10));
  EXPECT_TRUE(wb.complete());
  EXPECT_EQ(cluster.node(0).mcp().stats().fragments_tx, 40u);
}

TEST(McpTransport, EightNodeFanIn) {
  ClusterConfig cc = base_config();
  cc.nodes = 8;
  Cluster cluster(cc);
  auto& rx = cluster.node(0).open_port(1, {64, 64});
  std::vector<std::unique_ptr<fi::StreamWorkload>> wls;
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 10;
  wc.msg_len = 256;
  wc.recv_buffers = 40;
  for (int i = 1; i < 8; ++i) {
    auto& tx = cluster.node(i).open_port(1);
    wls.push_back(std::make_unique<fi::StreamWorkload>(tx, rx, wc));
  }
  cluster.run_for(sim::usec(900));
  for (auto& w : wls) w->start();
  cluster.run_for(sim::msec(30));
  int total = 0;
  for (auto& w : wls) total += w->received();
  EXPECT_EQ(total, 70);
  EXPECT_EQ(rx.stats().msgs_received, 70u);
}

// ---- Go-Back-N under transient network faults (paper Section 2: GM
// handles dropped, corrupted and misrouted packets transparently) ----

TEST(McpGoBackN, SurvivesDroppedPackets) {
  ClusterConfig cc = base_config();
  cc.faults.drop_prob = 0.15;
  auto r = run_stream(cc, 50, 1500, sim::msec(200));
  EXPECT_TRUE(r.wl->complete());
  EXPECT_GT(r.cluster->node(0).mcp().stats().retransmissions, 0u);
}

TEST(McpGoBackN, SurvivesCorruptedPackets) {
  ClusterConfig cc = base_config();
  cc.faults.corrupt_prob = 0.15;
  auto r = run_stream(cc, 50, 1500, sim::msec(200));
  EXPECT_TRUE(r.wl->complete());
  EXPECT_GT(r.cluster->node(1).mcp().stats().crc_drops, 0u);
  EXPECT_EQ(r.wl->corrupted(), 0);  // CRC keeps damage away from the app
}

TEST(McpGoBackN, SurvivesMisroutedPackets) {
  ClusterConfig cc = base_config();
  cc.faults.misroute_prob = 0.10;
  auto r = run_stream(cc, 50, 1500, sim::msec(200));
  EXPECT_TRUE(r.wl->complete());
}

TEST(McpGoBackN, SurvivesAllFaultsTogether) {
  ClusterConfig cc = base_config();
  cc.faults = {0.08, 0.08, 0.03};
  auto r = run_stream(cc, 40, 2500, sim::msec(400));
  EXPECT_TRUE(r.wl->complete());
  EXPECT_EQ(r.wl->duplicates(), 0);
}

TEST(McpGoBackN, NackTriggersRewind) {
  ClusterConfig cc = base_config();
  cc.faults.drop_prob = 0.2;
  auto r = run_stream(cc, 30, 6000, sim::msec(300));
  EXPECT_TRUE(r.wl->complete());
  EXPECT_GT(r.cluster->node(0).mcp().stats().nacks_rx, 0u);
}

TEST(McpGoBackN, DuplicateFragmentsFilteredByMcp) {
  ClusterConfig cc = base_config();
  cc.faults.drop_prob = 0.25;
  auto r = run_stream(cc, 30, 9000, sim::msec(400));
  EXPECT_TRUE(r.wl->complete());
  EXPECT_EQ(r.wl->duplicates(), 0);
  EXPECT_GT(r.cluster->node(1).mcp().stats().dup_drops, 0u);
}

// ---- receive-token behaviour ----

TEST(McpTokens, NoBufferMeansRetryUntilProvided) {
  ClusterConfig cc = base_config();
  Cluster cluster(cc);
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  cluster.run_for(sim::usec(900));

  gm::Buffer sbuf = tx.alloc_dma_buffer(256);
  bool sent = false;
  ASSERT_TRUE(
      tx.post(sbuf, 256, {.dst = 1, .dst_port = 3,
                          .callback = [&](bool ok) { sent = ok; }}).ok());
  cluster.run_for(sim::msec(3));
  EXPECT_FALSE(sent);  // receiver has no buffer: sender keeps retrying
  EXPECT_GT(cluster.node(1).mcp().stats().no_token_drops, 0u);

  int got = 0;
  rx.set_receive_handler([&](const gm::RecvInfo&) { ++got; });
  gm::Buffer rbuf = rx.alloc_dma_buffer(256);
  rx.provide_receive_buffer(rbuf);
  cluster.run_for(sim::msec(3));
  EXPECT_TRUE(sent);
  EXPECT_EQ(got, 1);
}

TEST(McpTokens, BufferTooSmallIsNotMatched) {
  ClusterConfig cc = base_config();
  Cluster cluster(cc);
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  cluster.run_for(sim::usec(900));

  gm::Buffer small = rx.alloc_dma_buffer(64);
  rx.provide_receive_buffer(small);
  gm::Buffer sbuf = tx.alloc_dma_buffer(512);
  bool sent = false;
  ASSERT_TRUE(
      tx.post(sbuf, 512, {.dst = 1, .dst_port = 3,
                          .callback = [&](bool ok) { sent = ok; }}).ok());
  cluster.run_for(sim::msec(3));
  EXPECT_FALSE(sent);

  gm::Buffer big = rx.alloc_dma_buffer(512);
  rx.provide_receive_buffer(big);
  cluster.run_for(sim::msec(3));
  EXPECT_TRUE(sent);
}

TEST(McpTokens, PriorityMustMatch) {
  ClusterConfig cc = base_config();
  Cluster cluster(cc);
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  cluster.run_for(sim::usec(900));

  gm::Buffer lo = rx.alloc_dma_buffer(256);
  rx.provide_receive_buffer(lo, /*priority=*/0);
  gm::Buffer sbuf = tx.alloc_dma_buffer(128);
  bool sent = false;
  ASSERT_TRUE(
      tx.post(sbuf, 128, {.dst = 1, .dst_port = 3, .priority = 1,
                          .callback = [&](bool ok) { sent = ok; }}).ok());
  cluster.run_for(sim::msec(3));
  EXPECT_FALSE(sent);
  gm::Buffer hi = rx.alloc_dma_buffer(256);
  rx.provide_receive_buffer(hi, /*priority=*/1);
  cluster.run_for(sim::msec(3));
  EXPECT_TRUE(sent);
}

// ---- error paths ----

TEST(McpErrors, UnroutableDestinationRejectedSynchronously) {
  ClusterConfig cc = base_config();
  Cluster cluster(cc);
  auto& tx = cluster.node(0).open_port(2);
  cluster.run_for(sim::usec(900));
  gm::Buffer b = tx.alloc_dma_buffer(64);
  const std::uint32_t tokens_before = tx.send_tokens_free();
  bool fired = false;
  const gm::Status st =
      tx.post(b, 64, {.dst = 7, .dst_port = 3,
                      .callback = [&](bool) { fired = true; }});
  EXPECT_EQ(st.code(), gm::Status::kUnreachable);
  cluster.run_for(sim::msec(1));
  // The post was refused up front: no callback, no token consumed, no
  // NIC-level send error manufactured.
  EXPECT_FALSE(fired);
  EXPECT_EQ(tx.send_tokens_free(), tokens_before);
  EXPECT_EQ(tx.stats().send_errors, 0u);
}

TEST(McpErrors, SendFromNotYetOpenPortErrors) {
  ClusterConfig cc = base_config();
  Cluster cluster(cc);
  auto& tx = cluster.node(0).open_port(2);
  gm::Buffer b = tx.alloc_dma_buffer(64);  // port opens at first L_timer
  bool fired = false, cb_ok = true;
  ASSERT_TRUE(tx.post(b, 64, {.dst = 1, .dst_port = 3,
                              .callback = [&](bool ok) {
                                cb_ok = ok;
                                fired = true;
                              }}).ok());
  cluster.run_for(sim::msec(1));
  EXPECT_TRUE(fired);
  EXPECT_FALSE(cb_ok);
}

TEST(McpErrors, HungMcpStopsTrafficAndGmNeverNotices) {
  ClusterConfig cc = base_config();
  Cluster cluster(cc);
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 50;
  wc.msg_len = 3000;
  fi::StreamWorkload wl(tx, rx, wc);
  cluster.run_for(sim::usec(900));
  wl.start();
  cluster.eq().schedule_after(sim::usec(50), [&] {
    cluster.node(0).mcp().inject_hang("test");
  });
  cluster.run_for(sim::msec(10));
  EXPECT_FALSE(wl.complete());
  EXPECT_TRUE(cluster.node(0).mcp().hung());
  // GM mode: no watchdog, no FATAL interrupt, node silently cut off.
  EXPECT_EQ(cluster.node(0).driver().fatal_interrupts(), 0u);
}

// ---- L_timer housekeeping ----

TEST(McpLTimer, RunsPeriodically) {
  ClusterConfig cc = base_config();
  Cluster cluster(cc);
  cluster.run_for(sim::msec(11));
  const auto runs = cluster.node(0).mcp().stats().l_timer_runs;
  // Nominal period 550 us -> ~20 runs in 11 ms.
  EXPECT_GE(runs, 15u);
  EXPECT_LE(runs, 25u);
}

TEST(McpLTimer, MaxGapStaysUnderWatchdogInterval) {
  // The invariant behind the paper's watchdog design: even under load,
  // consecutive L_timer() runs stay closer together than IT1's 820 us.
  ClusterConfig cc = base_config(mcp::McpMode::kFtgm);
  Cluster cluster(cc);
  auto& p0 = cluster.node(0).open_port(2);
  auto& p1 = cluster.node(1).open_port(2);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 200;
  wc.msg_len = 4096;
  fi::StreamWorkload a(p0, p1, wc), b(p1, p0, wc);
  cluster.run_for(sim::usec(900));
  a.start();
  b.start();
  cluster.run_for(sim::msec(40));
  const auto gap = cluster.node(0).mcp().max_l_timer_gap();
  EXPECT_GT(gap, sim::usecf(550.0));  // queueing delays it past nominal
  EXPECT_LT(gap, sim::usecf(820.0));  // but never past the watchdog
}

TEST(McpLTimer, ClearsMagicWord) {
  ClusterConfig cc = base_config();
  Cluster cluster(cc);
  cluster.node(0).driver().write_magic(0xfeedface);
  cluster.run_for(sim::msec(1));
  EXPECT_EQ(cluster.node(0).driver().read_magic(), 0u);
}

TEST(McpLTimer, HungMcpLeavesMagicWord) {
  ClusterConfig cc = base_config();
  Cluster cluster(cc);
  cluster.node(0).mcp().inject_hang("test");
  cluster.node(0).driver().write_magic(0xfeedface);
  cluster.run_for(sim::msec(5));
  EXPECT_EQ(cluster.node(0).driver().read_magic(), 0xfeedfaceu);
}

TEST(McpLTimer, AlarmDeliveredThroughReceiveQueue) {
  ClusterConfig cc = base_config();
  Cluster cluster(cc);
  auto& p = cluster.node(0).open_port(2);
  cluster.run_for(sim::usec(900));
  bool fired = false;
  sim::Time at = 0;
  p.set_alarm(sim::msec(2), [&] {
    fired = true;
    at = cluster.eq().now();
  });
  cluster.run_for(sim::msec(5));
  EXPECT_TRUE(fired);
  EXPECT_GE(at, sim::msec(2));
  EXPECT_LE(at, sim::msec(3) + sim::usec(600));  // + L_timer command latency
}

TEST(McpLTimer, PortOpenGoesThroughControlPath) {
  ClusterConfig cc = base_config();
  Cluster cluster(cc);
  cluster.node(0).open_port(4);
  EXPECT_FALSE(cluster.node(0).mcp().port_open(4));
  cluster.run_for(sim::usec(900));
  EXPECT_TRUE(cluster.node(0).mcp().port_open(4));
}

// ---- send_chunk image ----

TEST(SendChunk, AssemblesWithBothEntryPoints) {
  const auto img = mcp::assemble_send_chunk();
  EXPECT_GT(img.program.words.size(), 40u);
  EXPECT_EQ(img.entry_dma, mcp::SramLayout::kCodeBase);
  EXPECT_GT(img.entry_tx, img.entry_dma);
  EXPECT_LT(img.program.base + img.program.size_bytes(),
            mcp::SramLayout::kCodeLimit);
}

TEST(SendChunk, EveryCardLoadsTheSameAssembledImage) {
  // Cards share one image assembled per process; what each loads into its
  // SRAM code segment is exactly what a fresh assembly produces.
  Cluster cluster(base_config());
  const auto img = mcp::assemble_send_chunk();
  for (int n = 0; n < 2; ++n) {
    const mcp::Mcp& m = cluster.node(n).mcp();
    ASSERT_EQ(m.code_size(), img.program.size_bytes());
    const lanai::Sram& sram = cluster.node(n).nic().sram();
    for (std::size_t i = 0; i < img.program.words.size(); ++i) {
      const auto addr = m.code_base() + static_cast<std::uint32_t>(i * 4);
      ASSERT_EQ(sram.read32(addr), img.program.words[i]) << "word " << i;
    }
  }
  // A bit flip lands in one card's SRAM copy; a reload restores it from
  // the shared image, which the flip never touched.
  lanai::Sram& sram0 = cluster.node(0).nic().sram();
  const std::uint32_t base = cluster.node(0).mcp().code_base();
  sram0.write32(base, sram0.read32(base) ^ 1u);
  cluster.node(0).driver().reload_mcp();
  EXPECT_EQ(sram0.read32(base), img.program.words[0]);
}

TEST(SendChunk, InterpreterRunsItPerFragment) {
  auto r = run_stream(base_config(), 10, 9000, sim::msec(10));
  EXPECT_TRUE(r.wl->complete());
  // 3 fragments per message, two interpreted phases each.
  EXPECT_EQ(r.cluster->node(0).mcp().stats().send_chunk_runs, 60u);
}

TEST(McpWindow, SmallWindowStillCompletes) {
  ClusterConfig cc = base_config();
  cc.send_window = 2;
  auto r = run_stream(cc, 4, 40960, sim::msec(80));  // 10 fragments each
  EXPECT_TRUE(r.wl->complete());
}

TEST(McpStats, UtilizationAccumulates) {
  auto r = run_stream(base_config(), 20, 64, sim::msec(10));
  EXPECT_TRUE(r.wl->complete());
  EXPECT_GT(r.cluster->node(0).mcp().busy_ns(), 0u);
  EXPECT_GT(r.cluster->node(1).mcp().busy_ns(), 0u);
  EXPECT_GT(r.cluster->node(0).cpu().busy_ns(), 0u);
}

// ---- L_timer tie order ----
//
// L_timer ticks are replayed analytically whenever the card is next
// touched, so the order of a touch against a tick that falls on the same
// timestamp is decided by a rule, not by two events racing in the queue.
// The cases below touch an idle 2-node FTGM cluster exactly at one of
// node 0's tick instants, where possible once ordered before the tick's
// event at that timestamp and once after it, and pin L_timer runs, max
// gap, LANai busy time, the gap histogram, delivery, alarm and FTD phase
// times. Every expected string was computed with the eager per-tick event
// chain (an IT0 expiry event, a run event and an IT1 re-arm on every
// tick), before the ticks became analytic: the replay must land every
// touch on the same side of every tie.
//
// An idle card loads at t=0 and runs L_timer at R_k = k * 551.05 us (the
// 550 us IT0 reload plus the 1.05 us dispatch); IT0 expires at
// E_k = R_k - 1.05 us.

constexpr sim::Time kTickPeriod = 551050;
constexpr sim::Time run_at(int k) { return k * kTickPeriod; }
constexpr sim::Time expiry_at(int k) { return run_at(k) - 1050; }

class TieRig {
 public:
  TieRig() : cluster_(make_config()) {
    tx_ = &cluster_.node(0).open_port(2);
    rx_ = &cluster_.node(1).open_port(3);
    for (int i = 0; i < 4; ++i) {
      (void)rx_->provide_receive_buffer(rx_->alloc_dma_buffer(64));
    }
    rx_->set_receive_handler(
        [this](const gm::RecvInfo&) { recv_at_ = cluster_.eq().now(); });
  }

  Cluster& cluster() { return cluster_; }
  mcp::Mcp& mcp0() { return cluster_.node(0).mcp(); }

  /// Run `fn` at `t`. `after` orders it behind the L_timer event that
  /// shares its timestamp: the touch is scheduled from an event 1 ns after
  /// `parent`, the instant the eager tick event at `t` was scheduled.
  /// Otherwise it is scheduled at t=0, ahead of that event.
  void touch(sim::Time t, bool after, sim::Time parent,
             std::function<void()> fn) {
    auto& eq = cluster_.eq();
    if (!after) {
      eq.schedule_at(t, std::move(fn));
      return;
    }
    eq.schedule_at(parent + 1, [&eq, t, fn = std::move(fn)]() mutable {
      eq.schedule_at(t, std::move(fn));
    });
  }

  void post() {
    const gm::Buffer b = tx_->alloc_dma_buffer(16);
    ASSERT_TRUE(tx_->post(b, 8,
                          {.dst = 1,
                           .dst_port = 3,
                           .callback =
                               [this](bool) {
                                 sent_at_ = cluster_.eq().now();
                               }})
                    .ok());
  }

  void alarm(sim::Time delay) {
    tx_->set_alarm(delay, [this] { alarm_at_ = cluster_.eq().now(); });
  }

  /// Node 0's L_timer runs, max gap, busy time and gap histogram, node
  /// 1's runs and busy time, then send/recv/alarm times and node 0's FTD.
  std::string summary() {
    const auto& m0 = cluster_.node(0).mcp();
    const auto& m1 = cluster_.node(1).mcp();
    const auto* h = cluster_.metrics().find_histogram(
        cluster_.node(0).name() + ".mcp.l_timer_gap_ns");
    const auto& ftd = cluster_.node(0).ftd();
    const auto& ph = ftd.phases();
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "runs=%llu gap=%llu busy=%llu hist=%llu/%llu n1=%llu/%llu "
        "sent=%llu recv=%llu alarm=%llu ftd=%llu/%llu/%llu "
        "irq=%llu conf=%llu done=%llu",
        static_cast<unsigned long long>(m0.stats().l_timer_runs),
        static_cast<unsigned long long>(m0.max_l_timer_gap()),
        static_cast<unsigned long long>(m0.busy_ns()),
        static_cast<unsigned long long>(h ? h->count() : 0),
        static_cast<unsigned long long>(h ? h->sum() : 0),
        static_cast<unsigned long long>(m1.stats().l_timer_runs),
        static_cast<unsigned long long>(m1.busy_ns()),
        static_cast<unsigned long long>(sent_at_),
        static_cast<unsigned long long>(recv_at_),
        static_cast<unsigned long long>(alarm_at_),
        static_cast<unsigned long long>(ftd.stats().wakeups),
        static_cast<unsigned long long>(ftd.stats().false_alarms),
        static_cast<unsigned long long>(ftd.stats().recoveries),
        static_cast<unsigned long long>(ph.interrupt_raised),
        static_cast<unsigned long long>(ph.confirmed),
        static_cast<unsigned long long>(ph.events_posted));
    return buf;
  }

 private:
  static ClusterConfig make_config() {
    ClusterConfig cc;
    cc.nodes = 2;
    cc.mode = mcp::McpMode::kFtgm;
    return cc;
  }

  Cluster cluster_;
  gm::Port* tx_ = nullptr;
  gm::Port* rx_ = nullptr;
  sim::Time sent_at_ = 0;
  sim::Time recv_at_ = 0;
  sim::Time alarm_at_ = 0;
};

// Port::post reaches the card after the host send overhead (0.30 us),
// the FTGM backup copy (0.25 us) and the doorbell PIO (0.40 us). Posting
// that much earlier makes Mcp::host_post_send run exactly at `t`, behind
// any tick event at `t` (the PIO event is scheduled 0.40 us before it).
constexpr sim::Time kPostToCard = 950;

std::string send_at(sim::Time t) {
  TieRig rig;
  rig.touch(t - kPostToCard, false, 0, [&rig] { rig.post(); });
  rig.cluster().run_for(sim::msec(3));
  return rig.summary();
}

TEST(McpTieOrder, SendLandingAroundATick) {
  // Just before E_3 the send delays the tick's run; at E_3, inside
  // (E_3, R_3) and at R_3 it queues behind the tick's reserved run.
  EXPECT_EQ(send_at(expiry_at(3) - 100),
            "runs=5 gap=551400 busy=9306 hist=4/2204550 n1=5/8000 "
            "sent=1666368 recv=1664059 alarm=0 ftd=0/0/0 irq=0 conf=0 done=0");
  EXPECT_EQ(send_at(expiry_at(3)),
            "runs=5 gap=551050 busy=9306 hist=4/2204200 n1=5/8000 "
            "sent=1666468 recv=1664159 alarm=0 ftd=0/0/0 irq=0 conf=0 done=0");
  EXPECT_EQ(send_at(expiry_at(3) + 500),
            "runs=5 gap=551050 busy=9306 hist=4/2204200 n1=5/8000 "
            "sent=1666468 recv=1664159 alarm=0 ftd=0/0/0 irq=0 conf=0 done=0");
  EXPECT_EQ(send_at(run_at(3)),
            "runs=5 gap=551050 busy=9306 hist=4/2204200 n1=5/8000 "
            "sent=1666468 recv=1664159 alarm=0 ftd=0/0/0 irq=0 conf=0 done=0");
}

std::string hang_at(sim::Time t, bool after, sim::Time parent) {
  TieRig rig;
  rig.touch(t, after, parent, [&rig] {
    rig.cluster().node(0).ftd().mark_fault_injected();
    rig.mcp0().inject_hang("tie");
  });
  rig.cluster().run_for(sim::sec(2));
  return rig.summary();
}

TEST(McpTieOrder, HangExactlyAtATick) {
  EXPECT_EQ(hang_at(expiry_at(3), false, run_at(2)),
            "runs=3400 gap=126504050 busy=3570000 hist=3399/1998971950 "
            "n1=3629/3810450 "
            "sent=0 recv=0 alarm=0 "
            "ftd=1/0/1 irq=1935100 conf=7055100 done=767105100");
  EXPECT_EQ(hang_at(expiry_at(3), true, run_at(2)),
            "runs=3400 gap=126504050 busy=3571050 hist=3399/1998971950 "
            "n1=3629/3810450 "
            "sent=0 recv=0 alarm=0 "
            "ftd=1/0/1 irq=1935100 conf=7055100 done=767105100");
  EXPECT_EQ(hang_at(run_at(3), false, expiry_at(3)),
            "runs=3400 gap=126504050 busy=3571050 hist=3399/1998971950 "
            "n1=3629/3810450 "
            "sent=0 recv=0 alarm=0 "
            "ftd=1/0/1 irq=1935100 conf=7055100 done=767105100");
  EXPECT_EQ(hang_at(run_at(3), true, expiry_at(3)),
            "runs=3400 gap=126504050 busy=3570000 hist=3399/1998971950 "
            "n1=3629/3810450 "
            "sent=0 recv=0 alarm=0 "
            "ftd=1/0/1 irq=2486150 conf=7606150 done=767656150");
}

std::string probe_at(sim::Time t, bool after, sim::Time parent) {
  // The FTD's magic-word probe, driven by hand: write the word at `t`,
  // read it back at two later instants.
  TieRig rig;
  auto& drv = rig.cluster().node(0).driver();
  std::string seen;
  rig.touch(t, after, parent, [&drv] { drv.write_magic(0xfeedface); });
  for (const sim::Time read : {t, t + 1, run_at(4), run_at(4) + 1}) {
    rig.cluster().eq().schedule_at(read, [&drv, &seen] {
      seen += drv.read_magic() == 0 ? '0' : 'M';
    });
  }
  rig.cluster().run_for(sim::msec(3));
  return seen + " " + rig.summary();
}

TEST(McpTieOrder, MagicProbeAroundARun) {
  EXPECT_EQ(probe_at(run_at(3), false, expiry_at(3)),
            "M000 runs=5 gap=551050 busy=5250 hist=4/2204200 n1=5/5250 "
            "sent=0 recv=0 alarm=0 ftd=0/0/0 irq=0 conf=0 done=0");
  EXPECT_EQ(probe_at(run_at(3), true, expiry_at(3)),
            "0MM0 runs=5 gap=551050 busy=5250 hist=4/2204200 n1=5/5250 "
            "sent=0 recv=0 alarm=0 ftd=0/0/0 irq=0 conf=0 done=0");
  EXPECT_EQ(probe_at(expiry_at(3), false, run_at(2)),
            "MM00 runs=5 gap=551050 busy=5250 hist=4/2204200 n1=5/5250 "
            "sent=0 recv=0 alarm=0 ftd=0/0/0 irq=0 conf=0 done=0");
}

TEST(McpTieOrder, SpuriousFatalAtATickIsAFalseAlarm) {
  TieRig rig;
  rig.touch(run_at(3), false, expiry_at(3), [&rig] {
    rig.cluster().node(0).nic().set_isr_bits(lanai::kIsrIt1);
  });
  rig.cluster().run_for(sim::msec(20));
  EXPECT_EQ(rig.summary(),
            "runs=36 gap=551050 busy=37800 hist=35/19286750 n1=36/37800 "
            "sent=0 recv=0 alarm=0 ftd=1/1/0 irq=1666150 conf=6786150 done=0");
}

std::string alarm_at(sim::Time t, bool after, sim::Time parent) {
  TieRig rig;
  rig.touch(t, after, parent, [&rig] { rig.alarm(sim::usec(300)); });
  rig.cluster().run_for(sim::msec(4));
  return rig.summary();
}

TEST(McpTieOrder, AlarmSetOnAnIdleCard) {
  EXPECT_EQ(alarm_at(run_at(3), false, expiry_at(3)),
            "runs=7 gap=551050 busy=7350 hist=6/3306300 n1=7/7350 "
            "sent=0 recv=0 alarm=1955145 ftd=0/0/0 irq=0 conf=0 done=0");
  EXPECT_EQ(alarm_at(run_at(3), true, expiry_at(3)),
            "runs=7 gap=551050 busy=7350 hist=6/3306300 n1=7/7350 "
            "sent=0 recv=0 alarm=2506195 ftd=0/0/0 irq=0 conf=0 done=0");
  EXPECT_EQ(alarm_at(expiry_at(3), false, run_at(2)),
            "runs=7 gap=551050 busy=7350 hist=6/3306300 n1=7/7350 "
            "sent=0 recv=0 alarm=1955145 ftd=0/0/0 irq=0 conf=0 done=0");
  EXPECT_EQ(alarm_at(expiry_at(3) + 1, false, 0),
            "runs=7 gap=551050 busy=7350 hist=6/3306300 n1=7/7350 "
            "sent=0 recv=0 alarm=1955145 ftd=0/0/0 irq=0 conf=0 done=0");
}

TEST(McpTieOrder, PortOpenOnAnIdleCard) {
  TieRig rig;
  auto& mcp = rig.mcp0();
  std::string seen;
  const auto probe = [&] { seen += mcp.port_open(5) ? '1' : '0'; };
  rig.touch(run_at(3), true, expiry_at(3),
            [&rig] { rig.cluster().node(0).open_port(5); });
  for (const sim::Time t : {run_at(4) - 1, run_at(4), run_at(4) + 1}) {
    rig.cluster().eq().schedule_at(t, probe);
  }
  rig.touch(run_at(4), true, expiry_at(4), probe);
  rig.cluster().run_for(sim::msec(3));
  EXPECT_EQ(seen + " " + rig.summary(),
            "0011 runs=5 gap=551050 busy=5250 hist=4/2204200 n1=5/5250 "
            "sent=0 recv=0 alarm=0 ftd=0/0/0 irq=0 conf=0 done=0");
}

TEST(McpTieOrder, MmioTimerArms) {
  // Re-arming IT0 through MMIO moves every later tick; a short IT1 arm
  // on a live card raises FATAL and the FTD stands down (false alarm).
  TieRig rig;
  auto& nic = rig.cluster().node(0).nic();
  std::string seen;
  rig.touch(run_at(2), true, expiry_at(2),
            [&nic] { nic.mmio_write(lanai::kRegIt0, 100); });
  rig.touch(expiry_at(3), false, run_at(2), [&nic, &seen] {
    seen += std::to_string(nic.mmio_read(lanai::kRegIt0)) + ",";
  });
  rig.cluster().eq().schedule_at(sim::usec(1500), [&nic, &seen] {
    seen += std::to_string(nic.mmio_read(lanai::kRegIt0)) + ",";
    seen += std::to_string(nic.mmio_read(lanai::kRegIt1)) + ",";
    nic.mmio_write(lanai::kRegIt1, 10);
  });
  rig.cluster().run_for(sim::msec(20));
  EXPECT_EQ(seen + " " + rig.summary(),
            "406,946,102, runs=37 gap=551050 busy=38850 hist=36/19337800 "
            "n1=36/37800 "
            "sent=0 recv=0 alarm=0 ftd=1/1/0 irq=1518000 conf=6638000 done=0");
}

TEST(McpTieOrder, LaggingRunTripsATightWatchdog) {
  // IT1 armed only 0.45 us above the idle L_timer period: a run that queues
  // behind protocol work misses the deadline on a live card, IT1 raises
  // FATAL and the FTD's magic probe finds the MCP alive (false alarm).
  // Exercises the lag prediction that decides when IT1 needs an event.
  ClusterConfig cc;
  cc.nodes = 2;
  cc.mode = mcp::McpMode::kFtgm;
  cc.timing.watchdog.it1_interval = sim::usecf(551.5);
  Cluster cluster(cc);
  auto& p0 = cluster.node(0).open_port(2);
  auto& p1 = cluster.node(1).open_port(2);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 100;
  wc.msg_len = 4096;
  fi::StreamWorkload a(p0, p1, wc), b(p1, p0, wc);
  cluster.run_for(sim::usec(900));
  a.start();
  b.start();
  cluster.run_for(sim::msec(30));
  std::string seen;
  for (int i = 0; i < 2; ++i) {
    const auto& m = cluster.node(i).mcp();
    const auto& f = cluster.node(i).ftd().stats();
    seen += std::to_string(m.stats().l_timer_runs) + "/" +
            std::to_string(m.max_l_timer_gap()) + "/" +
            std::to_string(m.busy_ns()) + "/" + std::to_string(f.wakeups) +
            "/" + std::to_string(f.false_alarms) + "/" +
            std::to_string(cluster.node(i).ftd().phases().interrupt_raised) +
            " ";
  }
  EXPECT_TRUE(a.complete());
  EXPECT_TRUE(b.complete());
  EXPECT_EQ(seen, "56/552317/739400/1/1/2217650 56/551337/739400/0/0/0 ");
}

TEST(McpTieOrder, LongIdleRunReplaysEveryTick) {
  // Seconds of idle housekeeping on both cards, with a message in the
  // middle: pins the closed-form replay of runs of identical ticks.
  TieRig rig;
  rig.touch(sim::msec(700) + 123, false, 0, [&rig] { rig.post(); });
  rig.cluster().run_for(sim::sec(2));
  EXPECT_EQ(rig.summary(),
            "runs=3629 gap=551050 busy=3814506 hist=3628/1999209400 "
            "n1=3629/3813200 "
            "sent=700014391 recv=700012082 alarm=0 "
            "ftd=0/0/0 irq=0 conf=0 done=0");
}


// ---- stream service and token matching order (pinned) ----
//
// Both pins were computed on the MCP whose streams lived in std::maps and
// whose token pools and queues were std::deques: the flat tables that
// replaced them must serve streams and match tokens in exactly the same
// order.

// FNV-1a over a string (the pins below hash the transmit order).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(McpServiceOrder, RoundRobinOverStreamsAndPrioritiesIsPinned) {
  // One FTGM card with six send streams (two ports, three peers), both
  // priorities and multi-fragment messages: the order its data fragments
  // leave in is the round-robin from the last served stream key, high
  // priority first.
  ClusterConfig cc = base_config(mcp::McpMode::kFtgm);
  cc.nodes = 4;
  Cluster cluster(cc);
  std::ostringstream tx_log;
  sim::Trace trace;
  trace.enable(sim::TraceCat::kNic, &tx_log);
  cluster.node(0).set_trace(&trace);
  gm::Port& a = cluster.node(0).open_port(2);
  gm::Port& b = cluster.node(0).open_port(4);
  int received = 0;
  for (int n = 1; n <= 3; ++n) {
    gm::Port& rx = cluster.node(n).open_port(3);
    for (int k = 0; k < 16; ++k) {
      ASSERT_EQ(rx.provide_receive_buffer(rx.alloc_dma_buffer(16384),
                                          static_cast<std::uint8_t>(k % 2)),
                gm::Status::kOk);
    }
    rx.set_receive_handler([&](const gm::RecvInfo&) { ++received; });
  }
  cluster.run_for(sim::usec(900));
  struct Post {
    gm::Port* port;
    net::NodeId dst;
    std::uint8_t priority;
    std::uint32_t len;
  };
  const Post posts[] = {
      {&a, 1, 1, 6000}, {&a, 2, 0, 9000}, {&a, 3, 1, 100},
      {&b, 1, 0, 5000}, {&b, 2, 1, 4000}, {&b, 3, 0, 12000},
      {&b, 3, 1, 300},  {&a, 2, 1, 8200}, {&a, 1, 0, 4097},
      {&b, 1, 1, 70},   {&b, 2, 0, 16000}, {&a, 3, 0, 2000},
  };
  int sent = 0;
  for (const Post& p : posts) {
    const gm::Buffer buf = p.port->alloc_dma_buffer(16384);
    ASSERT_EQ(p.port->post(buf, p.len,
                           {.dst = p.dst, .dst_port = 3,
                            .priority = p.priority,
                            .callback = [&](bool ok) { sent += ok; }}),
              gm::Status::kOk);
  }
  cluster.run_for(sim::msec(5));
  EXPECT_EQ(sent, 12);
  EXPECT_EQ(received, 12);

  // "dst:stream:seq" of every data fragment, in transmit order.
  std::string order;
  int frags = 0;
  std::istringstream lines(tx_log.str());
  for (std::string line; std::getline(lines, line);) {
    const auto at = line.find("TX DATA ");
    if (at == std::string::npos) continue;
    unsigned src = 0, sp = 0, dst = 0, dp = 0, stream = 0, seq = 0;
    ASSERT_EQ(std::sscanf(line.c_str() + at,
                          "TX DATA %u:%u->%u:%u stream=%u seq=%u", &src, &sp,
                          &dst, &dp, &stream, &seq),
              6);
    order += std::to_string(dst) + ":" + std::to_string(stream) + ":" +
             std::to_string(seq) + " ";
    ++frags;
  }
  EXPECT_EQ(frags, 24);
  EXPECT_EQ(order.substr(0, 120),
            "1:2:0 2:4:0 3:2:0 1:2:1 1:4:0 2:2:0 2:4:1 3:2:1 3:4:0 1:2:2 "
            "1:4:1 1:4:2 2:2:1 2:4:2 3:4:1 1:2:3 2:2:2 2:2:3 2:2:4 2:2:5 ");
  EXPECT_EQ(fnv1a(order), 2438451322501878847ull);
}

TEST(McpTokenMatching, FirstFitAndReturnedTokenGoesFirst) {
  // Receive tokens are matched first fit by capacity and priority, front
  // to back; a token taken back from an abandoned partial message goes to
  // the front of the pool. Fragments are handed to the card directly.
  Cluster cluster(base_config());
  gm::Port& rx = cluster.node(1).open_port(3);
  const std::uint32_t sizes[] = {64, 8192, 8192, 128};
  const std::uint8_t prios[] = {0, 0, 1, 0};
  std::vector<gm::Buffer> bufs;
  for (int i = 0; i < 4; ++i) {
    bufs.push_back(rx.alloc_dma_buffer(sizes[i]));
    ASSERT_EQ(rx.provide_receive_buffer(bufs.back(), prios[i]),
              gm::Status::kOk);
  }
  std::string got;  // buffer letter (A..D) and length of each delivery
  rx.set_receive_handler([&](const gm::RecvInfo& info) {
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      if (bufs[i].addr == info.buffer.addr) got += static_cast<char>('A' + i);
    }
    got += std::to_string(info.len) + " ";
  });
  cluster.run_for(sim::usec(900));
  ASSERT_EQ(cluster.node(1).mcp().recv_tokens_held(3), 4u);

  struct Frag {
    std::uint32_t msg_id, msg_len, payload;
    std::uint8_t priority;
  };
  // A 5000-byte message's first fragment, abandoned by a fresh message
  // on the same stream; then three small ones.
  const Frag frags[] = {
      {1, 5000, 4096, 0}, {2, 100, 100, 0}, {3, 100, 100, 0},
      {4, 50, 50, 1},     {5, 40, 40, 0},
  };
  std::uint32_t seq = 0;
  for (const Frag& f : frags) {
    net::Packet pkt;
    pkt.type = net::PacketType::kData;
    pkt.src = 0;
    pkt.dst = 1;
    pkt.src_port = 2;
    pkt.dst_port = 3;
    pkt.priority = f.priority;
    pkt.stream = mcp::stream_id(mcp::McpMode::kGm, 2);
    pkt.seq = seq++;
    pkt.msg_id = f.msg_id;
    pkt.msg_len = f.msg_len;
    pkt.frag_offset = 0;
    pkt.payload.assign(f.payload, std::byte{0x5a});
    pkt.seal();
    cluster.node(1).nic().deliver(std::move(pkt), 0);
  }
  cluster.run_for(sim::msec(1));
  // B is taken back from the abandoned partial and matched again first;
  // with the token at the back, the second message would have taken D.
  EXPECT_EQ(got, "B100 D100 C50 A40 ");
}

// ---- NACK rules: one Go-Back-N, renumbering keyed on the board ID ----

// Node 0 sends one-fragment messages (seqs 0, 1, ...) on port 2 to
// node 1, whose port 3 stays closed: node 1 answers nothing, and the
// tests hand node 0 the ACKs and NACKs themselves.
class McpNack : public ::testing::Test {
 protected:
  void start(mcp::McpMode mode, int msgs) {
    ClusterConfig cc = base_config(mode);
    cluster_ = std::make_unique<Cluster>(cc);
    trace_.enable(sim::TraceCat::kNic, &tx_log_);
    cluster_->node(0).set_trace(&trace_);
    tx_ = &cluster_->node(0).open_port(2);
    cluster_->run_for(sim::usec(900));
    for (int i = 0; i < msgs; ++i) {
      const gm::Buffer buf = tx_->alloc_dma_buffer(128);
      ASSERT_EQ(tx_->post(buf, 100,
                          {.dst = 1, .dst_port = 3,
                           .callback = [this](bool ok) { sent_ += ok; }}),
                gm::Status::kOk);
    }
    cluster_->run_for(sim::usec(60));
    std::string first_pass;
    for (int i = 0; i < msgs; ++i) first_pass += std::to_string(i) + " ";
    EXPECT_EQ(tx_seqs(), first_pass);
  }
  // Hand node 0 an ACK or NACK from node 1 carrying `board`.
  void reply(net::PacketType type, std::uint32_t seq, std::uint32_t board) {
    net::Packet p;
    p.type = type;
    p.src = 1;
    p.dst = 0;
    p.stream = mcp::stream_id(cluster_->node(0).mcp().mode(), 2);
    p.ack_seq = seq;
    p.msg_id = board;
    p.seal();
    cluster_->node(0).nic().deliver(std::move(p), 0);
    cluster_->run_for(sim::usec(30));
  }
  // Sequence numbers of the data fragments node 0 sent since the last
  // call, in order.
  std::string tx_seqs() {
    std::string seqs;
    std::istringstream lines(tx_log_.str());
    for (std::string line; std::getline(lines, line);) {
      if (line.find("TX DATA ") == std::string::npos) continue;
      const auto at = line.find(" seq=") + 5;
      seqs += line.substr(at, line.find(' ', at) - at) + " ";
    }
    tx_log_.str("");
    return seqs;
  }
  [[nodiscard]] const mcp::McpStats& stats() {
    return cluster_->node(0).mcp().stats();
  }
  [[nodiscard]] std::uint32_t board() {
    return cluster_->node(1).nic().board_id();
  }

  std::unique_ptr<Cluster> cluster_;
  std::ostringstream tx_log_;
  sim::Trace trace_;
  gm::Port* tx_ = nullptr;
  int sent_ = 0;
};

TEST_F(McpNack, SameBoardNackBelowTheFrontIsDropped) {
  start(mcp::McpMode::kFtgm, 3);
  reply(net::PacketType::kAck, 0, board());
  EXPECT_EQ(sent_, 1);
  // Overtaken by the ACK: expects seq 0, which is acknowledged.
  reply(net::PacketType::kNack, 0, board());
  EXPECT_EQ(stats().stale_nacks, 1u);
  EXPECT_EQ(stats().renumbers, 0u);
  EXPECT_EQ(tx_seqs(), "");  // no rewind: the cursor stayed put
  // The retransmit timeout still counts from the ACK and goes back to
  // base 1, under the original numbers.
  cluster_->run_for(sim::usec(600));
  EXPECT_EQ(tx_seqs(), "1 2 ");
  reply(net::PacketType::kAck, 2, board());
  EXPECT_EQ(sent_, 3);
}

TEST_F(McpNack, OtherBoardNackRenumbersToItsExpectation) {
  start(mcp::McpMode::kFtgm, 3);
  reply(net::PacketType::kAck, 0, board());
  // A spare with pristine stream state: it expects 0.
  reply(net::PacketType::kNack, 0, board() + 100);
  EXPECT_EQ(stats().renumbers, 1u);
  EXPECT_EQ(stats().stale_nacks, 0u);
  EXPECT_EQ(tx_seqs(), "0 1 ");  // messages 1 and 2, renumbered
  reply(net::PacketType::kAck, 1, board() + 100);
  EXPECT_EQ(sent_, 3);
}

TEST_F(McpNack, GmResyncsToAnExpectationAboveEverythingSent) {
  // The paper's Figure 4: the receiver expects more than this card ever
  // sent (the sender's MCP reloaded), and GM renumbers up to it.
  start(mcp::McpMode::kGm, 2);
  reply(net::PacketType::kNack, 50, board());
  EXPECT_EQ(stats().renumbers, 1u);
  EXPECT_EQ(tx_seqs(), "50 51 ");
  reply(net::PacketType::kAck, 51, board());
  EXPECT_EQ(sent_, 2);
}

}  // namespace
}  // namespace myri
