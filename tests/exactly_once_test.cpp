// Exactly-once FIFO delivery where the Go-Back-N corner cases live: a
// congested fabric that delivers a NACK after a later ACK (a stale NACK
// must change nothing), a receiver replaced by a spare card (a NACK from
// the new board renumbers the outstanding tail, also when the sender's
// own reload rebuilt its stream in between), and a send the card refused
// after the host had numbered it, the first to its destination or a later
// one (paper Section 4 and DESIGN.md section 14).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "faultinject/oracle.hpp"
#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"

namespace myri {
namespace {

// The ring workload of fi::ScenarioRunner with a destination shift: node i
// streams to node (i + shift) % nodes on port 2, every stream watched by
// the oracle, faults off. At shift 1 neighbours share little of the
// fabric; at nodes / 2 every stream crosses the spines and the switches'
// output queues fill.
struct CongestedRing {
  static constexpr std::uint32_t kTokens = 24;

  CongestedRing(int nodes, int shift, int msgs) {
    gm::ClusterConfig cc;
    cc.nodes = nodes;
    cc.fabric = net::FabricPreset::kFatTree;
    cc.switch_ports = 10;
    cc.mode = mcp::McpMode::kFtgm;
    cluster = std::make_unique<gm::Cluster>(cc);
    std::vector<gm::Port*> ports;
    for (int i = 0; i < nodes; ++i) {
      ports.push_back(&cluster->node(i).open_port(2, {kTokens, kTokens}));
    }
    fi::StreamWorkload::Config wc;
    wc.total_msgs = msgs;
    wc.msg_len = 1800;
    wc.send_gap = sim::usec(8);
    oracle = std::make_unique<fi::Oracle>(*cluster);
    for (int i = 0; i < nodes; ++i) {
      wls.push_back(std::make_unique<fi::StreamWorkload>(
          *ports[i], *ports[(i + shift) % nodes], wc));
      oracle->watch(*wls.back(), kTokens, kTokens);
      wls.back()->set_on_delivery(
          [this, i](int msg) { oracle->on_delivery(i, msg); });
    }
  }

  // Warm up, stream, then drain until every send token is home.
  void run() {
    cluster->run_for(sim::usec(900));
    for (auto& wl : wls) wl->start();
    oracle->attach();
    for (int slice = 0; slice < 400 && oracle->ok(); ++slice) {
      cluster->run_for(sim::msec(10));
      bool quiet = true;
      for (auto& wl : wls) {
        quiet = quiet && wl->complete() &&
                wl->sender().send_tokens_free() == kTokens;
      }
      if (quiet) break;
    }
    oracle->final_check();
    oracle->detach();
  }

  [[nodiscard]] std::string first_violation() const {
    if (oracle->ok()) return "";
    const fi::Oracle::Violation& v = oracle->violations().front();
    return v.invariant + " (" + v.detail + ")";
  }

  std::unique_ptr<gm::Cluster> cluster;
  std::unique_ptr<fi::Oracle> oracle;
  std::vector<std::unique_ptr<fi::StreamWorkload>> wls;
};

void expect_clean(CongestedRing& ring) {
  EXPECT_EQ(ring.first_violation(), "");
  for (auto& wl : ring.wls) {
    EXPECT_TRUE(wl->complete());
    EXPECT_EQ(wl->duplicates(), 0);
  }
  std::uint64_t stale = 0;
  std::uint64_t renumbers = 0;
  for (int i = 0; i < ring.cluster->size(); ++i) {
    stale += ring.cluster->node(i).mcp().stats().stale_nacks;
    renumbers += ring.cluster->node(i).mcp().stats().renumbers;
  }
  // The congestion reorders NACKs behind ACKs; every such NACK is dropped
  // (a renumber here would turn live messages into "duplicates").
  EXPECT_GT(stale, 0u);
  EXPECT_EQ(renumbers, 0u);
}

// Wall time ~0.1 s. Before the board-ID rule a stale NACK renumbered
// stream 6 onto acknowledged numbers: `stream-fifo`, expected msg 144,
// got 145.
TEST(ExactlyOnce, CongestedFatTree16Shift8With200Msgs) {
  CongestedRing ring(16, 8, 200);
  ring.run();
  expect_clean(ring);
}

// Wall time under 1 s: twice the stream, so the fabric stays congested for
// longer and more NACKs go stale.
TEST(ExactlyOnce, CongestedFatTree16Shift8With400Msgs) {
  CongestedRing ring(16, 8, 400);
  ring.run();
  expect_clean(ring);
}

// Node 0 streams to node 2 on port pair 4 -> 3; node 2 is replaced by a
// spare, which opens port 3 and gets a second stream on the same pair.
// The sender's stream still holds the numbers the old card acknowledged;
// the spare expects 0, and its NACK carries a board ID the stream has not
// seen, so the sender renumbers its tail down to it. The second stream is
// paced, so the sender's queue runs empty between posts: each post must
// continue the renumbered stream, not jump back to the host's numbers.
// Then node 0's card hangs and the FTD reloads it; the host re-posts
// under the numbers it learnt from the SENT events, and a third stream
// into the spare completes too.
TEST(ExactlyOnce, ReplacedReceiverTakesLaterStreamsExactlyOnce) {
  gm::ClusterConfig cc;
  cc.nodes = 3;
  cc.mode = mcp::McpMode::kFtgm;
  gm::Cluster cluster(cc);
  gm::Port& tx = cluster.node(0).open_port(4);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 8;
  wc.msg_len = 1800;
  fi::StreamWorkload first(tx, cluster.node(2).open_port(3), wc);
  cluster.run_for(sim::usec(900));
  first.start();
  cluster.run_for(sim::msec(20));
  ASSERT_TRUE(first.complete());
  EXPECT_EQ(cluster.node(0).mcp().stats().renumbers, 0u);

  gm::Node& spare = cluster.replace_node(2);
  EXPECT_NE(spare.nic().board_id(), first.receiver().node().nic().board_id());
  gm::Port& rx = spare.open_port(3);
  fi::StreamWorkload::Config paced = wc;
  paced.total_msgs = 30;
  paced.send_gap = sim::usec(300);
  fi::StreamWorkload second(tx, rx, paced);
  cluster.run_for(sim::msec(2));
  second.start();
  cluster.run_for(sim::msec(50));
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.duplicates(), 0);
  EXPECT_GE(cluster.node(0).mcp().stats().renumbers, 1u);

  cluster.node(0).ftd().mark_fault_injected();
  cluster.node(0).mcp().inject_hang("test");
  cluster.run_for(sim::sec(3));
  EXPECT_EQ(cluster.node(0).ftd().stats().recoveries, 1u);
  fi::StreamWorkload third(tx, rx, wc);
  third.start();
  cluster.run_for(sim::msec(50));
  EXPECT_TRUE(third.complete());
  EXPECT_EQ(third.duplicates(), 0);
  EXPECT_EQ(tx.send_tokens_free(), gm::Port::Config{}.send_tokens);
}

// Node 2 is replaced while node 0's stream to it is idle, and node 0's
// card then hangs and is reloaded before the spare has said anything. The
// reloaded card rebuilds the stream from the host's numbers, which the old
// card acknowledged; the spare expects 0. Its NACK is the first thing the
// new stream hears, so it renumbers the stream instead of counting stale.
TEST(ExactlyOnce, SenderReloadedAfterAReplacementStreamsToTheSpare) {
  gm::ClusterConfig cc;
  cc.nodes = 3;
  cc.mode = mcp::McpMode::kFtgm;
  gm::Cluster cluster(cc);
  gm::Port& tx = cluster.node(0).open_port(4);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 8;
  wc.msg_len = 1800;
  fi::StreamWorkload first(tx, cluster.node(2).open_port(3), wc);
  cluster.run_for(sim::usec(900));
  first.start();
  cluster.run_for(sim::msec(20));
  ASSERT_TRUE(first.complete());

  gm::Port& rx = cluster.replace_node(2).open_port(3);
  cluster.node(0).ftd().mark_fault_injected();
  cluster.node(0).mcp().inject_hang("test");
  cluster.run_for(sim::sec(3));
  ASSERT_EQ(cluster.node(0).ftd().stats().recoveries, 1u);
  EXPECT_EQ(cluster.node(0).mcp().stats().renumbers, 0u);

  fi::StreamWorkload second(tx, rx, wc);
  second.start();
  cluster.run_for(sim::msec(50));
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.duplicates(), 0);
  EXPECT_EQ(cluster.node(0).mcp().stats().stale_nacks, 0u);
  EXPECT_GE(cluster.node(0).mcp().stats().renumbers, 1u);
  EXPECT_EQ(tx.send_tokens_free(), gm::Port::Config{}.send_tokens);
}

// Node 0 posts four 100-byte messages to node 1, one at a time; the card
// refuses post `refused` (its route table lost the destination while the
// driver's mirror still has it), after the host had numbered it, so the
// host's sequence numbers skip one.
struct RefusedPostRun {
  std::vector<int> done;  // 1 = sent, 0 = refused, per post
  int received = 0;
  mcp::McpStats stats;
};

RefusedPostRun post_four_refusing(int refused) {
  gm::ClusterConfig cc;
  cc.mode = mcp::McpMode::kFtgm;
  gm::Cluster cluster(cc);
  gm::Port& tx = cluster.node(0).open_port(2);
  gm::Port& rx = cluster.node(1).open_port(3);
  RefusedPostRun run;
  rx.set_receive_handler([&](const gm::RecvInfo& info) {
    ++run.received;
    rx.provide_receive_buffer(info.buffer);
  });
  rx.provide_receive_buffer(rx.alloc_dma_buffer(256));
  cluster.run_for(sim::usec(900));
  const gm::Buffer b = tx.alloc_dma_buffer(256);
  const net::Route route = *cluster.node(0).nic().route(1);
  for (int i = 0; i < 4; ++i) {
    if (i == refused) cluster.node(0).nic().clear_routes();
    EXPECT_TRUE(tx.post(b, 100, {.dst = 1, .dst_port = 3,
                                 .callback = [&](bool ok) {
                                   run.done.push_back(ok ? 1 : 0);
                                 }})
                    .ok());
    cluster.run_for(sim::msec(1));
    if (i == refused) cluster.node(0).install_route(1, route);
  }
  run.stats = cluster.node(0).mcp().stats();
  return run;
}

// A later post must continue the card's numbering: a jump to the host's
// would leave a hole the receiver NACKs forever, and that NACK is stale.
TEST(ExactlyOnce, RefusedSendLeavesNoHoleInTheStream) {
  const RefusedPostRun run = post_four_refusing(1);
  EXPECT_EQ(run.done, (std::vector<int>{1, 0, 1, 1}));
  EXPECT_EQ(run.received, 3);
  EXPECT_EQ(run.stats.stale_nacks, 0u);
}

// Refused first, the send leaves the card without a stream to node 1, and
// the stream it builds for the next post starts at the host's number 1.
// The receiver NACKs 0; nothing has been heard on the stream, so that
// NACK is not stale but renumbers the message down to 0, and the SENT
// event brings the host's numbering along.
TEST(ExactlyOnce, RefusedFirstSendLeavesNoHoleInTheStream) {
  const RefusedPostRun run = post_four_refusing(0);
  EXPECT_EQ(run.done, (std::vector<int>{0, 1, 1, 1}));
  EXPECT_EQ(run.received, 3);
  EXPECT_EQ(run.stats.stale_nacks, 0u);
  EXPECT_EQ(run.stats.renumbers, 1u);
}

}  // namespace
}  // namespace myri
