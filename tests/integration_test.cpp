// Whole-system integration scenarios: mapper + FTGM + recovery combined,
// multi-node isolation during recovery, priority scheduling, determinism,
// and interpreter robustness under arbitrary code (fuzz).
#include <gtest/gtest.h>

#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "lanai/cpu.hpp"
#include "mapper/mapper.hpp"
#include "sim/rng.hpp"

namespace myri {
namespace {

TEST(Integration, MapperThenRecoveryOnMappedFabric) {
  // Routes learnt by the mapper must survive an FTD recovery (the FTD
  // restores them from the driver's mirror, which the MCP populated when
  // it handled the MAP_ROUTE packets).
  sim::EventQueue eq;
  sim::Rng rng(5);
  net::Topology topo(eq, rng);
  const auto s0 = topo.add_switch(8);
  const auto s1 = topo.add_switch(8);
  topo.connect_switches(s0, 7, s1, 7);

  std::vector<std::unique_ptr<gm::Node>> nodes;
  for (int i = 0; i < 4; ++i) {
    gm::Node::Config nc;
    nc.id = static_cast<net::NodeId>(i);
    nc.mode = mcp::McpMode::kFtgm;
    nc.host_mem_bytes = 8u << 20;
    nodes.push_back(
        std::make_unique<gm::Node>(eq, nc, std::string("n").append(std::to_string(i))));
    nodes.back()->attach(topo, i < 2 ? s0 : s1, static_cast<std::uint8_t>(i % 2));
    nodes.back()->boot();
  }
  mapper::Mapper m(*nodes[0]);
  m.run([](bool) {});
  eq.run(10'000'000);

  auto& tx = nodes[0]->open_port(2);
  auto& rx = nodes[3]->open_port(3);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 30;
  wc.msg_len = 2048;
  fi::StreamWorkload wl(tx, rx, wc);
  eq.run_for(sim::usec(900));
  wl.start();
  eq.schedule_after(sim::usec(80), [&] {
    nodes[0]->mcp().inject_hang("post-mapping fault");
  });
  eq.run_until(eq.now() + sim::sec(4));
  EXPECT_TRUE(wl.complete());
  EXPECT_EQ(wl.duplicates(), 0);
  // The cross-switch route came back after the card reset.
  EXPECT_NE(nodes[0]->nic().route(3), nullptr);
}

TEST(Integration, HealthyPairsKeepFullServiceDuringPeerRecovery) {
  // Nodes 2<->3 traffic must be completely unaffected while node 0
  // recovers: failures are contained to the failed interface.
  gm::ClusterConfig cc;
  cc.nodes = 4;
  cc.mode = mcp::McpMode::kFtgm;
  gm::Cluster cluster(cc);
  auto& tx_sick = cluster.node(0).open_port(2);
  auto& rx_sick = cluster.node(1).open_port(2);
  auto& tx_ok = cluster.node(2).open_port(2);
  auto& rx_ok = cluster.node(3).open_port(2);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 40;
  wc.msg_len = 1024;
  fi::StreamWorkload sick(tx_sick, rx_sick, wc), healthy(tx_ok, rx_ok, wc);
  cluster.run_for(sim::usec(900));
  sick.start();
  healthy.start();
  cluster.eq().schedule_after(sim::usec(50), [&] {
    cluster.node(0).mcp().inject_hang("isolated fault");
  });
  cluster.run_for(sim::msec(10));
  // The healthy pair finished long before the sick pair's recovery.
  EXPECT_TRUE(healthy.complete());
  EXPECT_FALSE(sick.complete());
  cluster.run_for(sim::sec(4));
  EXPECT_TRUE(sick.complete());
}

TEST(Integration, HighPriorityFragmentsOvertakeBulkTraffic) {
  // Saturate the send engine with a low-priority bulk message, then post a
  // high-priority small message on another port: it must not wait for the
  // whole bulk transfer. (FTGM mode: per-port streams let the scheduler
  // interleave; in GM mode both ports share one FIFO connection.)
  gm::ClusterConfig cc;
  cc.nodes = 2;
  cc.mode = mcp::McpMode::kFtgm;
  gm::Cluster cluster(cc);
  auto& bulk = cluster.node(0).open_port(1);
  auto& urgent = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3, {32, 32});
  cluster.run_for(sim::usec(900));
  for (int i = 0; i < 4; ++i) {
    rx.provide_receive_buffer(rx.alloc_dma_buffer(600 * 1024));
  }
  rx.provide_receive_buffer(rx.alloc_dma_buffer(128), /*priority=*/1);
  sim::Time bulk_done = 0, urgent_done = 0;
  rx.set_receive_handler([&](const gm::RecvInfo& info) {
    if (info.len > 1000) {
      bulk_done = cluster.eq().now();
    } else {
      urgent_done = cluster.eq().now();
    }
  });

  gm::Buffer big = bulk.alloc_dma_buffer(512 * 1024);  // 128 fragments
  (void)bulk.post(big, 512 * 1024, {.dst = 1, .dst_port = 3, .priority = 0});
  cluster.run_for(sim::usec(200));  // bulk transfer underway
  gm::Buffer small = urgent.alloc_dma_buffer(64);
  (void)urgent.post(small, 64, {.dst = 1, .dst_port = 3, .priority = 1});
  cluster.run_for(sim::msec(30));
  ASSERT_GT(urgent_done, 0u);
  ASSERT_GT(bulk_done, 0u);
  EXPECT_LT(urgent_done, bulk_done);  // overtook the bulk message
}

TEST(Integration, TwoLocalPortsReceivingOneStreamMergeAckState) {
  // A single remote port sends alternately to two local ports: both local
  // processes hold partial views of the same stream's ACK numbers. After a
  // receiver-NIC hang, their merged restore must be consistent (no loss,
  // no duplicates).
  gm::ClusterConfig cc;
  cc.nodes = 2;
  cc.mode = mcp::McpMode::kFtgm;
  gm::Cluster cluster(cc);
  auto& tx = cluster.node(0).open_port(2);
  auto& rx_a = cluster.node(1).open_port(3);
  auto& rx_b = cluster.node(1).open_port(4);
  cluster.run_for(sim::usec(900));

  int got_a = 0, got_b = 0;
  rx_a.set_receive_handler([&](const gm::RecvInfo& info) {
    ++got_a;
    rx_a.provide_receive_buffer(info.buffer);
  });
  rx_b.set_receive_handler([&](const gm::RecvInfo& info) {
    ++got_b;
    rx_b.provide_receive_buffer(info.buffer);
  });
  for (int i = 0; i < 4; ++i) {
    rx_a.provide_receive_buffer(rx_a.alloc_dma_buffer(128));
    rx_b.provide_receive_buffer(rx_b.alloc_dma_buffer(128));
  }

  gm::Buffer b = tx.alloc_dma_buffer(64);
  int completed = 0;
  std::function<void(int)> send_next = [&](int i) {
    if (i >= 30) return;
    EXPECT_TRUE(
        tx.post(b, 64,
                {.dst = 1,
                 .dst_port = static_cast<std::uint8_t>(3 + (i % 2)),
                 .callback = [&, i](bool) {
                   ++completed;
                   send_next(i + 1);
                 }}).ok());
  };
  send_next(0);
  cluster.eq().schedule_after(sim::usec(90), [&] {
    cluster.node(1).mcp().inject_hang("mid-stream");
  });
  cluster.run_for(sim::sec(4));
  EXPECT_EQ(completed, 30);
  EXPECT_EQ(got_a + got_b, 30);  // exactly once across both ports
  EXPECT_EQ(got_a, 15);
  EXPECT_EQ(got_b, 15);
}

TEST(Integration, IdenticalSeedsGiveIdenticalRuns) {
  // Full-cluster determinism: same seeds, same fault schedule => bitwise
  // identical statistics (the property every experiment relies on).
  auto run = [](std::uint64_t seed) {
    gm::ClusterConfig cc;
    cc.nodes = 2;
    cc.mode = mcp::McpMode::kFtgm;
    cc.seed = seed;
    cc.faults = {0.05, 0.05, 0.01};
    gm::Cluster cluster(cc);
    auto& tx = cluster.node(0).open_port(2);
    auto& rx = cluster.node(1).open_port(3);
    fi::StreamWorkload::Config wc;
    wc.total_msgs = 25;
    wc.msg_len = 3000;
    fi::StreamWorkload wl(tx, rx, wc);
    cluster.run_for(sim::usec(900));
    wl.start();
    cluster.run_for(sim::msec(100));
    return std::tuple{cluster.node(0).mcp().stats().fragments_tx,
                      cluster.node(0).mcp().stats().retransmissions,
                      cluster.node(1).mcp().stats().crc_drops,
                      cluster.eq().executed()};
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(std::get<0>(run(42)), 0u);
}

// ---- LanISA interpreter fuzz: arbitrary SRAM contents must never escape
// the sandbox — every run terminates with a well-defined status. This is
// the property the whole fault-injection methodology rests on. ----

class CpuFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpuFuzz, RandomProgramsAlwaysTerminateSafely) {
  sim::Rng rng(GetParam());
  lanai::Sram sram(64 * 1024);
  class NullMmio : public lanai::MmioDevice {
   public:
    std::uint32_t mmio_read(std::uint32_t) override { return 0; }
    void mmio_write(std::uint32_t, std::uint32_t) override {}
  } mmio;
  lanai::Cpu cpu(sram, mmio);
  for (int prog = 0; prog < 50; ++prog) {
    for (std::uint32_t a = 0x1000; a < 0x1400; a += 4) {
      sram.write32(a, static_cast<std::uint32_t>(rng.next_u64()));
    }
    const lanai::RunResult r = cpu.run(0x1000, 5000);
    EXPECT_LE(r.cycles, 5000u);
    EXPECT_TRUE(r.status == lanai::RunStatus::kReturned ||
                r.status == lanai::RunStatus::kHalted ||
                r.status == lanai::RunStatus::kFault ||
                r.status == lanai::RunStatus::kBudgetExceeded ||
                r.status == lanai::RunStatus::kRestart);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

}  // namespace
}  // namespace myri
