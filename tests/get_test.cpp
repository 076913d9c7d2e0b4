// gm_get (RDMA read): remote memory fetches served by the target MCP as
// notify-flagged directed puts, with host-level idempotent retry and
// survival across NIC recovery.
#include <gtest/gtest.h>

#include "gm/cluster.hpp"

namespace myri {
namespace {

using gm::Cluster;
using gm::ClusterConfig;

struct GetWorld {
  explicit GetWorld(mcp::McpMode mode, net::LinkFaults faults = {}) {
    ClusterConfig cc;
    cc.nodes = 2;
    cc.mode = mode;
    cc.faults = faults;
    cluster = std::make_unique<Cluster>(cc);
    reader = &cluster->node(0).open_port(2);
    target = &cluster->node(1).open_port(3);
    cluster->run_for(sim::usec(900));
    // The target's exported region, filled with a known pattern.
    exported = target->alloc_dma_buffer(16 * 1024);
    auto bytes = cluster->node(1).memory().at(exported.addr, 16 * 1024);
    for (std::uint32_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::byte>((i * 13 + 5) & 0xff);
    }
    local = reader->alloc_dma_buffer(16 * 1024);
  }
  bool local_matches(std::uint32_t len, std::uint32_t remote_off = 0) {
    auto got = cluster->node(0).memory().at(local.addr, len);
    for (std::uint32_t i = 0; i < len; ++i) {
      const auto want =
          static_cast<std::byte>(((i + remote_off) * 13 + 5) & 0xff);
      if (got[i] != want) return false;
    }
    return true;
  }
  std::unique_ptr<Cluster> cluster;
  gm::Port* reader = nullptr;
  gm::Port* target = nullptr;
  gm::Buffer exported, local;
};

TEST(GmGet, FetchesRemoteMemory) {
  GetWorld w(mcp::McpMode::kGm);
  bool ok = false, fired = false;
  const gm::Status st = w.reader->get_with_callback(
      w.local, 512, 1, 3, static_cast<std::uint32_t>(w.exported.addr),
      [&](bool r) {
        ok = r;
        fired = true;
      });
  ASSERT_EQ(st, gm::Status::kOk);
  w.cluster->run_for(sim::msec(5));
  ASSERT_TRUE(fired);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(w.local_matches(512));
  EXPECT_EQ(w.cluster->node(1).mcp().stats().gets_served, 1u);
}

TEST(GmGet, FetchWithOffset) {
  GetWorld w(mcp::McpMode::kFtgm);
  bool ok = false;
  const gm::Status st = w.reader->get_with_callback(
      w.local, 256, 1, 3,
      static_cast<std::uint32_t>(w.exported.addr + 1000),
      [&](bool r) { ok = r; });
  ASSERT_EQ(st, gm::Status::kOk);
  w.cluster->run_for(sim::msec(5));
  EXPECT_TRUE(ok);
  EXPECT_TRUE(w.local_matches(256, 1000));
}

TEST(GmGet, MultiFragmentFetch) {
  GetWorld w(mcp::McpMode::kFtgm);
  bool ok = false;
  const gm::Status st = w.reader->get_with_callback(
      w.local, 12 * 1024, 1, 3,
      static_cast<std::uint32_t>(w.exported.addr), [&](bool r) { ok = r; });
  ASSERT_EQ(st, gm::Status::kOk);
  w.cluster->run_for(sim::msec(10));
  EXPECT_TRUE(ok);
  EXPECT_TRUE(w.local_matches(12 * 1024));
}

TEST(GmGet, ConsumesNoTokensOnEitherSide) {
  GetWorld w(mcp::McpMode::kGm);
  const auto reader_tokens = w.reader->send_tokens_free();
  const auto target_tokens = w.target->recv_tokens_free();
  bool ok = false;
  const gm::Status st = w.reader->get_with_callback(
      w.local, 64, 1, 3, static_cast<std::uint32_t>(w.exported.addr),
      [&](bool r) { ok = r; });
  ASSERT_EQ(st, gm::Status::kOk);
  w.cluster->run_for(sim::msec(5));
  ASSERT_TRUE(ok);
  EXPECT_EQ(w.reader->send_tokens_free(), reader_tokens);
  EXPECT_EQ(w.target->recv_tokens_free(), target_tokens);
  EXPECT_EQ(w.target->stats().msgs_received, 0u);
}

TEST(GmGet, UnregisteredRemoteMemoryFailsAfterRetries) {
  GetWorld w(mcp::McpMode::kGm);
  bool ok = true, fired = false;
  // 0x2000 is host memory the target never registered for port 3.
  const gm::Status st =
      w.reader->get_with_callback(w.local, 64, 1, 3, 0x2000, [&](bool r) {
        ok = r;
        fired = true;
      });
  // The request is accepted here; the target's MCP is what refuses it.
  ASSERT_EQ(st, gm::Status::kOk);
  w.cluster->run_for(sim::sec(4));  // let the full retry budget exhaust
  EXPECT_TRUE(fired);
  EXPECT_FALSE(ok);
  EXPECT_GT(w.cluster->node(1).mcp().stats().unmapped_dma_refusals, 0u);
}

TEST(GmGet, RetriesMaskLossyLinks) {
  net::LinkFaults f;
  f.drop_prob = 0.15;
  GetWorld w(mcp::McpMode::kFtgm, f);
  int ok = 0;
  for (int i = 0; i < 5; ++i) {
    const gm::Status st = w.reader->get_with_callback(
        w.local, 2048, 1, 3, static_cast<std::uint32_t>(w.exported.addr),
        [&](bool r) { ok += r; });
    ASSERT_EQ(st, gm::Status::kOk);
    w.cluster->run_for(sim::msec(40));
  }
  EXPECT_EQ(ok, 5);
  EXPECT_TRUE(w.local_matches(2048));
}

TEST(GmGet, SurvivesTargetNicRecovery) {
  GetWorld w(mcp::McpMode::kFtgm);
  // Hang the target's NIC, then immediately issue a get: the host-level
  // retry keeps re-requesting until the recovered MCP serves it.
  w.cluster->node(1).mcp().inject_hang("target down");
  bool ok = false, fired = false;
  const gm::Status st = w.reader->get_with_callback(
      w.local, 1024, 1, 3, static_cast<std::uint32_t>(w.exported.addr),
      [&](bool r) {
        ok = r;
        fired = true;
      });
  ASSERT_EQ(st, gm::Status::kOk);
  w.cluster->run_for(sim::sec(4));
  ASSERT_TRUE(fired);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(w.local_matches(1024));
}

TEST(GmGet, DuplicateResponsesAreHarmless) {
  // Force a duplicate by issuing two identical gets back to back; each has
  // its own correlation id, but both write the same local buffer — last
  // writer wins with identical bytes (idempotent).
  GetWorld w(mcp::McpMode::kGm);
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    const gm::Status st = w.reader->get_with_callback(
        w.local, 128, 1, 3, static_cast<std::uint32_t>(w.exported.addr),
        [&](bool r) { done += r; });
    ASSERT_EQ(st, gm::Status::kOk);
  }
  w.cluster->run_for(sim::msec(10));
  EXPECT_EQ(done, 2);
  EXPECT_TRUE(w.local_matches(128));
  EXPECT_EQ(w.cluster->node(1).mcp().stats().gets_served, 2u);
}

TEST(GmGet, SurvivesRequesterNicRecovery) {
  // The REQUESTER's NIC hangs while gets are pending: recovery restores
  // the internal stream's ACK table from the GOT-event backup, and the
  // host-level retry re-requests anything that was lost.
  GetWorld w(mcp::McpMode::kFtgm);
  int done = 0, ok = 0;
  for (int i = 0; i < 3; ++i) {
    const gm::Status st = w.reader->get_with_callback(
        w.local, 2048, 1, 3, static_cast<std::uint32_t>(w.exported.addr),
        [&](bool r) {
          ++done;
          ok += r;
        });
    ASSERT_EQ(st, gm::Status::kOk);
  }
  w.cluster->eq().schedule_after(sim::usec(12), [&] {
    w.cluster->node(0).mcp().inject_hang("requester down");
  });
  w.cluster->run_for(sim::sec(4));
  EXPECT_EQ(done, 3);
  EXPECT_EQ(ok, 3);
  EXPECT_TRUE(w.local_matches(2048));
}

TEST(GmGet, InterleavesWithRegularTraffic) {
  GetWorld w(mcp::McpMode::kFtgm);
  w.target->provide_receive_buffer(w.target->alloc_dma_buffer(256));
  int msgs = 0;
  w.target->set_receive_handler([&](const gm::RecvInfo&) { ++msgs; });
  bool got = false;
  gm::Buffer sbuf = w.reader->alloc_dma_buffer(128);
  (void)w.reader->post(sbuf, 128, {.dst = 1, .dst_port = 3});
  const gm::Status st = w.reader->get_with_callback(
      w.local, 256, 1, 3, static_cast<std::uint32_t>(w.exported.addr),
      [&](bool r) { got = r; });
  ASSERT_EQ(st, gm::Status::kOk);
  w.cluster->run_for(sim::msec(10));
  EXPECT_EQ(msgs, 1);
  EXPECT_TRUE(got);
  EXPECT_TRUE(w.local_matches(256));
}

}  // namespace
}  // namespace myri
