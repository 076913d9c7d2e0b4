// Unit tests for the NIC device model: timers, registers, DMA engines,
// packet interface and reset semantics.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "host/host_memory.hpp"
#include "host/interrupts.hpp"
#include "host/pci.hpp"
#include "lanai/nic.hpp"
#include "lanai/registers.hpp"
#include "lanai/tx_descriptor.hpp"
#include "net/link.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace myri::lanai {
namespace {

class SinkSpy : public net::PacketSink {
 public:
  void deliver(net::Packet pkt, std::uint8_t) override {
    packets.push_back(std::move(pkt));
  }
  std::vector<net::Packet> packets;
};

class NicTest : public ::testing::Test {
 protected:
  NicTest()
      : hmem(1 << 20),
        pci(eq, {}),
        irq(eq, {}),
        nic(eq, {}, "nic", 1),
        uplink(eq, sim::Rng(1), {}, "up") {
    nic.attach_host(hmem, pci, irq);
    nic.attach_uplink(uplink);
    uplink.connect(wire_sink, 0);
    nic.set_node_id(5);
    nic.set_pinned_checker([this](host::DmaAddr a, std::size_t l) {
      return a >= 0x1000 && a + l <= 0x80000;
    });
    nic.set_host_crash_handler([this] { crashed = true; });
  }

  sim::EventQueue eq;
  host::HostMemory hmem;
  host::PciBus pci;
  host::InterruptController irq;
  Nic nic;
  net::Link uplink;
  SinkSpy wire_sink;
  bool crashed = false;
};

TEST_F(NicTest, TimerExpirySetsIsrBitAndCallsHook) {
  int fired = -1;
  Nic::Hooks h;
  h.on_timer = [&](int idx) { fired = idx; };
  nic.set_hooks(std::move(h));
  nic.arm_timer(1, 100);  // 100 ticks of 0.5 us = 50 us
  eq.run_until(sim::usec(49));
  EXPECT_EQ(fired, -1);
  EXPECT_EQ(nic.isr() & kIsrIt1, 0u);
  eq.run_until(sim::usec(51));
  EXPECT_EQ(fired, 1);
  EXPECT_NE(nic.isr() & kIsrIt1, 0u);
}

TEST_F(NicTest, TimerRearmCancelsPreviousExpiry) {
  nic.arm_timer(0, 100);
  eq.run_until(sim::usec(30));
  nic.arm_timer(0, 100);  // push expiry out
  eq.run_until(sim::usec(60));
  EXPECT_EQ(nic.isr() & kIsrIt0, 0u);
  eq.run_until(sim::usec(81));
  EXPECT_NE(nic.isr() & kIsrIt0, 0u);
}

TEST_F(NicTest, TimerRemainingCountsDown) {
  nic.arm_timer(2, 1000);
  eq.run_until(sim::usec(100));
  const auto rem = nic.timer_remaining(2);
  EXPECT_NEAR(static_cast<double>(rem), 800.0, 5.0);
}

TEST_F(NicTest, ImrGatesHostInterrupt) {
  nic.arm_timer(1, 10);
  eq.run();
  EXPECT_EQ(irq.delivered(host::IrqLine::kFatal), 0u);  // IMR clear

  nic.set_imr(kIsrIt1);
  nic.arm_timer(1, 10);
  eq.run();
  EXPECT_EQ(irq.delivered(host::IrqLine::kFatal), 1u);
}

TEST_F(NicTest, ImrWriteWithPendingIsrRaisesImmediately) {
  nic.arm_timer(1, 10);
  eq.run();
  ASSERT_NE(nic.isr() & kIsrIt1, 0u);
  nic.set_imr(kIsrIt1);
  nic.mmio_write(kRegImr, kIsrIt1);  // MMIO path re-evaluates
  eq.run();
  EXPECT_GE(irq.delivered(host::IrqLine::kFatal), 1u);
}

TEST_F(NicTest, IsrWriteOneToClear) {
  nic.set_isr_bits(kIsrIt0 | kIsrRecv);
  nic.mmio_write(kRegIsr, kIsrIt0);
  EXPECT_EQ(nic.isr(), kIsrRecv);
}

TEST_F(NicTest, HostDmaIntoSram) {
  const char msg[] = "hello-lanai";
  hmem.write(0x2000, std::as_bytes(std::span(msg)));
  bool done = false;
  Nic::Hooks h;
  h.on_hdma_done = [&] { done = true; };
  nic.set_hooks(std::move(h));
  nic.start_hdma(/*to_sram=*/true, 0x2000, 0x8000, sizeof(msg));
  EXPECT_TRUE(nic.hdma_busy());
  eq.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(nic.hdma_busy());
  EXPECT_NE(nic.isr() & kIsrHdmaDone, 0u);
  auto got = nic.sram().bytes(0x8000, sizeof(msg));
  EXPECT_EQ(std::memcmp(got.data(), msg, sizeof(msg)), 0);
}

TEST_F(NicTest, SramToHostDma) {
  nic.sram().write32(0x8000, 0xabcd1234);
  nic.start_hdma(false, 0x3000, 0x8000, 4);
  eq.run();
  std::array<std::byte, 4> out{};
  hmem.read(0x3000, out);
  EXPECT_EQ(std::to_integer<unsigned>(out[0]), 0x34u);
  EXPECT_EQ(std::to_integer<unsigned>(out[3]), 0xabu);
}

TEST_F(NicTest, WildDmaReadBeyondMemoryCrashesHost) {
  // Read from beyond physical memory: master abort -> NMI -> host crash.
  nic.start_hdma(true, 0x10000000, 0x8000, 16);
  eq.run();
  EXPECT_TRUE(crashed);
  EXPECT_EQ(nic.stats().wild_dma_reads, 1u);
  EXPECT_EQ(nic.sram().read8(0x8000), 0xffu);
}

TEST_F(NicTest, UnpinnedInRangeDmaReadIsGarbageNotCrash) {
  // Reading stale (unpinned but existing) memory corrupts data only.
  nic.start_hdma(true, 0x500, 0x8000, 16);  // below pinned pool, in range
  eq.run();
  EXPECT_FALSE(crashed);
  EXPECT_EQ(nic.stats().wild_dma_reads, 0u);
}

TEST_F(NicTest, WildDmaWriteCrashesHost) {
  nic.start_hdma(false, 0x100, 0x8000, 16);  // below pinned pool
  eq.run();
  EXPECT_TRUE(crashed);
  EXPECT_EQ(nic.stats().wild_dma_writes, 1u);
}

TEST_F(NicTest, DmaStartWhileBusyIgnored) {
  nic.start_hdma(true, 0x2000, 0x8000, 1024);
  nic.start_hdma(true, 0x2000, 0x9000, 1024);
  eq.run();
  EXPECT_EQ(nic.stats().hdma_transfers, 1u);
  EXPECT_EQ(nic.stats().tx_errors, 1u);
}

TEST_F(NicTest, TxFromDescriptorBuildsSealedPacket) {
  using L = TxDescLayout;
  const std::uint32_t d = 0x4200;
  nic.set_route(9, std::vector<std::uint8_t>{3});
  nic.sram().write32(d + L::kDst, 9);
  nic.sram().write32(d + L::kSeq, 17);
  nic.sram().write32(d + L::kStream, 2);
  nic.sram().write32(d + L::kDstPort, 4);
  nic.sram().write32(d + L::kSrcPort, 6);
  nic.sram().write32(d + L::kPayloadAddr, 0x8000);
  nic.sram().write32(d + L::kPayloadLen, 8);
  nic.sram().write32(d + L::kMsgId, 33);
  nic.sram().write32(d + L::kMsgLen, 8);
  nic.sram().write32(d + L::kFragOffset, 0);
  nic.sram().write32(d + L::kFlags, 1);
  nic.sram().write32(0x8000, 0x01020304);
  nic.sram().write32(0x8004, 0x05060708);

  nic.tx_from_descriptor(d);
  eq.run();
  ASSERT_EQ(wire_sink.packets.size(), 1u);
  const net::Packet& p = wire_sink.packets[0];
  EXPECT_EQ(p.src, 5u);
  EXPECT_EQ(p.dst, 9u);
  EXPECT_EQ(p.seq, 17u);
  EXPECT_EQ(p.stream, 2u);
  EXPECT_EQ(p.dst_port, 4u);
  EXPECT_EQ(p.src_port, 6u);
  EXPECT_EQ(p.msg_id, 33u);
  EXPECT_EQ(p.priority, 1u);
  EXPECT_TRUE(p.intact());
  EXPECT_EQ(p.payload.size(), 8u);
}

TEST_F(NicTest, TxWithoutRouteCountsError) {
  using L = TxDescLayout;
  nic.sram().write32(0x4200 + L::kDst, 77);  // no route installed
  nic.sram().write32(0x4200 + L::kPayloadAddr, 0x8000);
  nic.sram().write32(0x4200 + L::kPayloadLen, 4);
  nic.tx_from_descriptor(0x4200);
  eq.run();
  EXPECT_TRUE(wire_sink.packets.empty());
  EXPECT_EQ(nic.stats().tx_errors, 1u);
}

TEST_F(NicTest, TxOversizedPayloadRejected) {
  using L = TxDescLayout;
  nic.set_route(9, std::vector<std::uint8_t>{3});
  nic.sram().write32(0x4200 + L::kDst, 9);
  nic.sram().write32(0x4200 + L::kPayloadAddr, 0x8000);
  nic.sram().write32(0x4200 + L::kPayloadLen, 5000);  // > 4 KB
  nic.tx_from_descriptor(0x4200);
  EXPECT_EQ(nic.stats().tx_errors, 1u);
}

// Board ID 0 is what a send stream holds for a receiver it has not heard
// from, so no card may carry it.
TEST_F(NicTest, BoardIdZeroIsRefused) {
  EXPECT_THROW(Nic(eq, {}, "no-id", 0), std::invalid_argument);
  EXPECT_EQ(nic.board_id(), 1u);
}

TEST_F(NicTest, RxQueueCapDropsWhenFull) {
  Nic::Config cfg;
  cfg.rx_queue_cap = 2;
  Nic small(eq, cfg, "small", 2);
  net::Packet p;
  p.seal();
  small.deliver(p, 0);
  small.deliver(p, 0);
  small.deliver(p, 0);
  EXPECT_EQ(small.rx_depth(), 2u);
  EXPECT_EQ(small.stats().rx_dropped_full, 1u);
}

TEST_F(NicTest, RxPopFifoOrder) {
  net::Packet a, b;
  a.seq = 1;
  b.seq = 2;
  nic.deliver(a, 0);
  nic.deliver(b, 0);
  EXPECT_EQ(nic.rx_pop().seq, 1u);
  EXPECT_EQ(nic.rx_pop().seq, 2u);
  EXPECT_TRUE(nic.rx_empty());
}

TEST_F(NicTest, DoorbellSetsIsrAndHook) {
  bool rung = false;
  Nic::Hooks h;
  h.on_doorbell = [&] { rung = true; };
  nic.set_hooks(std::move(h));
  nic.ring_doorbell();
  EXPECT_TRUE(rung);
  EXPECT_NE(nic.isr() & kIsrDoorbell, 0u);
}

TEST_F(NicTest, ResetClearsVolatileState) {
  nic.set_imr(kIsrIt1);
  nic.set_isr_bits(kIsrRecv);
  nic.set_route(9, std::vector<std::uint8_t>{1});
  net::Packet p;
  nic.deliver(p, 0);
  nic.arm_timer(0, 1000);
  nic.reset();
  EXPECT_EQ(nic.isr(), 0u);
  EXPECT_EQ(nic.imr(), 0u);
  EXPECT_EQ(nic.num_routes(), 0u);
  EXPECT_TRUE(nic.rx_empty());
  EXPECT_EQ(nic.timer_remaining(0), 0u);
}

TEST_F(NicTest, ResetPreservesSram) {
  nic.sram().write32(0x8000, 0x1234);
  nic.reset();
  EXPECT_EQ(nic.sram().read32(0x8000), 0x1234u);
}

TEST_F(NicTest, ResetOrphansInflightDma) {
  hmem.write(0x2000, std::as_bytes(std::span("x", 1)));
  bool done = false;
  Nic::Hooks h;
  h.on_hdma_done = [&] { done = true; };
  nic.set_hooks(std::move(h));
  nic.start_hdma(true, 0x2000, 0x8000, 1024);
  nic.reset();
  eq.run();
  EXPECT_FALSE(done);  // completion swallowed by the epoch bump
}

TEST_F(NicTest, MmioTimerWriteArms) {
  nic.mmio_write(kRegIt1, 10);
  eq.run();
  EXPECT_NE(nic.isr() & kIsrIt1, 0u);
}

TEST_F(NicTest, MmioHdmaCtrlReadsBusyFlag) {
  EXPECT_EQ(nic.mmio_read(kRegHdmaCtrl), 0u);
  nic.mmio_write(kRegHdmaHost, 0x2000);
  nic.mmio_write(kRegHdmaLocal, 0x8000);
  nic.mmio_write(kRegHdmaLen, 64);
  nic.mmio_write(kRegHdmaCtrl, 1);
  EXPECT_EQ(nic.mmio_read(kRegHdmaCtrl), 1u);
  eq.run();
  EXPECT_EQ(nic.mmio_read(kRegHdmaCtrl), 0u);
}

TEST_F(NicTest, SendPacketResolvesRouteFromTable) {
  nic.set_route(9, std::vector<std::uint8_t>{4, 2});
  net::Packet p;
  p.dst = 9;
  p.seal();
  nic.send_packet(p);
  eq.run();
  ASSERT_EQ(wire_sink.packets.size(), 1u);
  // One byte remains: our fake "switch" (the sink) never stripped any,
  // but the link delivered the route as sent.
  EXPECT_EQ(wire_sink.packets[0].route, (std::vector<std::uint8_t>{4, 2}));
}

TEST_F(NicTest, SetRouteOverwritesAnEarlierRoute) {
  nic.set_route(9, std::vector<std::uint8_t>{4, 2, 7});
  nic.set_route(9, std::vector<std::uint8_t>{1});
  ASSERT_NE(nic.route(9), nullptr);
  EXPECT_EQ(*nic.route(9), std::vector<std::uint8_t>{1});
  EXPECT_EQ(nic.num_routes(), 1u);
}

TEST_F(NicTest, ScratchRegisterRoundTrip) {
  nic.mmio_write(kRegScratch, 0x77);
  EXPECT_EQ(nic.mmio_read(kRegScratch), 0x77u);
}

// True if the page holding `p` is resident, per mincore(2). Reading an
// untouched page maps the shared zero page, which mincore also reports as
// resident, so these tests check residency before reading.
bool resident(const std::byte* p) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto base = reinterpret_cast<std::uintptr_t>(p) / page * page;
  unsigned char vec = 0;
  EXPECT_EQ(::mincore(reinterpret_cast<void*>(base), 1, &vec), 0);
  return (vec & 1u) != 0;
}

constexpr std::uint32_t kSramPage = 4096;

TEST(Sram, UntouchedBytesReadAsZero) {
  Sram sram(1 << 20);
  EXPECT_EQ(sram.read32(0), 0u);
  EXPECT_EQ(sram.read32(0x8000), 0u);
  EXPECT_EQ(sram.read8((1 << 20) - 1), 0u);
}

TEST(Sram, AccessesSpanAPageBoundary) {
  Sram sram(4 * kSramPage);
  const std::uint32_t a = 2 * kSramPage - 2;
  for (std::uint32_t i = 0; i < 4; ++i) {
    sram.write8(a + i, static_cast<std::uint8_t>(0xa0 + i));
  }
  EXPECT_EQ(sram.read32(a), 0xa3a2a1a0u);  // unaligned, read byte-wise
  const auto view = sram.bytes(a, 4);
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(view[2], std::byte{0xa2});  // first byte of the third page
}

TEST(Sram, OnlyWrittenPagesBecomeResident) {
  Sram sram(1 << 20);
  const std::byte* base = sram.bytes(0, sram.size()).data();
  for (std::uint32_t pg = 0; pg < (1u << 20) / kSramPage; ++pg) {
    EXPECT_FALSE(resident(base + pg * kSramPage)) << "page " << pg;
  }
  sram.write32(9 * kSramPage + 8, 0xdeadbeef);
  EXPECT_TRUE(resident(base + 9 * kSramPage));
  EXPECT_FALSE(resident(base + 8 * kSramPage));
  EXPECT_FALSE(resident(base + 10 * kSramPage));
}

TEST(Sram, ClearZeroesWrittenBytesAndDropsTheirPages) {
  Sram sram(64 * kSramPage);
  const std::byte* base = sram.bytes(0, sram.size()).data();
  sram.write32(0x8000, 0x12345678);
  sram.write8(63 * kSramPage, 0x5a);
  ASSERT_TRUE(resident(base + 0x8000));
  sram.clear();
  EXPECT_FALSE(resident(base + 0x8000));
  EXPECT_FALSE(resident(base + 63 * kSramPage));
  EXPECT_EQ(sram.read32(0x8000), 0u);
  EXPECT_EQ(sram.read8(63 * kSramPage), 0u);
  sram.write32(0x8000, 7);  // usable again after the drop
  EXPECT_EQ(sram.read32(0x8000), 7u);
}

TEST(Sram, FlipBitOnANeverWrittenByte) {
  Sram sram(64 * kSramPage);
  sram.flip_bit(0x9001, 3);
  EXPECT_EQ(sram.read8(0x9001), 0x08u);
  sram.flip_bit(0x9001, 11);  // the bit index wraps within the byte
  EXPECT_EQ(sram.read8(0x9001), 0x00u);
}

TEST(Sram, OutOfRangeBytesIsEmpty) {
  Sram sram(64 * kSramPage);
  EXPECT_TRUE(sram.bytes(sram.size() - 3, 4).empty());
  EXPECT_TRUE(sram.bytes(sram.size() + 1, 0).empty());
  EXPECT_TRUE(sram.bytes(0xffffffffu, 1).empty());
  EXPECT_EQ(sram.bytes(sram.size() - 4, 4).size(), 4u);
  EXPECT_FALSE(sram.in_range(sram.size() - 3, 4));
}

TEST(Sram, ZeroSizeRegion) {
  Sram sram(0);
  EXPECT_EQ(sram.size(), 0u);
  EXPECT_TRUE(sram.in_range(0, 0));
  EXPECT_FALSE(sram.in_range(0, 1));
  EXPECT_TRUE(sram.bytes(0, 1).empty());
  sram.clear();  // nothing mapped, nothing to drop
}

TEST(Sram, MoveOnlyAndMoveKeepsContents) {
  static_assert(!std::is_copy_constructible_v<Sram>);
  static_assert(!std::is_copy_assignable_v<Sram>);
  static_assert(std::is_nothrow_move_constructible_v<Sram>);
  Sram c(kSramPage);
  {
    Sram a(2 * kSramPage);
    a.write32(kSramPage, 0xcafe);
    Sram b(std::move(a));
    c = std::move(b);
  }  // the moved-from objects are gone; `c` still owns the mapping
  EXPECT_EQ(c.size(), 2 * kSramPage);
  EXPECT_EQ(c.read32(kSramPage), 0xcafeu);
}

}  // namespace
}  // namespace myri::lanai
