// Unit tests for host memory, pinned allocation, page hash, PCI, interrupts.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <limits>
#include <new>
#include <random>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "host/host_memory.hpp"
#include "host/interrupts.hpp"
#include "host/pci.hpp"
#include "host/timing.hpp"
#include "sim/event_queue.hpp"

namespace myri::host {
namespace {

// True if the page holding `p` is resident, per mincore(2). Reading an
// untouched page maps the shared zero page, which mincore also reports as
// resident, so callers check residency before reading.
bool resident(const std::byte* p) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto base = reinterpret_cast<std::uintptr_t>(p) / page * page;
  unsigned char vec = 0;
  EXPECT_EQ(::mincore(reinterpret_cast<void*>(base), 1, &vec), 0);
  return (vec & 1u) != 0;
}

TEST(HostMemory, ReadWriteRoundTrip) {
  HostMemory mem(4096);
  std::array<std::byte, 4> data{std::byte{1}, std::byte{2}, std::byte{3},
                                std::byte{4}};
  EXPECT_TRUE(mem.write(100, data));
  std::array<std::byte, 4> out{};
  EXPECT_TRUE(mem.read(100, out));
  EXPECT_EQ(out, data);
}

TEST(HostMemory, OutOfRangeRejected) {
  HostMemory mem(128);
  std::array<std::byte, 4> data{};
  EXPECT_FALSE(mem.write(126, data));
  EXPECT_FALSE(mem.read(1000, data));
  EXPECT_TRUE(mem.at(1000, 4).empty());
}

TEST(HostMemory, BoundaryExactFits) {
  HostMemory mem(128);
  std::array<std::byte, 4> data{};
  EXPECT_TRUE(mem.write(124, data));
  EXPECT_EQ(mem.at(124, 4).size(), 4u);
}

TEST(HostMemory, ZeroLengthTransfersWithNullSpansAreNoOps) {
  // A zero-byte message DMAs an empty payload whose data() is null;
  // memcpy must not see it (UBSan flags even a zero-length copy).
  HostMemory mem(128);
  std::array<std::byte, 1> before{std::byte{7}};
  ASSERT_TRUE(mem.write(64, before));
  EXPECT_TRUE(mem.write(64, std::span<const std::byte>{}));
  EXPECT_TRUE(mem.read(64, std::span<std::byte>{}));
  std::array<std::byte, 1> after{};
  ASSERT_TRUE(mem.read(64, after));
  EXPECT_EQ(after, before);
}

TEST(HostMemory, OverflowAddressDoesNotWrap) {
  HostMemory mem(128);
  EXPECT_TRUE(mem.at(~0ull, 4).empty());
}

TEST(HostMemory, UntouchedPagesReadAsZero) {
  HostMemory mem(8 << 20);
  for (const DmaAddr a : {DmaAddr{0}, DmaAddr{kPageSize * 100 + 13},
                          DmaAddr{(8 << 20) - 4}}) {
    std::array<std::byte, 4> out{std::byte{0xff}, std::byte{0xff},
                                 std::byte{0xff}, std::byte{0xff}};
    ASSERT_TRUE(mem.read(a, out));
    EXPECT_EQ(out, (std::array<std::byte, 4>{}));
  }
}

TEST(HostMemory, TransfersSpanAPageBoundary) {
  HostMemory mem(4 * kPageSize);
  std::array<std::byte, 10> data{};
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i + 1);
  }
  const DmaAddr a = 2 * kPageSize - 5;
  ASSERT_TRUE(mem.write(a, data));
  std::array<std::byte, 10> out{};
  ASSERT_TRUE(mem.read(a, out));
  EXPECT_EQ(out, data);
  const auto view = mem.at(a, data.size());
  ASSERT_EQ(view.size(), data.size());
  EXPECT_EQ(view[5], std::byte{6});  // first byte of the second page
}

TEST(HostMemory, OnlyWrittenPagesBecomeResident) {
  constexpr std::size_t kPages = 64;
  HostMemory mem(kPages * kPageSize);
  const std::byte* base = mem.at(0, mem.size()).data();
  for (std::size_t pg = 0; pg < kPages; ++pg) {
    EXPECT_FALSE(resident(base + pg * kPageSize)) << "page " << pg;
  }
  const std::array<std::byte, 1> one{std::byte{1}};
  ASSERT_TRUE(mem.write(17 * kPageSize + 100, one));
  EXPECT_TRUE(resident(base + 17 * kPageSize));
  EXPECT_FALSE(resident(base + 16 * kPageSize));
  EXPECT_FALSE(resident(base + 18 * kPageSize));
}

TEST(HostMemory, ZeroSizeRegion) {
  HostMemory mem(0);
  EXPECT_EQ(mem.size(), 0u);
  EXPECT_TRUE(mem.at(0, 0).empty());
  EXPECT_TRUE(mem.at(0, 1).empty());
  std::array<std::byte, 1> b{};
  EXPECT_FALSE(mem.write(0, b));
  EXPECT_FALSE(mem.read(0, b));
  EXPECT_TRUE(mem.write(0, std::span<const std::byte>{}));
}

TEST(HostMemory, UnmappableSizeThrowsBadAlloc) {
  EXPECT_THROW(HostMemory(std::numeric_limits<std::size_t>::max() / 2),
               std::bad_alloc);
}

TEST(HostMemory, MoveOnlyAndMoveKeepsContents) {
  static_assert(!std::is_copy_constructible_v<HostMemory>);
  static_assert(!std::is_copy_assignable_v<HostMemory>);
  static_assert(std::is_nothrow_move_constructible_v<HostMemory>);
  const std::array<std::byte, 2> data{std::byte{9}, std::byte{8}};
  HostMemory c(kPageSize);
  {
    HostMemory a(2 * kPageSize);
    ASSERT_TRUE(a.write(kPageSize - 1, data));
    HostMemory b(std::move(a));
    c = std::move(b);
  }  // the moved-from objects are gone; `c` still owns the mapping
  EXPECT_EQ(c.size(), 2 * kPageSize);
  std::array<std::byte, 2> out{};
  ASSERT_TRUE(c.read(kPageSize - 1, out));
  EXPECT_EQ(out, data);
}

TEST(PinnedAllocator, AllocationsAreDisjoint) {
  PinnedAllocator pa(0x1000, 0x10000);
  auto a = pa.alloc(256);
  auto b = pa.alloc(256);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(*a + 256 <= *b || *b + 256 <= *a);
}

TEST(PinnedAllocator, RespectsAlignment) {
  PinnedAllocator pa(0x1001, 0x10000);
  auto a = pa.alloc(10, 64);
  ASSERT_TRUE(a);
  EXPECT_EQ(*a % 64, 0u);
}

TEST(PinnedAllocator, IsPinnedTracksLiveRegions) {
  PinnedAllocator pa(0x1000, 0x10000);
  auto a = pa.alloc(512);
  ASSERT_TRUE(a);
  EXPECT_TRUE(pa.is_pinned(*a, 512));
  EXPECT_TRUE(pa.is_pinned(*a + 100, 100));
  EXPECT_FALSE(pa.is_pinned(*a, 513));
  EXPECT_FALSE(pa.is_pinned(0x20, 4));  // below the pool
}

TEST(PinnedAllocator, FreeUnpins) {
  PinnedAllocator pa(0x1000, 0x10000);
  auto a = pa.alloc(512);
  ASSERT_TRUE(a);
  pa.free(*a);
  EXPECT_FALSE(pa.is_pinned(*a, 512));
  EXPECT_EQ(pa.bytes_in_use(), 0u);
}

TEST(PinnedAllocator, ReusesFreedRegions) {
  PinnedAllocator pa(0x1000, 0x1000);  // small pool
  auto a = pa.alloc(0x800);
  ASSERT_TRUE(a);
  EXPECT_FALSE(pa.alloc(0x900));  // does not fit
  pa.free(*a);
  auto b = pa.alloc(0x700);
  EXPECT_TRUE(b);  // satisfied from the free list
}

TEST(PinnedAllocator, ExhaustionReturnsNullopt) {
  PinnedAllocator pa(0, 1024);
  EXPECT_TRUE(pa.alloc(1000));
  EXPECT_FALSE(pa.alloc(1000));
}

TEST(PinnedAllocator, ZeroLengthAllocSucceeds) {
  PinnedAllocator pa(0, 1024);
  EXPECT_TRUE(pa.alloc(0));
}

TEST(PageHashTable, LookupWithinPage) {
  PageHashTable t;
  t.map(2, 0x10000, 0x10000);
  auto r = t.lookup(2, 0x10123);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, 0x10123u);
}

TEST(PageHashTable, MissingPageIsNullopt) {
  PageHashTable t;
  t.map(2, 0x10000, 0x10000);
  EXPECT_FALSE(t.lookup(2, 0x20000));
}

TEST(PageHashTable, PortsAreIsolated) {
  PageHashTable t;
  t.map(2, 0x10000, 0x10000);
  EXPECT_FALSE(t.lookup(3, 0x10000));
}

TEST(PageHashTable, UnmapPortRemovesOnlyThatPort) {
  PageHashTable t;
  t.map(2, 0x10000, 0x10000);
  t.map(3, 0x10000, 0x10000);
  t.unmap_port(2);
  EXPECT_FALSE(t.lookup(2, 0x10000));
  EXPECT_TRUE(t.lookup(3, 0x10000));
}

TEST(PageHashTable, NonIdentityMapping) {
  PageHashTable t;
  t.map(0, 0x5000, 0x9000);
  auto r = t.lookup(0, 0x5010);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, 0x9010u);
}

TEST(PageHashTable, MatchesAReferenceMapThroughGrowthRemapAndUnmap) {
  // Random map (fresh and remap), unmap_port and lookup sequences over
  // eight ports, checked step by step against an std::unordered_map. The
  // page range is small enough that remaps are common and large enough
  // that the table grows several times.
  std::mt19937_64 rng(2026);
  PageHashTable t;
  std::unordered_map<std::uint64_t, DmaAddr> ref;  // (port, page) -> page
  const auto ref_key = [](std::uint8_t port, std::uint64_t vpage) {
    return std::uint64_t{port} << 52 | vpage;
  };
  const auto draw_vaddr = [&] {
    // Pages 0..4095, plus an occasional far one near the top of the
    // address range.
    const std::uint64_t page = rng() % 64 == 0 ? (std::uint64_t{1} << 51) +
                                                     rng() % 16
                                               : rng() % 4096;
    return page * kPageSize + rng() % kPageSize;
  };
  for (int step = 0; step < 60000; ++step) {
    const auto port = static_cast<std::uint8_t>(rng() % 8);
    const std::uint64_t vaddr = draw_vaddr();
    const std::uint64_t roll = rng() % 1000;
    if (roll < 450) {
      const DmaAddr dma = (rng() % (1u << 20)) * kPageSize + rng() % 64;
      t.map(port, vaddr, dma);
      ref[ref_key(port, vaddr / kPageSize)] = dma / kPageSize * kPageSize;
    } else if (roll < 452) {
      t.unmap_port(port);
      std::erase_if(ref, [&](const auto& kv) { return kv.first >> 52 == port; });
    } else {
      const auto got = t.lookup(port, vaddr);
      const auto it = ref.find(ref_key(port, vaddr / kPageSize));
      ASSERT_EQ(got.has_value(), it != ref.end()) << "step " << step;
      if (got) {
        ASSERT_EQ(*got, it->second + vaddr % kPageSize) << "step " << step;
      }
    }
    ASSERT_EQ(t.size(), ref.size()) << "step " << step;
  }
  EXPECT_GT(ref.size(), 1000u);  // the sweep did reach a large table
  for (const auto& [k, page] : ref) {
    const auto port = static_cast<std::uint8_t>(k >> 52);
    const std::uint64_t vpage = k & ((std::uint64_t{1} << 52) - 1);
    const auto got = t.lookup(port, vpage * kPageSize + 7);
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, page + 7);
  }
}

TEST(PciBus, DmaTimeMatchesRatePlusSetup) {
  sim::EventQueue eq;
  PciTiming cfg;
  cfg.mb_per_s = 100.0;  // 1000 bytes -> 10 us
  cfg.dma_setup = sim::usecf(1.0);
  PciBus pci(eq, cfg);
  sim::Time done = 0;
  pci.dma(1000, [&] { done = eq.now(); });
  eq.run();
  EXPECT_EQ(done, sim::usec(11));
}

TEST(PciBus, TransactionsSerialize) {
  sim::EventQueue eq;
  PciTiming cfg;
  cfg.mb_per_s = 100.0;
  cfg.dma_setup = 0;
  PciBus pci(eq, cfg);
  sim::Time first = 0, second = 0;
  pci.dma(1000, [&] { first = eq.now(); });
  pci.dma(1000, [&] { second = eq.now(); });
  eq.run();
  EXPECT_EQ(first, sim::usec(10));
  EXPECT_EQ(second, sim::usec(20));
}

TEST(PciBus, BusyTimeAccounted) {
  sim::EventQueue eq;
  PciTiming cfg;
  cfg.mb_per_s = 100.0;
  cfg.dma_setup = 0;
  PciBus pci(eq, cfg);
  pci.dma(500, [] {});
  pci.dma(500, [] {});
  eq.run();
  EXPECT_EQ(pci.busy_time(), sim::usec(10));
  EXPECT_EQ(pci.transactions(), 2u);
}

TEST(PciBus, PioCostApplies) {
  sim::EventQueue eq;
  PciTiming cfg;
  cfg.pio = 150;
  PciBus pci(eq, cfg);
  sim::Time done = 0;
  pci.pio([&] { done = eq.now(); });
  eq.run();
  EXPECT_EQ(done, 150u);
}

TEST(Interrupts, HandlerRunsAfterLatency) {
  sim::EventQueue eq;
  InterruptTiming cfg;
  cfg.latency = sim::usec(13);
  InterruptController irq(eq, cfg);
  sim::Time fired = 0;
  irq.set_handler(IrqLine::kFatal, [&] { fired = eq.now(); });
  irq.raise(IrqLine::kFatal);
  eq.run();
  EXPECT_EQ(fired, sim::usec(13));
  EXPECT_EQ(irq.delivered(IrqLine::kFatal), 1u);
}

TEST(Interrupts, PendingRaisesCoalesce) {
  sim::EventQueue eq;
  InterruptController irq(eq, {});
  int count = 0;
  irq.set_handler(IrqLine::kFatal, [&] { ++count; });
  irq.raise(IrqLine::kFatal);
  irq.raise(IrqLine::kFatal);
  irq.raise(IrqLine::kFatal);
  eq.run();
  EXPECT_EQ(count, 1);
}

TEST(Interrupts, RearmsAfterDelivery) {
  sim::EventQueue eq;
  InterruptController irq(eq, {});
  int count = 0;
  irq.set_handler(IrqLine::kFatal, [&] { ++count; });
  irq.raise(IrqLine::kFatal);
  eq.run();
  irq.raise(IrqLine::kFatal);
  eq.run();
  EXPECT_EQ(count, 2);
}

TEST(Interrupts, LinesAreIndependent) {
  sim::EventQueue eq;
  InterruptController irq(eq, {});
  int fatal = 0, recv = 0;
  irq.set_handler(IrqLine::kFatal, [&] { ++fatal; });
  irq.set_handler(IrqLine::kRecvEvent, [&] { ++recv; });
  irq.raise(IrqLine::kRecvEvent);
  eq.run();
  EXPECT_EQ(fatal, 0);
  EXPECT_EQ(recv, 1);
}

TEST(Timing, DefaultsMatchPaperTable2) {
  const HostTiming t;
  EXPECT_EQ(t.send_api_overhead, sim::usecf(0.30));
  EXPECT_EQ(t.recv_api_overhead, sim::usecf(0.75));
  EXPECT_EQ(t.ftgm_send_backup, sim::usecf(0.25));
  EXPECT_EQ(t.ftgm_recv_backup, sim::usecf(0.40));
}

TEST(Timing, WatchdogArmedAboveMaxLTimerGap) {
  const WatchdogTiming w;
  EXPECT_GT(w.it1_interval, w.l_timer_max_gap);
  EXPECT_GT(w.l_timer_max_gap, w.l_timer_interval);
}

TEST(Timing, LanaiCycleTime) {
  LanaiTiming t;
  t.cpu_mhz = 132.0;
  EXPECT_EQ(t.cycle_time_ns(), 8u);  // rounded 7.57 ns
}

}  // namespace
}  // namespace myri::host
