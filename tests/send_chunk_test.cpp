// send_chunk's native mirror against the interpreter, and the SRAM code
// watch that decides which of the two runs.
//
// The differential cases run the same call twice, on two identical cards
// (SRAM, registers, MMIO device): once interpreted, once through
// run_send_chunk_native(). Where the mirror serves the call, both cards
// must end identical: RunResult, registers, total cycles, every SRAM byte,
// and the MMIO accesses in order. Where it declines, its card must be
// exactly as before the call.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "gm/cluster.hpp"
#include "lanai/cpu.hpp"
#include "lanai/registers.hpp"
#include "lanai/sram.hpp"
#include "lanai/tx_descriptor.hpp"
#include "mcp/send_chunk.hpp"
#include "mcp/sram_layout.hpp"

namespace myri {
namespace {

using lanai::Cpu;
using lanai::RunResult;
using lanai::RunStatus;
using lanai::Sram;
using mcp::SendDescLayout;
using mcp::SramLayout;

const mcp::SendChunkImage& image() {
  static const mcp::SendChunkImage img = mcp::assemble_send_chunk();
  return img;
}

// Records every access in order. HDMA_CTRL reads 1 while `busy`, like the
// card's engine (it cannot finish while the processor runs).
class LogMmio : public lanai::MmioDevice {
 public:
  std::uint32_t mmio_read(std::uint32_t addr) override {
    const std::uint32_t v = addr == lanai::kRegHdmaCtrl && busy ? 1u : 0u;
    log.emplace_back('r', addr, v);
    return v;
  }
  void mmio_write(std::uint32_t addr, std::uint32_t value) override {
    log.emplace_back('w', addr, value);
  }
  [[nodiscard]] std::size_t writes() const {
    std::size_t n = 0;
    for (const auto& a : log) n += std::get<0>(a) == 'w';
    return n;
  }
  bool busy = false;
  std::vector<std::tuple<char, std::uint32_t, std::uint32_t>> log;
};

struct Desc {
  std::uint32_t host = 0x123440;
  std::uint32_t staging = SramLayout::kSendStagingBase + 0x3000;
  std::uint32_t len = 100;
  std::uint32_t flags = 0;
};

// One card: the image loaded, a filled send descriptor, a stale TX
// descriptor and recognisable values in every register.
struct Card {
  explicit Card(const Desc& d) : sram(64 * 1024), cpu(sram, mmio) {
    const auto& img = image();
    for (std::size_t i = 0; i < img.program.words.size(); ++i) {
      sram.write32(img.program.base + static_cast<std::uint32_t>(i * 4),
                   img.program.words[i]);
    }
    using D = SendDescLayout;
    const std::uint32_t a = SramLayout::kSendDescAddr;
    sram.write32(a + D::kHostAddr, d.host);
    sram.write32(a + D::kStagingAddr, d.staging);
    sram.write32(a + D::kLen, d.len);
    sram.write32(a + D::kFlags, d.flags);
    // Distinct values in every other field, so a swapped copy shows.
    for (const std::uint32_t off : {D::kSeq, D::kStream, D::kDst, D::kDstPort,
                                    D::kSrcPort, D::kMsgId, D::kMsgLen,
                                    D::kFragOffset, D::kTarget}) {
      sram.write32(a + off, 0x5000u + off);
    }
    for (std::uint32_t off = 0; off < lanai::TxDescLayout::kSize; off += 4) {
      sram.write32(SramLayout::kTxDescAddr + off, 0xdead0000u + off);
    }
    for (unsigned r = 1; r < Cpu::kNumRegs; ++r) cpu.set_reg(r, 0x100u * r);
  }

  [[nodiscard]] std::vector<std::uint32_t> regs() const {
    std::vector<std::uint32_t> v;
    for (unsigned r = 0; r < Cpu::kNumRegs; ++r) v.push_back(cpu.reg(r));
    return v;
  }
  [[nodiscard]] std::vector<std::byte> bytes() const {
    const auto s = sram.bytes(0, sram.size());
    return {s.begin(), s.end()};
  }

  Sram sram;
  LogMmio mmio;
  Cpu cpu;
};

struct Case {
  const char* name;
  bool phase_b;
  Desc desc;
  std::uint64_t budget;
  bool busy;
  bool native;  // the mirror serves it
};

std::vector<Case> cases() {
  const std::uint64_t b = 100000;  // the MCP's default budget
  return {
      {"A normal", false, {}, b, false, true},
      {"A 4 KB fragment", false, {.len = 4096}, b, false, true},
      {"A zero-length fragment", false, {.len = 0}, b, false, true},
      {"A sign-bit length passes the signed check", false,
       {.len = 0x80000010u}, b, false, true},
      {"A priority, directed and notify flags", false, {.flags = 1 | 4 | 8},
       b, false, true},
      {"A exact budget", false, {}, 22, false, true},
      {"A length over 4 KB", false, {.len = 4097}, b, false, false},
      {"A null host address", false, {.host = 0}, b, false, false},
      {"A null staging address", false, {.staging = 0}, b, false, false},
      {"A resend flag", false, {.flags = 2}, b, false, false},
      {"A busy DMA engine", false, {}, b, true, false},
      {"A budget one short", false, {}, 21, false, false},
      {"B low priority", true, {}, b, false, true},
      {"B high priority", true, {.flags = 1}, b, false, true},
      {"B every flag", true, {.flags = 0xf}, b, false, true},
      {"B busy engine is not polled", true, {}, b, true, true},
      {"B exact budget", true, {}, 35, false, true},
      {"B budget one short", true, {}, 34, false, false},
  };
}

TEST(SendChunkMirror, KeyMatchesTheAssembledImage) {
  // Fails when send_chunk_source() is edited without updating the mirror
  // (and its key) to match: the MCP would interpret every run.
  EXPECT_TRUE(image().mirrored);
}

TEST(SendChunkMirror, MatchesTheInterpreterOnEveryPath) {
  ASSERT_TRUE(image().mirrored);
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const std::uint32_t entry = c.phase_b ? image().entry_tx
                                          : image().entry_dma;
    Card interp(c.desc), native(c.desc);
    interp.mmio.busy = native.mmio.busy = c.busy;
    const auto regs_before = native.regs();
    const auto bytes_before = native.bytes();

    const RunResult want = interp.cpu.run(entry, c.budget);
    const auto got = mcp::run_send_chunk_native(
        image(), entry, native.cpu, native.sram, native.mmio, c.budget);
    ASSERT_EQ(got.has_value(), c.native);
    if (!got) {
      // Declined: nothing changed. (Phase A may have read HDMA_CTRL.)
      EXPECT_EQ(native.mmio.writes(), 0u);
      EXPECT_EQ(native.regs(), regs_before);
      EXPECT_EQ(native.cpu.total_cycles(), 0u);
      EXPECT_TRUE(native.bytes() == bytes_before);
      continue;
    }
    EXPECT_EQ(got->status, want.status);
    EXPECT_EQ(got->cycles, want.cycles);
    EXPECT_EQ(got->pc, want.pc);
    EXPECT_EQ(got->detail, want.detail);
    EXPECT_EQ(native.cpu.total_cycles(), interp.cpu.total_cycles());
    EXPECT_EQ(native.regs(), interp.regs());
    EXPECT_EQ(native.mmio.log, interp.mmio.log);
    EXPECT_TRUE(native.bytes() == interp.bytes());
    EXPECT_EQ(want.status, RunStatus::kReturned);
  }
}

TEST(SendChunkMirror, DeclinesOtherEntriesAndForeignImages) {
  Card card(Desc{});
  EXPECT_FALSE(mcp::run_send_chunk_native(image(), image().entry_dma + 4,
                                          card.cpu, card.sram, card.mmio,
                                          100000));
  mcp::SendChunkImage edited = image();
  edited.mirrored = false;
  EXPECT_FALSE(mcp::run_send_chunk_native(edited, edited.entry_tx, card.cpu,
                                          card.sram, card.mmio, 100000));
  EXPECT_TRUE(card.mmio.log.empty());
  EXPECT_EQ(card.cpu.total_cycles(), 0u);
}

// ---- the code watch ----

TEST(SramCodeWatch, OnlyWritesThatMayChangeAWatchedByteBumpTheEpoch) {
  Sram sram(64 * 1024);
  sram.watch_code(0x1000, 0x100);  // [0x1000, 0x1100)
  std::uint64_t e = sram.code_epoch();
  auto bumped = [&] {
    const bool b = sram.code_epoch() != e;
    e = sram.code_epoch();
    return b;
  };
  sram.write32(0x0ffc, 1);
  EXPECT_FALSE(bumped()) << "word just below";
  sram.write32(0x1100, 1);
  EXPECT_FALSE(bumped()) << "word just above";
  sram.write8(0x0fff, 1);
  EXPECT_FALSE(bumped());
  sram.write8(0x1000, 1);
  EXPECT_TRUE(bumped()) << "first watched byte";
  sram.write32(0x10fc, 1);
  EXPECT_TRUE(bumped()) << "last watched word";
  sram.write8(0x10ff, 1);
  EXPECT_TRUE(bumped());
  sram.flip_bit(0x1080, 3);
  EXPECT_TRUE(bumped()) << "fault injection";
  sram.flip_bit(0x2000, 3);
  EXPECT_FALSE(bumped());
  (void)sram.bytes(0x0f00, 0x101);
  EXPECT_TRUE(bumped()) << "a writable view reaching one watched byte";
  (void)sram.bytes(0x0f00, 0x100);
  EXPECT_FALSE(bumped());
  (void)std::as_const(sram).bytes(0x1000, 0x100);
  EXPECT_FALSE(bumped()) << "a read-only view";
  EXPECT_EQ(std::as_const(sram).read32(0x1000), 1u);
  EXPECT_FALSE(bumped()) << "reads";
  sram.clear();
  EXPECT_TRUE(bumped());
}

TEST(SramCodeWatch, NothingIsWatchedBeforeALoad) {
  Sram sram(64 * 1024);
  const std::uint64_t e = sram.code_epoch();
  sram.write32(0, 1);
  sram.flip_bit(0x1000, 0);
  EXPECT_EQ(sram.code_epoch(), e);
}

TEST(SramCodeWatch, WordAccessesAreLittleEndian) {
  Sram sram(64 * 1024);
  sram.write32(0x2000, 0x11223344u);
  EXPECT_EQ(sram.read8(0x2000), 0x44u);
  EXPECT_EQ(sram.read8(0x2003), 0x11u);
  sram.write8(0x2001, 0xaa);
  EXPECT_EQ(sram.read32(0x2000), 0x1122aa44u);
}

// ---- which path the MCP takes ----

// A 2-node FTGM cluster with a receiver that recycles its buffers.
struct Rig {
  Rig() : cluster(config()), tx(cluster.node(0).open_port(2)),
          rx(cluster.node(1).open_port(3, {32, 32})) {
    cluster.run_for(sim::usec(900));
    rx.set_receive_handler([this](const gm::RecvInfo& info) {
      ++received;
      rx.provide_receive_buffer(info.buffer);
    });
    for (int i = 0; i < 8; ++i) {
      rx.provide_receive_buffer(rx.alloc_dma_buffer(128));
    }
    buf = tx.alloc_dma_buffer(64);
  }
  static gm::ClusterConfig config() {
    gm::ClusterConfig cc;
    cc.nodes = 2;
    cc.mode = mcp::McpMode::kFtgm;
    return cc;
  }
  // Send `n` one-fragment messages; returns (runs, native runs) of node 0.
  std::pair<std::uint64_t, std::uint64_t> send(int n) {
    const auto& s = cluster.node(0).mcp().stats();
    const std::uint64_t runs = s.send_chunk_runs, nat = s.send_chunk_native;
    const int want = received + n;
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(tx.post(buf, 64, {.dst = 1, .dst_port = 3}).ok());
      cluster.run_for(sim::msec(1));
    }
    EXPECT_EQ(received, want);
    const auto& t = cluster.node(0).mcp().stats();
    return {t.send_chunk_runs - runs, t.send_chunk_native - nat};
  }
  Sram& sram() { return cluster.node(0).nic().sram(); }

  gm::Cluster cluster;
  gm::Port& tx;
  gm::Port& rx;
  gm::Buffer buf;
  int received = 0;
};

// An address in the descriptor-error block, which the normal paths never
// execute: a change there leaves the traffic as it was.
std::uint32_t untaken_code_addr() {
  return image().program.label("sc_bad_desc");
}

TEST(SendChunkPath, AnIntactCardRunsEverySendNatively) {
  Rig rig;
  const auto [runs, native] = rig.send(5);
  EXPECT_EQ(runs, 10u);  // two phases per fragment
  EXPECT_EQ(native, runs);
}

TEST(SendChunkPath, ACodeFlipInterpretsUntilTheNextLoad) {
  Rig rig;
  rig.send(2);
  rig.cluster.node(0).mcp().catch_up();
  rig.sram().flip_bit(untaken_code_addr(), 0);
  const auto [runs, native] = rig.send(5);
  EXPECT_EQ(runs, 10u);
  EXPECT_EQ(native, 0u);
  // Flipping it back restores the bytes but not the epoch: a card stays
  // on the interpreter until load() rewrites and re-watches its code.
  rig.sram().flip_bit(untaken_code_addr(), 0);
  EXPECT_EQ(rig.send(2).second, 0u);

  const auto gen = rig.cluster.node(0).mcp().generation();
  rig.cluster.node(0).mcp().inject_hang("test");
  rig.cluster.run_for(sim::sec(2));  // watchdog, FTD: clear SRAM, load()
  ASSERT_GT(rig.cluster.node(0).mcp().generation(), gen);
  const auto [runs2, native2] = rig.send(3);
  EXPECT_EQ(runs2, 6u);
  EXPECT_EQ(native2, runs2);
}

TEST(SendChunkPath, ADmaIntoCodeInterpretsUntilTheNextLoad) {
  Rig rig;
  rig.send(2);
  // Host->SRAM DMA of the very bytes already there: the code is unchanged,
  // but the card cannot know that without comparing, so it interprets.
  const std::uint32_t code = untaken_code_addr();
  auto& mem = rig.cluster.node(0).memory();
  const host::DmaAddr src = mem.size() - 64;
  std::uint32_t word = rig.sram().read32(code);
  std::memcpy(mem.at(src, 4).data(), &word, 4);
  const std::uint64_t e = rig.sram().code_epoch();
  rig.cluster.node(0).nic().start_hdma(true, src, code, 4);
  rig.cluster.run_for(sim::usec(100));
  ASSERT_NE(rig.sram().code_epoch(), e);
  EXPECT_EQ(rig.sram().read32(code), word);
  const auto [runs, native] = rig.send(3);
  EXPECT_EQ(runs, 6u);
  EXPECT_EQ(native, 0u);
}

TEST(SendChunkPath, WritesOutsideTheCodeKeepTheMirror) {
  Rig rig;
  rig.send(1);
  // The magic word, descriptors and staging slots change all the time.
  rig.sram().write32(SramLayout::kMagicAddr, 0x1234);
  rig.sram().flip_bit(SramLayout::kSendStagingBase + 7, 1);
  const auto [runs, native] = rig.send(3);
  EXPECT_EQ(native, runs);
}

}  // namespace
}  // namespace myri
