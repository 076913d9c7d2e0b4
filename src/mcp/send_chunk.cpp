#include "mcp/send_chunk.hpp"

#include <utility>

#include "lanai/registers.hpp"
#include "lanai/tx_descriptor.hpp"
#include "mcp/sram_layout.hpp"

namespace myri::mcp {

// Field immediates must match SendDescLayout / lanai::TxDescLayout.
//
// Like the real GM send path, most of this section is conditionally
// executed: error-handling blocks whose checks normally pass, a
// high-priority variant, and a resend path gated on a descriptor flag.
// Fault-injection flips that land in untaken blocks have no effect, which
// is where the paper's large "No Impact" fraction (Table 1) comes from.
const std::string& send_chunk_source() {
  static const std::string kSrc = R"(
; ---------- phase A: stage the fragment payload from host memory ----------
send_chunk:
    lui  r1, 0x3c000        ; r1 = MMIO base (0xF0000000)
    addi r2, r0, 0x4100     ; r2 = send descriptor
    ; --- sanity checks (normally pass; failures divert to error path) ---
    lw   r5, 8(r2)          ; fragment length
    addi r6, r0, 4096
    blt  r6, r5, sc_bad_desc     ; len > 4 KB: malformed descriptor
    lw   r3, 0(r2)          ; host address
    beq  r3, r0, sc_bad_desc     ; null host pointer
    lw   r4, 4(r2)          ; SRAM staging address
    beq  r4, r0, sc_bad_desc
    ; --- resend path: flag bit 1 set means staged payload is still valid
    ;     and the DMA can be skipped (rare) ---
    lw   r9, 44(r2)         ; flags
    addi r10, r0, 2
    and  r9, r9, r10
    bne  r9, r0, sc_resend
    ; --- bounded wait for the host-DMA engine ---
    addi r8, r0, 2000
sc_wait:
    lw   r9, 0x2c(r1)       ; HDMA_CTRL reads 1 while the engine is busy
    beq  r9, r0, sc_go
    addi r8, r8, -1
    bne  r8, r0, sc_wait
    halt                    ; engine wedged: stop the processor
sc_go:
    sw   r3, 0x20(r1)       ; HDMA_HOST
    sw   r4, 0x24(r1)       ; HDMA_LOCAL
    sw   r5, 0x28(r1)       ; HDMA_LEN
    addi r6, r0, 1
    sw   r6, 0x2c(r1)       ; HDMA_CTRL: start host->SRAM
    jalr r0, r15            ; return; phase B resumes on DMA completion

    ; --- error path: malformed descriptor. Scrub it and report by leaving
    ;     a diagnostic code in the scratch register (normally unreached) ---
sc_bad_desc:
    addi r6, r0, 0x7e
    sw   r6, 0x3c(r1)       ; scratch: diagnostic code
    sw   r0, 0(r2)          ; clear the descriptor
    sw   r0, 4(r2)
    sw   r0, 8(r2)
    sw   r0, 12(r2)
    jalr r0, r15

    ; --- resend path: payload already staged; go straight to TX ---
sc_resend:
    jal  r14, sc_build_tx
    jalr r0, r15

; ---------- phase B: build the TX descriptor, start transmission ----------
send_chunk_tx:
    lui  r1, 0x3c000
    addi r2, r0, 0x4100     ; send descriptor
    jal  r14, sc_build_tx
    jalr r0, r15

    ; --- shared TX-descriptor builder (r1 = MMIO, r2 = send desc) ---
sc_build_tx:
    addi r7, r0, 0x4200     ; TX descriptor
    lw   r3, 20(r2)         ; dst node
    sw   r3, 0(r7)
    lw   r3, 12(r2)         ; sequence number
    sw   r3, 4(r7)
    lw   r3, 16(r2)         ; stream id
    sw   r3, 8(r7)
    lw   r3, 24(r2)         ; dst port
    sw   r3, 12(r7)
    lw   r3, 4(r2)          ; payload staging address
    sw   r3, 16(r7)
    lw   r3, 8(r2)          ; payload length
    sw   r3, 20(r7)
    lw   r3, 32(r2)         ; msg id
    sw   r3, 24(r7)
    lw   r3, 36(r2)         ; msg len
    sw   r3, 28(r7)
    lw   r3, 40(r2)         ; frag offset
    sw   r3, 32(r7)
    lw   r3, 28(r2)         ; src port
    sw   r3, 40(r7)
    lw   r3, 48(r2)         ; directed-send target address
    sw   r3, 44(r7)
    lw   r3, 44(r2)         ; flags (priority | directed)
    sw   r3, 36(r7)
    addi r6, r0, 1
    and  r5, r3, r6
    beq  r5, r0, sc_tx_lo
    ; --- high-priority variant: expedited doorbell (rare) ---
    addi r3, r0, 0x4200
    sw   r3, 0x30(r1)       ; TX_DESC: go
    jalr r0, r14
sc_tx_lo:
    addi r3, r0, 0x4200
    sw   r3, 0x30(r1)       ; TX_DESC: go
    jalr r0, r14
)";
  return kSrc;
}

namespace {

// FNV-1a over the image's base address and words. run_send_chunk_native()
// mirrors exactly the image with this key: an edit to the source above
// changes the key, switches the mirror off, and fails the test that pins
// it (SendChunkMirror.KeyMatchesTheAssembledImage) until the mirror
// below is brought in line and the key updated.
constexpr std::uint64_t kMirroredImageKey = 0x6ac05cf039b48faau;

std::uint64_t image_key(const lanai::Program& p) {
  std::uint64_t h = 0xcbf29ce484222325u;
  auto mix = [&h](std::uint32_t w) {
    for (int i = 0; i < 4; ++i) {
      h = (h ^ ((w >> (8 * i)) & 0xffu)) * 0x100000001b3u;
    }
  };
  mix(p.base);
  for (const std::uint32_t w : p.words) mix(w);
  return h;
}

// Cycles of the mirrored paths: one per instruction executed.
constexpr std::uint64_t kPhaseACycles = 22;  // checks, one poll, DMA start
constexpr std::uint64_t kPhaseBCycles = 35;  // 12 field copies, doorbell

// sc_build_tx's copies, in program order: (send desc, TX desc) offsets.
using D = SendDescLayout;
using T = lanai::TxDescLayout;
constexpr std::pair<std::uint32_t, std::uint32_t> kTxCopies[] = {
    {D::kDst, T::kDst},           {D::kSeq, T::kSeq},
    {D::kStream, T::kStream},     {D::kDstPort, T::kDstPort},
    {D::kStagingAddr, T::kPayloadAddr}, {D::kLen, T::kPayloadLen},
    {D::kMsgId, T::kMsgId},       {D::kMsgLen, T::kMsgLen},
    {D::kFragOffset, T::kFragOffset},   {D::kSrcPort, T::kSrcPort},
    {D::kTarget, T::kTarget},     {D::kFlags, T::kFlags},
};

}  // namespace

SendChunkImage assemble_send_chunk() {
  SendChunkImage img;
  img.program = lanai::assemble(send_chunk_source(), SramLayout::kCodeBase);
  img.entry_dma = img.program.label("send_chunk");
  img.entry_tx = img.program.label("send_chunk_tx");
  img.mirrored = image_key(img.program) == kMirroredImageKey;
  return img;
}

std::optional<lanai::RunResult> run_send_chunk_native(
    const SendChunkImage& img, std::uint32_t entry, lanai::Cpu& cpu,
    lanai::Sram& sram, lanai::MmioDevice& mmio, std::uint64_t max_cycles) {
  constexpr std::uint32_t d = SramLayout::kSendDescAddr;
  constexpr std::uint32_t tx = SramLayout::kTxDescAddr;
  if (!img.mirrored || !sram.in_range(d, D::kSize) ||
      !sram.in_range(tx, T::kSize)) {
    return std::nullopt;
  }
  lanai::RunResult res;
  res.pc = lanai::Cpu::kReturnAddr;
  if (entry == img.entry_dma) {
    // send_chunk: the sanity checks pass (blt is signed, so a length with
    // the sign bit set passes), the resend flag is clear, and the first
    // poll finds the engine idle.
    res.cycles = kPhaseACycles;
    if (max_cycles < res.cycles) return std::nullopt;
    const std::uint32_t len = sram.read32(d + D::kLen);
    const std::uint32_t host = sram.read32(d + D::kHostAddr);
    const std::uint32_t stage = sram.read32(d + D::kStagingAddr);
    const std::uint32_t flags = sram.read32(d + D::kFlags);
    if (static_cast<std::int32_t>(len) > 4096 || host == 0 || stage == 0 ||
        (flags & 2u) != 0) {
      return std::nullopt;
    }
    if (mmio.mmio_read(lanai::kRegHdmaCtrl) != 0) return std::nullopt;
    mmio.mmio_write(lanai::kRegHdmaHost, host);
    mmio.mmio_write(lanai::kRegHdmaLocal, stage);
    mmio.mmio_write(lanai::kRegHdmaLen, len);
    mmio.mmio_write(lanai::kRegHdmaCtrl, 1);
    cpu.set_reg(3, host);
    cpu.set_reg(4, stage);
    cpu.set_reg(5, len);
    cpu.set_reg(6, 1);
    cpu.set_reg(8, 2000);
    cpu.set_reg(9, 0);
    cpu.set_reg(10, 2);
  } else if (entry == img.entry_tx) {
    // send_chunk_tx -> sc_build_tx: copy the fields, ring TX_DESC (both
    // priorities ring it the same way), return through r14 and r15.
    res.cycles = kPhaseBCycles;
    if (max_cycles < res.cycles) return std::nullopt;
    std::uint32_t v = 0;
    for (const auto& [from, to] : kTxCopies) {
      v = sram.read32(d + from);
      sram.write32(tx + to, v);
    }
    mmio.mmio_write(lanai::kRegTxDesc, tx);
    cpu.set_reg(3, tx);
    cpu.set_reg(5, v & 1u);  // v: the flags, copied last
    cpu.set_reg(6, 1);
    cpu.set_reg(7, tx);
    cpu.set_reg(14, img.entry_tx + 12);  // after send_chunk_tx's jal
  } else {
    return std::nullopt;
  }
  cpu.set_reg(1, lanai::kMmioBase);
  cpu.set_reg(2, d);
  cpu.set_reg(15, lanai::Cpu::kReturnAddr);
  cpu.retire(res.cycles);
  return res;
}

}  // namespace myri::mcp
