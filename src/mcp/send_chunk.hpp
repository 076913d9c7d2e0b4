// The MCP's send path, written in the emulated LANai ISA.
//
// This is the serial routine the paper's fault-injection campaign targets:
// "send_chunk corresponds to a serial piece of code that is executed by the
// LANai each time a message is sent out, [so] we are assured that all the
// faults are activated" (paper Section 2). It runs in two phases because
// the MCP is event-driven: phase A programs the host->SRAM payload DMA and
// returns; phase B runs on DMA completion, builds the TX descriptor and
// hands it to the packet interface.
//
// run_send_chunk_native() mirrors the routine's two normal paths in C++.
// The MCP calls it only while the card's code is the image it loaded
// (lanai::Sram's code watch); every other case is interpreted.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "lanai/assembler.hpp"
#include "lanai/cpu.hpp"

namespace myri::mcp {

/// Assembly source text (exposed for tests and for documentation).
const std::string& send_chunk_source();

struct SendChunkImage {
  lanai::Program program;     // assembled at SramLayout::kCodeBase
  std::uint32_t entry_dma;    // phase A entry ("send_chunk")
  std::uint32_t entry_tx;     // phase B entry ("send_chunk_tx")
  /// The words are those run_send_chunk_native() mirrors. False after an
  /// edit to send_chunk_source(): the mirror then declines every call.
  bool mirrored = false;
};

/// Assemble the routine for the standard code base address.
SendChunkImage assemble_send_chunk();

/// Run `entry` of `img` natively when the call takes one of the two normal
/// paths the mirror covers: phase A with a sane descriptor and an idle
/// host-DMA engine (22 cycles), or phase B at either priority (35 cycles).
/// It makes the SRAM writes and MmioDevice calls the interpreter would, in
/// the same order, and leaves the same registers, RunResult and
/// Cpu::total_cycles(). Otherwise it returns nullopt having changed
/// nothing; phase A may have read HDMA_CTRL, a read without side effects.
/// The caller guarantees that `sram` holds `img` unchanged and that `cpu`
/// runs on `sram` with `mmio` as its device.
std::optional<lanai::RunResult> run_send_chunk_native(
    const SendChunkImage& img, std::uint32_t entry, lanai::Cpu& cpu,
    lanai::Sram& sram, lanai::MmioDevice& mmio, std::uint64_t max_cycles);

}  // namespace myri::mcp
