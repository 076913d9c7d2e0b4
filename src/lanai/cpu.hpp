// Emulated LANai RISC core ("LanISA").
//
// A small 32-bit load/store ISA interpreted one cycle per instruction at
// the LANai9 clock rate. The MCP's send_chunk routine is written in this
// ISA (see mcp/send_chunk.hpp); the fault-injection campaign flips bits in
// its encoded instructions, so processor hangs, runaway loops, wild stores
// and silent data corruption all arise from genuine execution effects —
// mirroring the paper's SWIFI experiments on real LANai hardware.
//
// Encoding (32-bit words, little-endian in SRAM):
//   op  : bits 31..26
//   rd  : bits 25..22
//   rs1 : bits 21..18
//   rs2 : bits 17..14        (R-type only)
//   imm : bits 17..0, signed (I-type, branches, JAL)
//
// Conventions: r0 reads as zero. Routines are entered with r15 holding the
// return sentinel; `jalr r0, r15` returns. A jump to address 0 is the reset
// vector (classified as "MCP restart"). Opcode 0 is invalid, so executing
// zeroed SRAM faults immediately.
#pragma once

#include <cstdint>
#include <string>

#include "lanai/registers.hpp"
#include "lanai/sram.hpp"

namespace myri::lanai {

enum class Op : std::uint8_t {
  kInvalid = 0,
  kHalt = 1,
  kNop = 2,
  kAdd = 3,
  kSub = 4,
  kAnd = 5,
  kOr = 6,
  kXor = 7,
  kSll = 8,
  kSrl = 9,
  kMul = 10,
  kAddi = 11,
  kLui = 12,
  kLw = 13,
  kSw = 14,
  kLb = 15,
  kSb = 16,
  kBeq = 17,
  kBne = 18,
  kBlt = 19,
  kBge = 20,
  kJal = 21,
  kJalr = 22,
  kOpCount = 23,
};

/// Device backend for loads/stores at or above kMmioBase.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  virtual std::uint32_t mmio_read(std::uint32_t addr) = 0;
  virtual void mmio_write(std::uint32_t addr, std::uint32_t value) = 0;
};

enum class RunStatus {
  kReturned,        // hit the return sentinel: routine completed normally
  kHalted,          // executed HALT (deliberate stop -> interface hang)
  kFault,           // invalid opcode / bad address / misaligned access
  kBudgetExceeded,  // still running after max_cycles: runaway loop
  kRestart,         // jumped to the reset vector (address 0)
};

const char* to_string(RunStatus s);

struct RunResult {
  RunStatus status = RunStatus::kReturned;
  std::uint64_t cycles = 0;
  std::uint32_t pc = 0;       // pc when execution stopped
  std::string detail;         // human-readable fault description
};

class Cpu {
 public:
  static constexpr std::uint32_t kReturnAddr = 0xfffffffcu;
  static constexpr unsigned kNumRegs = 16;

  Cpu(Sram& sram, MmioDevice& mmio) : sram_(sram), mmio_(mmio) { reset(); }

  void reset();

  [[nodiscard]] std::uint32_t reg(unsigned i) const { return regs_[i & 15u]; }
  void set_reg(unsigned i, std::uint32_t v) {
    if ((i & 15u) != 0) regs_[i & 15u] = v;
  }

  /// Execute from `entry` until return/halt/fault or `max_cycles` spent.
  RunResult run(std::uint32_t entry, std::uint64_t max_cycles);

  /// Total cycles executed since construction (LANai utilization metric).
  [[nodiscard]] std::uint64_t total_cycles() const noexcept {
    return total_cycles_;
  }
  /// Count cycles of code run natively in place of run() (a mirror that
  /// leaves the state run() would have left).
  void retire(std::uint64_t cycles) noexcept { total_cycles_ += cycles; }

 private:
  Sram& sram_;
  MmioDevice& mmio_;
  std::uint32_t regs_[kNumRegs] = {};
  std::uint64_t total_cycles_ = 0;
};

// --- encoding helpers (shared with the assembler and fault classifier) ---

constexpr std::uint32_t encode(Op op, unsigned rd, unsigned rs1, unsigned rs2,
                               std::int32_t imm18) {
  return (static_cast<std::uint32_t>(op) << 26) | ((rd & 15u) << 22) |
         ((rs1 & 15u) << 18) | ((rs2 & 15u) << 14) |
         (static_cast<std::uint32_t>(imm18) & 0x3ffffu);
}

constexpr Op op_of(std::uint32_t w) {
  const auto v = w >> 26;
  return v < static_cast<std::uint32_t>(Op::kOpCount) ? static_cast<Op>(v)
                                                      : Op::kInvalid;
}
constexpr unsigned rd_of(std::uint32_t w) { return (w >> 22) & 15u; }
constexpr unsigned rs1_of(std::uint32_t w) { return (w >> 18) & 15u; }
constexpr unsigned rs2_of(std::uint32_t w) { return (w >> 14) & 15u; }
constexpr std::int32_t imm18_of(std::uint32_t w) {
  const auto raw = w & 0x3ffffu;
  return (raw & 0x20000u) ? static_cast<std::int32_t>(raw | 0xfffc0000u)
                          : static_cast<std::int32_t>(raw);
}

}  // namespace myri::lanai
