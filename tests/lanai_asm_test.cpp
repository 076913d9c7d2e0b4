// Unit tests for the LanISA assembler.
#include <gtest/gtest.h>

#include "lanai/assembler.hpp"
#include "lanai/cpu.hpp"

namespace myri::lanai {
namespace {

TEST(Assembler, EncodesSimpleInstructions) {
  const Program p = assemble("addi r2, r1, 100\n", 0x1000);
  ASSERT_EQ(p.words.size(), 1u);
  EXPECT_EQ(op_of(p.words[0]), Op::kAddi);
  EXPECT_EQ(rd_of(p.words[0]), 2u);
  EXPECT_EQ(rs1_of(p.words[0]), 1u);
  EXPECT_EQ(imm18_of(p.words[0]), 100);
}

TEST(Assembler, HexAndNegativeImmediates) {
  const Program p = assemble("addi r1, r0, 0xff\naddi r2, r0, -3\n", 0);
  EXPECT_EQ(imm18_of(p.words[0]), 0xff);
  EXPECT_EQ(imm18_of(p.words[1]), -3);
}

TEST(Assembler, CommentsAndBlankLinesIgnored) {
  const Program p = assemble(R"(
    ; leading comment
    addi r1, r0, 1   ; trailing
    # hash comment

    nop
  )", 0);
  EXPECT_EQ(p.words.size(), 2u);
}

TEST(Assembler, LabelsResolveForwardAndBackward) {
  const Program p = assemble(R"(
  top:
    addi r1, r1, 1
    beq  r1, r2, done
    bne  r0, r1, top
  done:
    jalr r0, r15
  )", 0x1000);
  EXPECT_EQ(p.label("top"), 0x1000u);
  EXPECT_EQ(p.label("done"), 0x100cu);
  // beq at 0x1004 -> done(0x100c): offset (0x100c - 0x1008)/4 = 1.
  EXPECT_EQ(imm18_of(p.words[1]), 1);
  // bne at 0x1008 -> top(0x1000): offset (0x1000 - 0x100c)/4 = -3.
  EXPECT_EQ(imm18_of(p.words[2]), -3);
}

TEST(Assembler, LabelOnSameLineAsInstruction) {
  const Program p = assemble("start: addi r1, r0, 1\n", 0x2000);
  EXPECT_EQ(p.label("start"), 0x2000u);
  EXPECT_EQ(p.words.size(), 1u);
}

TEST(Assembler, MemoryOperands) {
  const Program p = assemble("lw r3, 0x20(r1)\nsw r4, -8(r2)\n", 0);
  EXPECT_EQ(op_of(p.words[0]), Op::kLw);
  EXPECT_EQ(rs1_of(p.words[0]), 1u);
  EXPECT_EQ(imm18_of(p.words[0]), 0x20);
  EXPECT_EQ(imm18_of(p.words[1]), -8);
}

TEST(Assembler, MemoryOperandWithoutOffset) {
  const Program p = assemble("lw r3, (r1)\n", 0);
  EXPECT_EQ(imm18_of(p.words[0]), 0);
}

TEST(Assembler, JalEncodesWordAddress) {
  const Program p = assemble(R"(
    jal r15, func
    nop
  func:
    jalr r0, r15
  )", 0x1000);
  EXPECT_EQ(op_of(p.words[0]), Op::kJal);
  EXPECT_EQ(imm18_of(p.words[0]), 0x1008 / 4);
}

TEST(Assembler, WordDirective) {
  const Program p = assemble(".word 0xdeadbeef\n", 0);
  EXPECT_EQ(p.words[0], 0xdeadbeefu);
}

TEST(Assembler, WordDirectiveWithLabel) {
  const Program p = assemble(R"(
  tgt:
    nop
    .word tgt
  )", 0x400);
  EXPECT_EQ(p.words[1], 0x400u);
}

TEST(Assembler, SizeBytes) {
  const Program p = assemble("nop\nnop\nnop\n", 0);
  EXPECT_EQ(p.size_bytes(), 12u);
}

TEST(Assembler, UnknownMnemonicFails) {
  EXPECT_THROW(assemble("frobnicate r1\n", 0), AsmError);
}

TEST(Assembler, BadRegisterFails) {
  EXPECT_THROW(assemble("addi r16, r0, 1\n", 0), AsmError);
  EXPECT_THROW(assemble("addi rx, r0, 1\n", 0), AsmError);
}

TEST(Assembler, DuplicateLabelFails) {
  EXPECT_THROW(assemble("a:\nnop\na:\nnop\n", 0), AsmError);
}

TEST(Assembler, UnknownLabelFails) {
  EXPECT_THROW(assemble("beq r0, r0, nowhere\n", 0), AsmError);
}

TEST(Assembler, ImmediateRangeEnforced) {
  EXPECT_THROW(assemble("addi r1, r0, 300000\n", 0), AsmError);
  EXPECT_THROW(assemble("addi r1, r0, -200000\n", 0), AsmError);
  // 18-bit unsigned patterns are allowed (LUI usage).
  EXPECT_NO_THROW(assemble("lui r1, 0x3ffff\n", 0));
}

TEST(Assembler, MisalignedBaseFails) {
  EXPECT_THROW(assemble("nop\n", 2), AsmError);
}

TEST(Assembler, WrongOperandCountFails) {
  EXPECT_THROW(assemble("add r1, r2\n", 0), AsmError);
  EXPECT_THROW(assemble("jalr r0\n", 0), AsmError);
}

TEST(Assembler, ErrorMessagesCarryLineNumbers) {
  try {
    assemble("nop\nnop\nbadop r1, r2, r3\n", 0);
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Assembler, ProgramLabelLookupThrowsOnMissing) {
  const Program p = assemble("nop\n", 0);
  EXPECT_THROW(static_cast<void>(p.label("missing")), AsmError);
}

}  // namespace
}  // namespace myri::lanai
