// Section 5.2: the Table 1 fault-injection experiments repeated under
// FTGM. The paper reports that the watchdog detected all interface hangs
// and that recovery succeeded in all but 5 of 286 hangs.
#include <cstdio>

#include "bench/common.hpp"
#include "faultinject/campaign.hpp"

using namespace myri;

int main() {
  bench::print_header(
      "Section 5.2 -- FTGM fault-injection: detection & recovery");

  fi::CampaignConfig cc;
  cc.runs = bench::scaled(1000);
  cc.mode = mcp::McpMode::kFtgm;
  cc.seed = 2003;  // same seed as Table 1: same flips, now under FTGM
  fi::Campaign camp(cc);
  const fi::CampaignSummary s = camp.run([&](int i, const fi::RunRecord&) {
    if ((i + 1) % 100 == 0) {
      std::fprintf(stderr, "  ... %d/%d runs\n", i + 1, cc.runs);
    }
  });

  std::printf("%-40s %10d\n", "Injection runs", s.runs);
  std::printf("%-40s %10d\n", "Interface hangs induced", s.hangs);
  std::printf("%-40s %10d\n", "Hangs detected by the watchdog",
              s.hangs_detected);
  std::printf("%-40s %10d\n", "Hangs fully recovered (exactly-once)",
              s.hangs_recovered);
  std::printf("\nDetection rate: %.1f%%   Recovery rate: %.1f%%\n",
              s.hangs ? 100.0 * s.hangs_detected / s.hangs : 0.0,
              s.hangs ? 100.0 * s.hangs_recovered / s.hangs : 0.0);
  std::printf("Paper: all 286 hangs detected; 281/286 (98.3%%) recovered.\n");

  std::printf("\nOutcome distribution under FTGM (for reference):\n");
  for (int i = 0; i < fi::kNumOutcomes; ++i) {
    const auto o = static_cast<fi::Outcome>(i);
    std::printf("  %-24s %6.1f%%\n", to_string(o), s.pct(o));
  }
  return 0;
}
