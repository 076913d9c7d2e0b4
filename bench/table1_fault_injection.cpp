// Table 1: outcome distribution of 1000 transient-fault injections into
// the send_chunk section of the MCP code segment, on baseline GM.
// Compared against the paper's measurements and those of Stott/Iyer et al.
// (FTCS'97), which the paper reproduces in the same table.
#include <cstdio>

#include "bench/common.hpp"
#include "faultinject/campaign.hpp"

using namespace myri;

int main() {
  bench::print_header(
      "Table 1 -- Fault injection on the Myrinet system (GM baseline)");

  fi::CampaignConfig cc;
  cc.runs = bench::scaled(1000);
  cc.mode = mcp::McpMode::kGm;
  cc.seed = 2003;
  fi::Campaign camp(cc);
  const fi::CampaignSummary s = camp.run([&](int i, const fi::RunRecord&) {
    if ((i + 1) % 200 == 0) {
      std::fprintf(stderr, "  ... %d/%d runs\n", i + 1, cc.runs);
    }
  });

  struct PaperRow {
    fi::Outcome o;
    double ours_paper;   // paper column "Our work"
    double iyer_paper;   // paper column "Iyer et al."
  };
  const PaperRow rows[] = {
      {fi::Outcome::kLocalHang, 28.6, 23.4},
      {fi::Outcome::kCorrupted, 18.3, 12.7},
      {fi::Outcome::kRemoteHang, 0.0, 1.2},
      {fi::Outcome::kMcpRestart, 0.0, 3.1},
      {fi::Outcome::kHostCrash, 0.6, 0.4},
      {fi::Outcome::kOther, 1.2, 1.1},
      {fi::Outcome::kNoImpact, 51.3, 58.1},
  };

  std::printf("%-24s %12s %12s %12s\n", "Failure Category", "This repro",
              "Paper", "Iyer et al.");
  for (const auto& r : rows) {
    std::printf("%-24s %11.1f%% %11.1f%% %11.1f%%\n", to_string(r.o),
                s.pct(r.o), r.ours_paper, r.iyer_paper);
  }
  std::printf("\n(%d runs; one random bit flip in send_chunk per run while "
              "traffic is active)\n", s.runs);
  std::printf("Shape check: interface hangs + corrupted messages dominate "
              "the failures;\nno-impact flips (untaken paths, dead bits) are "
              "roughly half of all runs.\n");
  return 0;
}
