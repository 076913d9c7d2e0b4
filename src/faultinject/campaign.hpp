// Fault-injection campaign (paper Section 2, Table 1; Section 5.2).
//
// Reproduces the SWIFI methodology: for each run, a fresh two-node cluster
// carries verified traffic while one random bit of the send_chunk code
// segment in the sender's LANai SRAM is flipped. The run's outcome is then
// classified into the paper's failure categories. In FTGM mode the campaign
// additionally records whether the watchdog detected the hang and whether
// recovery restored exactly-once delivery (Section 5.2's effectiveness
// result: all hangs detected, 281 of 286 recovered).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "gm/cluster.hpp"
#include "mcp/types.hpp"

namespace myri::fi {

enum class Outcome : int {
  kLocalHang = 0,
  kCorrupted = 1,
  kRemoteHang = 2,
  kMcpRestart = 3,
  kHostCrash = 4,
  kOther = 5,
  kNoImpact = 6,
};
inline constexpr int kNumOutcomes = 7;

const char* to_string(Outcome o);

/// What SRAM region the campaign flips bits in. The paper injects into the
/// send_chunk code section; it notes "these results could be different if
/// fault injection is carried out on some other section" — the data-segment
/// target explores that.
enum class InjectTarget {
  kSendChunkCode,  // instruction encodings (the paper's experiment)
  kDataSegment,    // descriptors + staging buffers
};

struct CampaignConfig {
  int runs = 1000;
  std::uint64_t seed = 2003;
  mcp::McpMode mode = mcp::McpMode::kGm;
  InjectTarget target = InjectTarget::kSendChunkCode;
  int msgs = 30;
  std::uint32_t msg_len = 2048;
  host::TimingConfig timing{};
  /// Observation window after injection before classification.
  sim::Time observe_gm = sim::msec(10);
  sim::Time observe_ftgm = sim::sec(5);
};

struct RunRecord {
  Outcome outcome = Outcome::kNoImpact;
  bool hang = false;
  bool detected = false;    // FTGM: watchdog FATAL interrupt fired
  bool recovered = false;   // FTGM: exactly-once delivery restored
  std::uint32_t flip_addr = 0;
  unsigned flip_bit = 0;       // bit within the byte at flip_addr
  std::uint32_t orig_word = 0; // instruction word before the flip
  unsigned word_bit = 0;       // bit index within that word (0..31)
};

struct CampaignSummary {
  int runs = 0;
  std::array<int, kNumOutcomes> counts{};
  int hangs = 0;
  int hangs_detected = 0;
  int hangs_recovered = 0;

  [[nodiscard]] double pct(Outcome o) const {
    return runs == 0 ? 0.0
                     : 100.0 * counts[static_cast<int>(o)] / runs;
  }
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig cfg) : cfg_(cfg) {}

  /// Run one injection experiment with its own seed.
  RunRecord run_one(std::uint64_t run_seed);

  /// Full campaign; `progress(i, record)` fires after run i.
  CampaignSummary run(
      const std::function<void(int, const RunRecord&)>& progress = nullptr);

 private:
  CampaignConfig cfg_;
};

}  // namespace myri::fi
