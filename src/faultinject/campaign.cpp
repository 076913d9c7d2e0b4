#include "faultinject/campaign.hpp"

#include "faultinject/workload.hpp"
#include "mcp/sram_layout.hpp"
#include "sim/rng.hpp"

namespace myri::fi {

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kLocalHang: return "Local Interface Hung";
    case Outcome::kCorrupted: return "Messages Corrupted";
    case Outcome::kRemoteHang: return "Remote Interface Hung";
    case Outcome::kMcpRestart: return "MCP Restart";
    case Outcome::kHostCrash: return "Host Computer Crash";
    case Outcome::kOther: return "Other Errors";
    case Outcome::kNoImpact: return "No Impact";
  }
  return "?";
}

RunRecord Campaign::run_one(std::uint64_t run_seed) {
  sim::Rng rng(run_seed);
  const bool ftgm = cfg_.mode == mcp::McpMode::kFtgm;

  gm::ClusterConfig cc;
  cc.nodes = 2;
  cc.mode = cfg_.mode;
  cc.timing = cfg_.timing;
  cc.host_mem_bytes = 4u << 20;
  cc.seed = run_seed ^ 0x5eedu;
  gm::Cluster cluster(cc);

  gm::Port& tx = cluster.node(0).open_port(2);
  gm::Port& rx = cluster.node(1).open_port(2);

  StreamWorkload::Config wc;
  wc.total_msgs = cfg_.msgs;
  wc.msg_len = cfg_.msg_len;
  StreamWorkload wl(tx, rx, wc);

  // Let the L_timer control path open the ports, then start traffic.
  cluster.run_for(sim::usec(900));
  wl.start();

  // Pick the flip inside send_chunk and a moment while traffic is active.
  auto& victim = cluster.node(0);
  RunRecord rec;
  if (cfg_.target == InjectTarget::kSendChunkCode) {
    rec.flip_addr = victim.mcp().code_base() +
                    static_cast<std::uint32_t>(
                        rng.below(victim.mcp().code_size()));
  } else {
    // Data segment: the send descriptor, TX descriptor and the payload
    // staging slots — everything the send path reads that is not code.
    constexpr std::uint32_t lo = mcp::SramLayout::kSendDescAddr;
    constexpr std::uint32_t hi =
        mcp::SramLayout::kSendStagingBase +
        mcp::SramLayout::kNumSendSlots * mcp::SramLayout::kStagingSlotSize;
    rec.flip_addr = lo + static_cast<std::uint32_t>(rng.below(hi - lo));
  }
  rec.flip_bit = static_cast<unsigned>(rng.below(8));
  const std::uint32_t word_addr = rec.flip_addr & ~3u;
  rec.orig_word = victim.nic().sram().read32(word_addr);
  rec.word_bit = (rec.flip_addr & 3u) * 8u + rec.flip_bit;
  const sim::Time inject_in = sim::usec(10 + rng.below(150));
  cluster.eq().post_after(inject_in, [&] {
    victim.mcp().catch_up();  // ticks before the flip see old SRAM
    victim.nic().sram().flip_bit(rec.flip_addr, rec.flip_bit);
    if (victim.has_ftd()) victim.ftd().mark_fault_injected();
  });

  // Observe: chunked so completed runs exit early.
  const sim::Time window = ftgm ? cfg_.observe_ftgm : cfg_.observe_gm;
  const sim::Time chunk = ftgm ? sim::msec(50) : sim::msec(1);
  const sim::Time deadline = cluster.eq().now() + window;
  while (cluster.eq().now() < deadline) {
    cluster.run_for(chunk);
    if (wl.complete() && tx.send_tokens_free() == 16 &&
        !victim.mcp().hung()) {
      break;
    }
  }

  // ---- classify (paper Table 1 categories) ----
  const auto& s0 = victim.mcp().stats();
  const auto& s1 = cluster.node(1).mcp().stats();
  rec.hang = s0.hangs > 0;
  if (victim.crashed() || cluster.node(1).crashed()) {
    rec.outcome = Outcome::kHostCrash;
  } else if (s1.hangs > 0) {
    rec.outcome = Outcome::kRemoteHang;
  } else if (rec.hang) {
    rec.outcome = Outcome::kLocalHang;
  } else if (s0.self_restarts > 0) {
    rec.outcome = Outcome::kMcpRestart;
  } else if (wl.corrupted() > 0 || wl.duplicates() > 0 ||
             s1.crc_drops > 0 || s1.foreign_drops > 0 ||
             s1.ooo_drops > 0 || s1.dup_drops > 0 ||
             s0.unmapped_dma_refusals > 0 ||
             victim.nic().stats().tx_errors > 0 ||
             cluster.topo().get_switch(0).stats().dead_routed > 0) {
    // Damage visible on the wire: garbled payloads/headers the receiver's
    // CRC or routing rejected, or malformed TX descriptors. The sender's
    // Go-Back-N may still mask it end-to-end, but the messages were
    // corrupted, which is what Table 1 counts.
    rec.outcome = Outcome::kCorrupted;
  } else if (!wl.complete()) {
    rec.outcome = Outcome::kOther;
  } else {
    rec.outcome = Outcome::kNoImpact;
  }

  if (ftgm) {
    rec.detected = victim.driver().fatal_interrupts() > 0;
    rec.recovered = rec.hang && wl.complete() && wl.duplicates() == 0 &&
                    !victim.mcp().hung();
  }
  return rec;
}

CampaignSummary Campaign::run(const std::function<void(int)>& progress) {
  CampaignSummary sum;
  sim::Rng seeder(cfg_.seed);
  for (int i = 0; i < cfg_.runs; ++i) {
    const RunRecord rec = run_one(seeder.next_u64());
    ++sum.runs;
    ++sum.counts[static_cast<int>(rec.outcome)];
    if (rec.hang) {
      ++sum.hangs;
      if (rec.detected) ++sum.hangs_detected;
      if (rec.recovered) ++sum.hangs_recovered;
    }
    if (progress) progress(i);
  }
  return sum;
}

}  // namespace myri::fi
