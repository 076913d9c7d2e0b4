// cluster_sim: command-line scenario runner for the simulated platform.
//
//   cluster_sim [--nodes N] [--fabric single|line|ring|fat-tree]
//               [--radix R] [--mode gm|ftgm] [--msgs M] [--len BYTES]
//               [--drop P] [--corrupt P] [--hang-at USEC[,USEC...]]
//               [--victim NODE] [--kill-cable-at USEC] [--cable IDX]
//               [--join-at USEC] [--drain-at USEC] [--drain-node NODE]
//               [--replace-at USEC] [--replace-node NODE]
//               [--seed S] [--horizon-ms MS] [--trace]
//               [--soak VIRT_SECONDS] [--soak-retain-caches]
//
// Translates the flags into an fi::Scenario (event times are µs after the
// workload starts, i.e. Scenario::kWarmup + USEC) and runs it through
// fi::ScenarioRunner: the verified neighbour-ring workload under the
// continuous invariant oracle. Prints a full report — per-stream
// delivery/exactly-once status, MCP and NIC counters, recovery and
// membership statistics, the oracle's verdict and the run digest (equal
// to scenario_replay's for the same Scenario). Exit 0 only when every
// stream completed and no invariant was violated; 1 otherwise; 2 on bad
// input. The Swiss-army knife for exploring the system without writing
// code.
//
// Node count is bounded only by the fabric preset's capacity: a 64-node
// run wants --fabric fat-tree (16 leaves + 4 spines at the default radix).
// --kill-cable-at downs a trunk cable mid-run and lets the mapper-driven
// FailoverManager reroute around it.
//
// Membership events exercise the elastic roster under traffic:
// --join-at hot-adds a node at a free switch port (and verifies it with a
// short stream from node 0), --drain-at drains a node until it retires,
// --replace-at swaps a node for a spare at the same port and NodeId
// (combine with --hang-at/--victim to replace a genuinely dead card; its
// two ring streams are abandoned by design).
//
// --soak N runs the long-horizon soak instead: N virtual seconds of
// continuous background fault arrival (all kinds plus membership churn)
// on a 64-node fat-tree by default, with every oracle invariant and the
// drift probes checked each 500 ms window. On failure the schedule is
// shrunk (window-granular ddmin) and written as repro_soak_<seed>.json
// for bit-identical replay through scenario_replay.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "faultinject/scenario.hpp"
#include "faultinject/shrinker.hpp"
#include "faultinject/soak.hpp"
#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "mapper/failover.hpp"

using namespace myri;

namespace {

struct Options {
  fi::Scenario sc;  // topology, workload, rates, seed, horizon
  std::vector<double> hang_at_us;
  int victim = 0;
  double kill_cable_at_us = -1;  // <0 = no cable kill
  int cable = 0;                 // trunk-cable index to kill
  double join_at_us = -1;        // <0 = no hot-add
  double drain_at_us = -1;       // <0 = no drain
  int drain_node = 1;
  double replace_at_us = -1;     // <0 = no spare swap
  int replace_node = 1;
  bool trace = false;
  double soak_s = 0;      // >0 = soak mode, virtual seconds
  bool soak_retain_caches = false;
  // Soak mode has its own topology defaults (64-node fat-tree, radix
  // 10); explicit flags still win.
  bool nodes_set = false, fabric_set = false, radix_set = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "%s\n", msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.sc.seed = 42;
  o.sc.msgs = 50;
  o.sc.msg_len = 2048;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      usage_error(std::string("missing value for ") + argv[i]);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--nodes") { o.sc.nodes = std::atoi(next(i)); o.nodes_set = true; }
    else if (a == "--soak") o.soak_s = std::atof(next(i));
    else if (a == "--soak-retain-caches") o.soak_retain_caches = true;
    else if (a == "--fabric") {
      const std::string v = next(i);
      const auto p = net::parse_fabric_preset(v);
      if (!p) {
        usage_error("--fabric must be single|line|ring|fat-tree, got " + v);
      }
      o.sc.fabric = *p;
      o.fabric_set = true;
    } else if (a == "--radix") {
      const int r = std::atoi(next(i));
      if (r < 2 || r > 255) usage_error("--radix must be 2..255");
      o.sc.radix = static_cast<std::uint8_t>(r);
      o.radix_set = true;
    }
    else if (a == "--kill-cable-at") o.kill_cable_at_us = std::atof(next(i));
    else if (a == "--cable") o.cable = std::atoi(next(i));
    else if (a == "--join-at") o.join_at_us = std::atof(next(i));
    else if (a == "--drain-at") o.drain_at_us = std::atof(next(i));
    else if (a == "--drain-node") o.drain_node = std::atoi(next(i));
    else if (a == "--replace-at") o.replace_at_us = std::atof(next(i));
    else if (a == "--replace-node") o.replace_node = std::atoi(next(i));
    else if (a == "--mode") {
      const std::string v = next(i);
      if (v != "gm" && v != "ftgm") {
        usage_error("--mode must be gm|ftgm, got " + v);
      }
      o.sc.mode = v == "gm" ? mcp::McpMode::kGm : mcp::McpMode::kFtgm;
    } else if (a == "--msgs") o.sc.msgs = std::atoi(next(i));
    else if (a == "--len") {
      o.sc.msg_len = static_cast<std::uint32_t>(std::atoi(next(i)));
    }
    else if (a == "--drop") o.sc.drop = std::atof(next(i));
    else if (a == "--corrupt") o.sc.corrupt = std::atof(next(i));
    else if (a == "--victim") o.victim = std::atoi(next(i));
    else if (a == "--seed") o.sc.seed = std::strtoull(next(i), nullptr, 0);
    else if (a == "--horizon-ms") {
      o.sc.horizon = sim::usecf(std::atof(next(i)) * 1000.0);  // 0 = auto
    }
    else if (a == "--trace") o.trace = true;
    else if (a == "--hang-at") {
      std::string v = next(i);
      for (std::size_t p = 0; p < v.size();) {
        o.hang_at_us.push_back(std::atof(v.c_str() + p));
        const auto comma = v.find(',', p);
        if (comma == std::string::npos) break;
        p = comma + 1;
      }
    } else {
      usage_error("unknown option " + a);
    }
  }

  // The fault schedule. Same-time events fire in vector order: cable
  // kill, hangs, join, drain, replace.
  using K = fi::ScenarioEvent::Kind;
  auto add = [&o](double at_us, K kind, int node = 0) -> fi::ScenarioEvent& {
    fi::ScenarioEvent& ev = o.sc.events.emplace_back();
    ev.at = fi::Scenario::kWarmup + sim::usecf(at_us);
    ev.kind = kind;
    ev.node = node;
    return ev;
  };
  if (o.kill_cable_at_us >= 0) {
    add(o.kill_cable_at_us, K::kCableDown).cable = o.cable;
  }
  for (const double at : o.hang_at_us) add(at, K::kNicHang, o.victim);
  if (o.join_at_us >= 0) add(o.join_at_us, K::kNodeJoin);
  if (o.drain_at_us >= 0) add(o.drain_at_us, K::kNodeDrain, o.drain_node);
  if (o.replace_at_us >= 0) {
    add(o.replace_at_us, K::kNodeReplace, o.replace_node);
  }
  return o;
}

void validate_or_exit(const fi::Scenario& sc) {
  const std::string bad = sc.validate();
  if (!bad.empty()) usage_error("invalid scenario: " + bad);
}

int run_soak(const Options& o) {
  fi::SoakProfile sp;
  sp.seed = o.sc.seed;
  if (o.nodes_set) sp.nodes = o.sc.nodes;
  if (o.fabric_set) sp.fabric = o.sc.fabric;
  if (o.radix_set) sp.radix = o.sc.radix;
  sp.duration = sim::usecf(o.soak_s * 1e6);
  sp.retain_caches = o.soak_retain_caches;
  if (sp.duration < sim::sec(300)) {
    // Smoke-scale soak: tighten the arrival rates so a short run still
    // sees every fault kind (and several churn cycles).
    sp.hang_every = sim::sec(20);
    sp.cable_every = sim::sec(25);
    sp.cable_outage = sim::sec(3);
    sp.flip_every = sim::sec(30);
    sp.loss_every = sim::sec(15);
    sp.churn_every = sim::sec(12);
    sp.replace_every = sim::sec(30);
  }
  const fi::Scenario sc = fi::make_soak_scenario(sp);
  validate_or_exit(sc);
  std::printf("soak: %d nodes on %s fabric (radix %d), %.0f virtual s, "
              "%zu scheduled faults, %d msgs/stream every %.0f ms, "
              "check window %.0f ms, seed %llu%s\n",
              sc.nodes, net::to_string(sc.fabric), sc.radix, o.soak_s,
              sc.events.size(), sc.msgs,
              static_cast<double>(sc.send_gap) / 1e6,
              static_cast<double>(sc.check_window) / 1e6,
              static_cast<unsigned long long>(sc.seed),
              sc.retain_caches ? " [leak planted]" : "");
  const fi::RunReport rep = fi::ScenarioRunner::run(sc);
  std::printf("soak: %.1f virtual s run, %llu deliveries, %llu windows "
              "checked, %llu drift sweeps, %llu recoveries, %llu remaps, "
              "digest %llx\n",
              sim::to_sec(rep.end_time),
              static_cast<unsigned long long>(rep.deliveries),
              static_cast<unsigned long long>(rep.windows_checked),
              static_cast<unsigned long long>(rep.drift_checks),
              static_cast<unsigned long long>(rep.recoveries),
              static_cast<unsigned long long>(rep.remaps),
              static_cast<unsigned long long>(rep.digest));
  if (!rep.failed()) {
    std::printf("result: soak clean — every invariant held in every "
                "window\n");
    return 0;
  }
  std::printf("soak FAILED: %s at %.3f s (window %lld): %s\n",
              rep.failure_signature().c_str(), sim::to_sec(rep.violation_at),
              static_cast<long long>(rep.violation_window),
              rep.violation_detail.c_str());
  fi::Shrinker::Config scfg;
  scfg.max_attempts = 60;
  const fi::ShrinkResult sr = fi::Shrinker::shrink(sc, rep, scfg);
  const std::string path =
      "repro_soak_" + std::to_string(o.sc.seed) + ".json";
  if (fi::write_repro(path, sr.minimal, sr.report)) {
    std::printf("shrunk to %zu event(s) / %.1f virtual s in %d attempts; "
                "repro written to %s\n",
                sr.minimal.events.size(),
                sim::to_sec(sr.minimal.effective_horizon()), sr.attempts,
                path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
  }
  return 1;
}

void print_report(const Options& o, fi::ScenarioRunner& runner,
                  const fi::RunReport& rep) {
  const fi::Scenario& sc = o.sc;
  gm::Cluster& cluster = runner.cluster();
  std::printf("scenario: %d nodes on %s fabric (%zu switches, %zu trunks), "
              "%s, %d x %u B per stream, drop=%.2f corrupt=%.2f, %zu "
              "hang(s) on node %d\n",
              sc.nodes, net::to_string(sc.fabric),
              cluster.fabric().num_switches(),
              cluster.fabric().trunk_cables().size(),
              sc.mode == mcp::McpMode::kGm ? "GM" : "FTGM", sc.msgs,
              sc.msg_len, sc.drop, sc.corrupt, o.hang_at_us.size(), o.victim);
  std::printf("virtual time: %.3f s\n\n", sim::to_sec(rep.end_time));
  if (o.kill_cable_at_us >= 0) {
    const mapper::FailoverManager& fm = *runner.failover();
    const auto& remap_ns =
        cluster.metrics().histogram("fabric.failover.remap_ns");
    std::printf("failover: cable %d down at %.0f us -> %llu remap(s), "
                "%llu failed, remap latency max %.3f ms\n\n",
                o.cable, o.kill_cable_at_us,
                static_cast<unsigned long long>(fm.remaps()),
                static_cast<unsigned long long>(fm.failed_remaps()),
                static_cast<double>(remap_ns.max()) / 1e6);
  }
  if (o.join_at_us >= 0 || o.drain_at_us >= 0 || o.replace_at_us >= 0) {
    const auto cval = [&](const char* name) -> unsigned long long {
      const auto* c = cluster.metrics().find_counter(name);
      return c ? static_cast<unsigned long long>(c->value()) : 0;
    };
    std::printf("membership: epoch %u, %zu member(s), joins=%llu "
                "drains=%llu replaces=%llu\n\n",
                cluster.roster().epoch(), cluster.roster().size(),
                cval("mapper.joins"), cval("mapper.drains"),
                cval("mapper.replaces"));
  }

  const auto& streams = runner.streams();
  for (std::size_t i = 0; i < streams.size(); ++i) {
    fi::StreamWorkload& w = *streams[i];
    const auto n = static_cast<std::size_t>(sc.nodes);
    const std::string label =
        i < n ? "stream " + std::to_string(i) + "->" +
                    std::to_string((i + 1) % n)
              : "verify 0->" + w.receiver().node().name();
    std::printf("%s: %3d/%3d delivered, %d dup, %d corrupt, %d missing %s\n",
                label.c_str(), w.received(), w.config().total_msgs,
                w.duplicates(), w.corrupted(), w.missing(),
                w.complete()    ? ""
                : w.abandoned() ? "  [abandoned to replace]"
                                : "  <-- BAD");
  }
  std::printf("\nper-node counters:\n");
  for (int i = 0; i < cluster.size(); ++i) {
    gm::Node& n = cluster.node(i);
    const auto& s = n.mcp().stats();
    const bool retired = !cluster.roster().is_member(n.id());
    std::printf("  %s: frags=%llu retx=%llu crc_drops=%llu dup_drops=%llu "
                "hangs=%llu%s%s",
                n.name().c_str(),
                static_cast<unsigned long long>(s.fragments_tx),
                static_cast<unsigned long long>(s.retransmissions),
                static_cast<unsigned long long>(s.crc_drops),
                static_cast<unsigned long long>(s.dup_drops),
                static_cast<unsigned long long>(s.hangs),
                retired ? "  [retired]" : "",
                n.mcp().hung() ? "  [STILL HUNG]\n" : "\n");
    if (n.has_ftd()) {
      const auto& f = n.ftd().stats();
      if (f.wakeups > 0) {
        std::printf("         ftd: %llu wakeups, %llu recoveries, %llu false "
                    "alarms\n",
                    static_cast<unsigned long long>(f.wakeups),
                    static_cast<unsigned long long>(f.recoveries),
                    static_cast<unsigned long long>(f.false_alarms));
      }
    }
  }
  if (rep.oracle_ok) {
    std::printf("\noracle: ok (%llu invariant sweeps)\n",
                static_cast<unsigned long long>(rep.oracle_checks));
  } else {
    std::printf("\noracle: VIOLATION '%s' at %.3f us: %s\n",
                rep.violation.c_str(), sim::to_usec(rep.violation_at),
                rep.violation_detail.c_str());
  }
  std::printf("digest: 0x%016llx\n",
              static_cast<unsigned long long>(rep.digest));
  std::printf("result: %s\n", !rep.failed() ? "exactly-once delivery everywhere"
                              : rep.delivered ? "INVARIANT VIOLATED"
                                              : "DELIVERY INCOMPLETE");
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.soak_s > 0) return run_soak(o);
  validate_or_exit(o.sc);

  sim::Trace trace;  // outlives the runner's cluster, which points at it
  fi::ScenarioRunner runner(o.sc, {});
  if (o.kill_cable_at_us >= 0) {
    const std::size_t trunks = runner.cluster().fabric().trunk_cables().size();
    if (trunks == 0) {
      usage_error("--kill-cable-at needs a multi-switch --fabric");
    }
    if (o.cable < 0 || static_cast<std::size_t>(o.cable) >= trunks) {
      usage_error("--cable must be 0.." + std::to_string(trunks - 1));
    }
  }
  if (o.trace) {
    trace.enable(sim::TraceCat::kFt, &std::cout);
    trace.enable(sim::TraceCat::kMcp, &std::cout);
    runner.cluster().set_trace(&trace);
  }
  const fi::RunReport rep = runner.run();
  print_report(o, runner, rep);
  return rep.failed() ? 1 : 0;
}
