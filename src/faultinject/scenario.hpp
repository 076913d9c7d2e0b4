// Declarative, seed-deterministic chaos schedules.
//
// A Scenario is a complete description of one fault experiment: topology
// (any gm::Cluster / net::FabricBuilder preset), a verified neighbour-ring
// workload, baseline link-error rates, and a list of timed fault events
// (NIC hang, trunk-cable kill/restore, link-fault window, SRAM bit flip)
// applied at exact sim::Time points. The same Scenario value always
// produces the same run, bit for bit — the outcome digest makes that
// checkable — which is what lets the Shrinker minimize failing schedules
// and scenario_replay re-run a JSON repro artifact identically.
//
// The paper's experiments (Section 5.2 hang masking; PR 2's cable
// failover) are single fixed fault shapes; Scenario composes them: every
// hand-written chaos/property sweep is now a schedule, and randomized
// schedules explore the shapes nobody wrote by hand.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mcp/types.hpp"
#include "net/fabric.hpp"
#include "sim/time.hpp"

namespace myri::gm {
class Cluster;
class Node;
class Port;
}  // namespace myri::gm
namespace myri::mapper {
class FailoverManager;
}  // namespace myri::mapper

namespace myri::fi {

class Oracle;
class StreamWorkload;

/// One timed fault in a schedule. Which fields matter depends on `kind`;
/// unused fields stay at their defaults (and serialize/compare as such).
struct ScenarioEvent {
  enum class Kind : int {
    kNicHang = 0,      // wedge node `node`'s network processor
    kCableDown = 1,    // kill trunk cable index `cable` (fabric order)
    kCableUp = 2,      // restore trunk cable index `cable`
    kFaultWindow = 3,  // drop/corrupt rates on every link for `duration`
    kSramFlip = 4,     // flip `bit` of data-segment byte `offset`, node
    kDoubleDeliver = 5,  // test-only: report stream `node`'s next
                         // delivery twice to the oracle (breaks
                         // exactly-once on purpose; never generated
                         // randomly — exists to prove the oracle and the
                         // shrink/replay loop catch a real violation)
    // ---- membership events (gm::Roster deltas under traffic) ----
    kNodeJoin = 6,     // hot-add a node at a free switch port; the id is
                       // the next unused one (`node` is ignored). A
                       // verification stream into the joiner starts
                       // shortly after the join.
    kNodeDrain = 7,    // drain node `node`: new sends refused, in-flight
                       // streams finish exactly-once, then it retires
    kNodeReplace = 8,  // swap node `node` for a spare at the same switch
                       // port and NodeId; its ring streams are abandoned
                       // (the dead card takes them with it) and a
                       // verification stream proves the spare serves
                       // traffic
    kTokenLeak = 9,    // test-only: conjure send tokens on stream
                       // `node`'s sender port past its allotment (breaks
                       // token-conservation on purpose; never generated
                       // randomly — exists to prove windowed oracle
                       // checks attribute a mid-run violation to the
                       // window it happened in)
  };

  sim::Time at = 0;  // absolute virtual time (workload starts at kWarmup)
  Kind kind = Kind::kNicHang;
  int node = 0;               // kNicHang/kSramFlip victim; stream index
  int cable = 0;              // kCableDown/kCableUp trunk index
  double drop = 0.0;          // kFaultWindow rates
  double corrupt = 0.0;
  sim::Time duration = 0;     // kFaultWindow length
  std::uint32_t offset = 0;   // kSramFlip byte offset into the data segment
  unsigned bit = 0;           // kSramFlip bit 0..7

  friend bool operator==(const ScenarioEvent&, const ScenarioEvent&) = default;
};

[[nodiscard]] const char* to_string(ScenarioEvent::Kind k);

/// A full experiment description. Everything the run depends on lives
/// here (plus the code itself): serializing {seed, topology, schedule}
/// to JSON and re-running reproduces the run exactly.
struct Scenario {
  /// Workloads start (and event times are usually at/after) this point:
  /// the cluster needs ~900 us of L_timer control traffic to open ports.
  static constexpr sim::Time kWarmup = sim::usec(900);

  std::uint64_t seed = 1;  // cluster RNG seed (link faults, jitter)
  // ---- topology ----
  int nodes = 2;
  net::FabricPreset fabric = net::FabricPreset::kSingleSwitch;
  std::uint8_t radix = 8;
  mcp::McpMode mode = mcp::McpMode::kFtgm;
  // ---- workload: node i streams msgs x msg_len to node (i+1) % nodes ----
  int msgs = 25;
  std::uint32_t msg_len = 1800;
  /// Minimum virtual time between message posts per stream. 0 = legacy
  /// max-rate (post as fast as tokens allow). Soak runs pace their
  /// streams so the workload spans hours instead of finishing in ms.
  sim::Time send_gap = 0;
  // ---- baseline link-error rates for the whole run ----
  double drop = 0.0;
  double corrupt = 0.0;
  double misroute = 0.0;
  /// 0 = derive from schedule (hangs cost ~4 s of recovery each, ...).
  sim::Time horizon = 0;
  /// Windowed invariant checking: when > 0 the runner sweeps every
  /// Oracle invariant (plus the drift probes) at each multiple of this
  /// interval past kWarmup, snapshotting the incremental digest per
  /// window so a violation localizes to the window it happened in.
  /// 0 = legacy behavior (delivery-driven checks + final_check only).
  sim::Time check_window = 0;
  /// Test-only leak plant: disable the mapper's retired-node cache
  /// eviction so `last_attach_` / `last_route_` grow with every retire.
  /// Exists to prove the drift oracle catches real unbounded growth.
  bool retain_caches = false;
  std::vector<ScenarioEvent> events;

  friend bool operator==(const Scenario&, const Scenario&) = default;

  /// Per-fault recovery allowance used both to derive the default horizon
  /// and to decide which fault victims count as "expected up at horizon"
  /// (detect + confirm + reload + replay is ~1.7-4 s).
  static constexpr sim::Time kRecoveryAllowance = sim::sec(4);

  /// The horizon the runner actually uses: `horizon` when set, otherwise
  /// derived from workload size and the schedule (each hang/flip adds
  /// kRecoveryAllowance).
  [[nodiscard]] sim::Time effective_horizon() const;

  /// Structural validity: empty string when the scenario is runnable,
  /// else a description of the first problem. Replays the schedule as a
  /// membership timeline in event-time order, so events may target nodes
  /// joined earlier in the schedule, double-drains and drains/replaces of
  /// node 0 are rejected, and every join needs a free switch port on the
  /// as-built fabric *at its fire time* — a drain hands its port back
  /// kRecoveryAllowance after it starts (matching the runner's retire +
  /// Fabric::release_port), so sustained join/drain churn validates even
  /// when the fabric only ever has one port spare.
  [[nodiscard]] std::string validate() const;

  /// Nodes expected to be up (recovered, mappable) at effective_horizon(),
  /// replayed as a membership *timeline* in event-time order:
  ///   - hang/flip victims that cannot be back in time are excused (in
  ///     kGm mode there is no watchdog/FTD, so any victim may stay down),
  ///   - a drained node is expected RETIRED (absent) when the drain has
  ///     kRecoveryAllowance to finish before the horizon,
  ///   - a replaced node is expected up again (the spare) when the swap
  ///     lands in time — even if an earlier hang had excused it,
  ///   - joined nodes (ids nodes, nodes+1, ... in event order) are
  ///     expected up when the join lands in time.
  /// The runner feeds this to the oracle's roster-aware
  /// route-convergence invariant.
  [[nodiscard]] std::vector<net::NodeId> expected_up_at_horizon() const;

  /// Deterministic random scenario: topology, rates and schedule are all
  /// derived from `rand_seed`. Never emits the test-only kDoubleDeliver
  /// kind nor the membership kinds (join/drain/replace live in pinned
  /// schedules so existing seed digests stay stable); hangs are spaced
  /// past the ~1.7 s recovery; cable events only appear on redundant
  /// fabrics (ring, fat-tree) where the mapper can route around them.
  [[nodiscard]] static Scenario random(std::uint64_t rand_seed);

  /// {seed, topology, schedule} JSON (deterministic field order).
  [[nodiscard]] std::string to_json() const;

  /// Parse to_json() output (also accepts insignificant whitespace).
  /// nullopt on malformed input; `err` (if non-null) says what broke.
  [[nodiscard]] static std::optional<Scenario> from_json(
      const std::string& text, std::string* err = nullptr);
};

/// Per-stream outcome (stream i = node i -> node (i+1) % nodes).
struct StreamOutcome {
  int received = 0;
  int duplicates = 0;
  int corrupted = 0;
  int missing = 0;
  bool complete = false;
};

/// Everything a run reports. `digest` is a stable FNV-1a hash of the
/// delivery log (stream, msg, time of every delivery), the oracle's
/// violation list and the end-of-run counters: two runs of the same
/// Scenario must produce equal digests, and a schedule "fails the same
/// way" exactly when digests match.
struct RunReport {
  bool delivered = false;    // every stream complete, exactly-once
  bool oracle_ok = true;     // no invariant violation mid-run
  std::string violation;     // first violated invariant (empty if none)
  std::string violation_detail;
  sim::Time violation_at = 0;
  std::uint64_t digest = 0;
  std::uint64_t deliveries = 0;   // delivery-log length
  std::uint64_t oracle_checks = 0;
  std::uint64_t recoveries = 0;   // FTD recoveries, cluster-wide
  std::uint64_t remaps = 0;       // failover remaps (multi-switch only)
  sim::Time end_time = 0;
  std::uint64_t events_executed = 0;  // sim events fired over the run
  std::vector<StreamOutcome> streams;
  // ---- windowed-mode extras (check_window > 0; zero/empty otherwise) ----
  std::uint64_t windows_checked = 0;  // periodic sweeps that ran
  std::uint64_t drift_checks = 0;     // Oracle::drift_checks_run()
  /// Window index of the first violation: (violation_at - kWarmup) /
  /// check_window. -1 when the run passed or ran without windowing.
  std::int64_t violation_window = -1;
  /// Incremental digest snapshot taken at each window boundary. The
  /// prefix up to any window is a pure function of the run prefix, so
  /// two runs diverge exactly at the first window whose snapshots differ.
  std::vector<std::uint64_t> window_digests;

  [[nodiscard]] bool failed() const { return !delivered || !oracle_ok; }
  /// Stable failure identity for the shrinker: the violated invariant, or
  /// incomplete delivery when the oracle saw nothing wrong.
  [[nodiscard]] std::string failure_signature() const {
    if (!oracle_ok) return violation;
    return delivered ? std::string() : std::string("incomplete-delivery");
  }
};

/// One scenario run as an object: construct, inspect, run.
///
/// The constructor does all the set-up and advances no virtual time. It
/// validates the scenario (std::invalid_argument when validate() objects),
/// builds the cluster (plus a FailoverManager on fabrics with trunk
/// cables), opens the ring ports and streams, wires the oracle to them and
/// schedules the fault events, drift probes and window ticks. A front end
/// may then decorate the run through the accessors (set a trace on
/// cluster()) before run() executes it; the accessors stay valid after
/// run(), so the front end can print the cluster's counters as well.
class ScenarioRunner {
 public:
  struct Options {
    /// Oracle sampling throttle: invariants are re-checked at the first
    /// event boundary at least this long after the previous check (plus
    /// at every delivery, unthrottled).
    sim::Time check_gap = sim::usec(200);
  };

  ScenarioRunner(const Scenario& s, const Options& opt);
  ~ScenarioRunner();
  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Warm up, start the ring, run until every stream is done and every
  /// scheduled event has fired (or the horizon), drain, and report.
  /// Call once.
  [[nodiscard]] RunReport run();

  [[nodiscard]] gm::Cluster& cluster() noexcept { return *cluster_; }
  /// Null on single-switch fabrics (no trunk cable to route around).
  [[nodiscard]] mapper::FailoverManager* failover() noexcept {
    return fm_.get();
  }
  /// Ring streams (stream i = node i -> node (i+1) % nodes), then the
  /// membership verification streams in the order they started.
  [[nodiscard]] const std::vector<std::unique_ptr<StreamWorkload>>& streams()
      const noexcept {
    return wls_;
  }

  /// Build the cluster, apply the schedule, run to completion or horizon,
  /// and report. Deterministic for equal (scenario, opt).
  [[nodiscard]] static RunReport run(const Scenario& s, const Options& opt) {
    return ScenarioRunner(s, opt).run();
  }
  [[nodiscard]] static RunReport run(const Scenario& s) {
    return run(s, Options{});
  }

 private:
  void schedule(const ScenarioEvent& ev);
  void add_drift_probes();
  void window_tick();
  void watch(std::size_t stream);
  void on_delivery(std::size_t stream, int msg);
  void start_membership_stream(gm::Node& card);
  /// No NIC is wedged and no FTD is mid-recovery.
  [[nodiscard]] bool nics_quiet();
  [[nodiscard]] RunReport report();

  Scenario s_;
  sim::Time horizon_ = 0;
  std::unique_ptr<gm::Cluster> cluster_;
  std::unique_ptr<mapper::FailoverManager> fm_;
  std::vector<std::unique_ptr<StreamWorkload>> wls_;
  std::unique_ptr<Oracle> oracle_;
  std::vector<bool> dup_next_;  // kDoubleDeliver armed, by stream
  // Sender ports 4..7 on node 0, used round-robin by membership streams.
  std::array<gm::Port*, 4> membership_tx_{};
  int membership_streams_ = 0;
  std::uint64_t digest_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t windows_checked_ = 0;
  std::vector<std::uint64_t> window_digests_;
};

/// Repro artifact: scenario plus the failure it reproduces, as JSON.
/// Scenario::from_json reads the artifact back (the "expect" block is
/// ignored there); parse_repro_expect extracts the recorded outcome so
/// scenario_replay can verify the re-run matches bit for bit.
[[nodiscard]] std::string repro_json(const Scenario& s, const RunReport& r);
/// Write repro_json to `path`; false on I/O error.
bool write_repro(const std::string& path, const Scenario& s,
                 const RunReport& r);

/// The "expect" block of a repro artifact.
struct ReproExpect {
  bool failed = false;
  std::string signature;       // RunReport::failure_signature()
  std::uint64_t digest = 0;
};
[[nodiscard]] std::optional<ReproExpect> parse_repro_expect(
    const std::string& text);

}  // namespace myri::fi
