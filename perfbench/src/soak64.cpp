// soak64: the long-horizon soak harness on a 64-node fat-tree.
//
// The shape of bench/soak_throughput.cpp's pinned profile (64 nodes,
// fat-tree radix 10, every fault kind plus join/drain churn and node
// replacement, 500 ms check windows) cut to a 40 virtual second soak,
// with arrival rates raised so every kind still fires in it, and the seed
// from the command line. fi::make_soak_scenario expands it and
// fi::ScenarioRunner::run executes it: the runner builds its own cluster,
// so setup_s here is scenario generation only. The timeline is sparse and
// mostly idle L_timer/IT1 housekeeping; the continuous oracle, the
// mapper's remaps and scrub, and FTD recoveries do the rest.
//
// Measured region: whole runs of the same scenario (a few wall seconds
// each) until --seconds have gone (at least two). Every run must be clean
// and produce the same digest; virtual_per_wall is fast_rate over runs.
#include <algorithm>

#include "common.hpp"
#include "faultinject/scenario.hpp"
#include "faultinject/soak.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sim = myri::sim;
namespace fi = myri::fi;

constexpr int kFirstGenerations = 51;  // setup_s samples before the runs
constexpr int kGenerationsPerRun = 8;  // and after each run
constexpr int kMinRuns = 2;

fi::SoakProfile profile(std::uint64_t seed) {
  fi::SoakProfile sp;
  sp.seed = seed;
  sp.duration = sim::sec(40);
  sp.hang_every = sim::sec(8);
  sp.cable_every = sim::sec(8);
  sp.cable_outage = sim::sec(3);
  sp.flip_every = sim::sec(8);
  sp.loss_every = sim::sec(6);
  sp.churn_every = sim::sec(10);
  sp.replace_every = sim::sec(10);
  return sp;
}

// Wall seconds of one runner call, recorded as a span when traced.
fi::RunReport timed_run(const fi::Scenario& sc,
                        const fi::ScenarioRunner::Options& o,
                        SpanRecorder* rec, double& wall_s) {
  SpanRecorder::Scope span(rec, "fi.scenario_run");
  const std::int64_t t0 = wall_ns();
  fi::RunReport r = fi::ScenarioRunner::run(sc, o);
  wall_s = static_cast<double>(wall_ns() - t0) / 1e9;
  return r;
}

}  // namespace

void run_soak64(const Options& opt, std::int64_t process_start, Outcome& out) {
  const std::uint64_t rss0 = proc_status_kb("VmRSS");
  SpanRecorder rec;
  SpanRecorder* traced = opt.trace ? &rec : nullptr;
  const fi::SoakProfile sp = profile(opt.seed);
  fi::Scenario sc;
  // A batch of generations before the runs and a few after each run, so
  // the median samples the host's state over the whole measured region
  // and not in one or two bursts.
  const auto generate = [&] {
    SpanRecorder::Scope span(traced, "fi.make_soak_scenario");
    sc = fi::make_soak_scenario(sp);
  };
  std::vector<double> setups =
      timed_setups(kFirstGenerations, process_start, [] {}, generate);

  // Runs of the scenario until the time is up; in a traced run odd runs
  // carry spans and even ones do not.
  std::vector<double> untraced_rate;
  std::vector<double> traced_rate;
  double untraced_wall = 0;
  std::uint64_t untraced_events = 0;
  fi::RunReport first;
  const std::int64_t m0 = wall_ns();
  for (int i = 0;; ++i) {
    SpanRecorder* r = (traced != nullptr && i % 2 == 1) ? traced : nullptr;
    double wall = 0;
    const fi::RunReport rep = timed_run(sc, {}, r, wall);
    const double rate = sim::to_sec(rep.end_time) / wall;
    if (r != nullptr) {
      traced_rate.push_back(rate);
    } else {
      untraced_rate.push_back(rate);
      untraced_wall += wall;
      untraced_events += rep.events_executed;
    }
    out.attempted += rep.deliveries;
    if (rep.failed()) {
      out.fail("soak64 run " + std::to_string(i) + ": " +
               rep.failure_signature() + ": " + rep.violation_detail);
    }
    if (i == 0) {
      first = rep;
    } else if (rep.digest != first.digest || rep.deliveries != first.deliveries ||
               rep.events_executed != first.events_executed) {
      out.fail("soak64 run " + std::to_string(i) + " digest " + hex(rep.digest) +
               " differs from run 0's " + hex(first.digest) +
               ": the same scenario ran differently");
    }
    const auto more = timed_setups(kGenerationsPerRun, wall_ns(), [] {}, generate);
    setups.insert(setups.end(), more.begin(), more.end());
    if (i + 1 >= kMinRuns && static_cast<double>(wall_ns() - m0) / 1e9 >= opt.seconds) {
      break;
    }
  }

  // Oracle sampling share: the same scenario with the throttled
  // continuous sampling pushed past the horizon (windowed sweeps and
  // per-delivery checks remain).
  double sampling_share = 0;
  if (opt.trace) {
    fi::ScenarioRunner::Options no_sampling;
    no_sampling.check_gap = sc.effective_horizon() + sim::sec(1);
    double wall = 0;
    const fi::RunReport rep = timed_run(sc, no_sampling, traced, wall);
    if (rep.failed()) {
      out.fail("soak64 without oracle sampling: " + rep.failure_signature());
    }
    const double rate = sim::to_sec(rep.end_time) / wall;
    sampling_share = 1.0 - fast_rate(untraced_rate) / rate;
  }

  const double vs = sim::to_sec(first.end_time);
  const double deliveries = static_cast<double>(first.deliveries);
  out.add("setup_s", median(setups), "s");
  out.add("virtual_per_wall", fast_rate(untraced_rate), "s/s");
  note_rates(out, "run", untraced_rate);
  // Over the profile's soak length, not the run's end time: a run ends
  // once its last fault has settled, at a seed-dependent time.
  out.add("goodput_mb_s",
          deliveries * sc.msg_len / sim::to_sec(sp.duration) / 1e6, "MB/s");
  out.add("peak_rss_mb", static_cast<double>(proc_status_kb("VmHWM")) / 1024.0,
          "MiB");
  out.add("sim.events", static_cast<double>(first.events_executed), "count");
  out.add("sim.events_per_delivery",
          static_cast<double>(first.events_executed) / deliveries, "count");
  out.add("sim.wall_ns_per_event",
          untraced_wall * 1e9 / static_cast<double>(untraced_events), "ns");
  out.add("host.rss_kb_per_node",
          static_cast<double>(proc_status_kb("VmHWM") - rss0) / sc.nodes, "KiB");
  out.add("recoveries", static_cast<double>(first.recoveries), "count");
  out.add("mapper.remaps", static_cast<double>(first.remaps), "count");
  out.add("faultinject.oracle_checks_per_delivery",
          static_cast<double>(first.oracle_checks) / deliveries, "count");
  out.add("faultinject.windows_checked",
          static_cast<double>(first.windows_checked), "count");
  out.add("faultinject.drift_checks", static_cast<double>(first.drift_checks),
          "count");
  out.add("net.crc_ns_per_packet", crc_ns_per_packet(sc.msg_len), "ns");
  if (opt.trace) {
    out.add("faultinject.oracle_sampling_share", sampling_share, "ratio");
    out.add("bench.trace_overhead",
            1.0 - fast_rate(traced_rate) / fast_rate(untraced_rate), "ratio");
  }
  out.note("soak64: " + std::to_string(sc.events.size()) + " scheduled faults, " +
           std::to_string(first.deliveries) + " deliveries, " +
           std::to_string(first.recoveries) + " recoveries, " +
           std::to_string(first.remaps) + " remaps over " + std::to_string(vs) +
           " virtual s; " + std::to_string(untraced_rate.size() + traced_rate.size()) +
           " runs");
  out.note("soak64: run digest " + hex(first.digest));
  check_pinned(out, "soak64", opt.seed, first.digest);
  if (opt.trace && !opt.spans_path.empty() && !rec.write_json(opt.spans_path)) {
    out.fail("cannot write span file " + opt.spans_path);
  }
}

}  // namespace perfbench
