// Soak throughput: how fast the soak harness burns virtual time.
//
// Runs one pinned-seed fi::SoakProfile (64-node fat-tree, every fault
// kind plus membership churn, 500 ms check windows) and reports wall-time
// cost per virtual second as JSON (stdout + --out file), so the
// committed BENCH_soak_throughput.json baseline answers the planning
// question directly: a 2-virtual-hour nightly soak costs
// 7200 / (virtual_per_wall) wall seconds on the reference machine.
//
// MYRI_BENCH_SCALE shrinks the soaked duration for smoke runs (default
// 120 virtual s; CI smoke uses 0.25 -> 30 s).
//
// `events_per_delivery` is deterministic per seed (no wall clock in it):
// CI gates it, so a change that brings back per-tick housekeeping events
// fails on any runner, however fast.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/common.hpp"
#include "faultinject/scenario.hpp"
#include "faultinject/soak.hpp"

using namespace myri;

int main(int argc, char** argv) {
  const char* out_path = "BENCH_soak_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  const double virt_s = 120.0 * bench::scale();
  fi::SoakProfile sp;
  sp.seed = 2026;
  sp.duration = sim::usecf(virt_s * 1e6);
  // Smoke-scale arrival rates: even a short measurement window sees every
  // fault kind and several churn cycles.
  sp.hang_every = sim::sec(20);
  sp.cable_every = sim::sec(25);
  sp.cable_outage = sim::sec(3);
  sp.flip_every = sim::sec(30);
  sp.loss_every = sim::sec(15);
  sp.churn_every = sim::sec(12);
  sp.replace_every = sim::sec(30);
  const fi::Scenario sc = fi::make_soak_scenario(sp);

  const auto t0 = std::chrono::steady_clock::now();
  const fi::RunReport rep = fi::ScenarioRunner::run(sc);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const double virtual_run_s = sim::to_sec(rep.end_time);
  const double events_per_sec =
      wall_s > 0 ? static_cast<double>(rep.events_executed) / wall_s : 0;
  const double virtual_per_wall = wall_s > 0 ? virtual_run_s / wall_s : 0;
  const double events_per_delivery =
      rep.deliveries > 0 ? static_cast<double>(rep.events_executed) /
                               static_cast<double>(rep.deliveries)
                         : 0;

  std::string json = "{";
  json += "\"bench\":\"soak_throughput\"";
  json += ",\"nodes\":" + std::to_string(sc.nodes);
  json += ",\"virtual_s\":" + std::to_string(virtual_run_s);
  json += ",\"wall_s\":" + std::to_string(wall_s);
  json += ",\"events\":" + std::to_string(rep.events_executed);
  json += ",\"events_per_sec\":" + std::to_string(events_per_sec);
  json += ",\"events_per_delivery\":" + std::to_string(events_per_delivery);
  json += ",\"virtual_per_wall\":" + std::to_string(virtual_per_wall);
  json += ",\"scheduled_faults\":" + std::to_string(sc.events.size());
  json += ",\"windows_checked\":" + std::to_string(rep.windows_checked);
  json += ",\"drift_checks\":" + std::to_string(rep.drift_checks);
  json += ",\"deliveries\":" + std::to_string(rep.deliveries);
  json += ",\"recoveries\":" + std::to_string(rep.recoveries);
  json += ",\"remaps\":" + std::to_string(rep.remaps);
  json += ",\"clean\":";
  json += rep.failed() ? "false" : "true";
  json += "}";
  std::printf("%s\n", json.c_str());
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  // A dirty soak here means the pinned profile regressed — fail the bench
  // so CI notices even without the baseline gate.
  if (rep.failed()) {
    std::fprintf(stderr, "soak bench FAILED: %s: %s\n",
                 rep.failure_signature().c_str(),
                 rep.violation_detail.c_str());
    return 1;
  }
  return 0;
}
