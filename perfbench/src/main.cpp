// perfbench: one workload per process, metrics on stdout.
//
//   perfbench --workload ring512|soak64|pingpong2 --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//
// Prints notes and a metric table, then, as its last line, one JSON object
// holding the verdict and every metric the run computed. run.py wraps this
// binary: it builds it, and trims that object to the metric set
// BENCHMARK.json names for the trace mode.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ring512|soak64|pingpong2 --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               argv0);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = perfbench::wall_ns();
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      usage(argv[0]);
      return 2;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
      if (!opt.trace && std::strcmp(v, "0") != 0) end = const_cast<char*>(v);
    } else if (a == "--spans") {
      opt.spans_path = v;
    } else {
      usage(argv[0]);
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", a.c_str(), v);
      return 2;
    }
  }
  if (!(opt.seconds > 0)) {
    usage(argv[0]);
    return 2;
  }

  perfbench::Outcome out;
  try {
    if (opt.workload == "ring512") {
      perfbench::run_ring512(opt, process_start, out);
    } else if (opt.workload == "soak64") {
      perfbench::run_soak64(opt, process_start, out);
    } else if (opt.workload == "pingpong2") {
      perfbench::run_pingpong2(opt, process_start, out);
    } else {
      usage(argv[0]);
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  for (const auto& n : out.notes) std::printf("%s\n", n.c_str());
  std::printf("%-40s %20s  %s\n", "metric", "value", "unit");
  for (const auto& m : out.metrics) {
    std::printf("%-40s %20.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double fail_ratio =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::printf("%-40s %20.6f  %s  (%llu failed / %llu attempted)\n",
              "fail_ratio", fail_ratio, "ratio",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));

  std::string json = "{\"correct\":";
  json += out.correct && out.attempted > 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(out.attempted);
  json += ",\"failed\":" + std::to_string(out.failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", out.metrics[i].value);
    json += (i == 0 ? "\"" : ",\"") + json_escape(out.metrics[i].name) +
            "\":{\"value\":" + num + ",\"unit\":\"" +
            json_escape(out.metrics[i].unit) + "\"}";
  }
  json += "},\"build\":{\"compiler\":\"" + json_escape(__VERSION__) +
          "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"}}";
  std::printf("%s\n", json.c_str());
  return out.correct ? 0 : 1;
}
