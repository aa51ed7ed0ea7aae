// ldpjs_loadgen: the repository's end-to-end benchmark. It runs the system
// under test in this process — FrameServer, RegionalNode and CentralNode
// over 127.0.0.1 TCP, or EstimateJoinSizePlus in memory — drives one named
// workload against it for a fixed time, checks every answer against an
// in-process reference, and prints the metrics.
//
//   ldpjs_loadgen --workload <ingest|serve_mixed|federate_wide|plus_offline>
//                 --seed N --seconds S --trace <0|1> [--out-dir DIR]
//                 [--commit SHA] [--source-digest HEX]
//
// All inputs (Zipf values, perturbed reports, encoded frames, probe
// sketches, query mixes) derive from --seed and are built before timing.
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate run that
// records spans around the calls into each module and prints the per-layer
// metrics (and writes the span file to --out-dir). The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Exit
// status: 0 correct, 1 a correctness check failed, 2 bad usage, 3 the run
// was invalid (for example the open-loop generator fell behind its offered
// rate) and no result is reported.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "ldpjs_loadgen: %s\nusage: ldpjs_loadgen --workload "
               "<ingest|serve_mixed|federate_wide|plus_offline> --seed N "
               "--seconds S --trace <0|1> [--out-dir DIR] [--commit SHA] "
               "[--source-digest HEX]\n",
               why);
  return 2;
}

/// Throughput of n threads spinning on a fixed amount of integer work,
/// relative to one thread: how many cores this machine really gives.
double ParallelismProbe(int threads) {
  constexpr uint64_t kWork = 1ull << 24;
  auto spin = [] {
    volatile uint64_t sink = 0;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint64_t i = 0; i < kWork; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
  };
  // Best of three rounds each: a round that lands on an idle vCPU, or
  // beside a neighbour's burst, reads low.
  auto timed = [&](int n) {
    double best = 0.0;
    for (int round = 0; round < 3; ++round) {
      const uint64_t start = NowNs();
      std::vector<std::thread> pool;
      for (int t = 0; t < n; ++t) pool.emplace_back(spin);
      for (std::thread& t : pool) t.join();
      const double elapsed = static_cast<double>(NowNs() - start);
      best = round == 0 ? elapsed : std::min(best, elapsed);
    }
    return best;
  };
  return static_cast<double>(threads) * timed(1) / timed(threads);
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown", digest = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source-digest") {
      digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  // glibc starts with a 128 KiB mmap threshold and raises it the first time
  // a large block is freed; when that happened relative to the peak decided
  // whether federate_wide's 2.36 MB snapshots were mmapped or heap blocks,
  // and peak RSS read 182 or 222 MB from run to run. Fixing the threshold
  // at its ceiling from the start gives every run the steady-state layout.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);

  void (*run)(const Options&, RunReport&) = nullptr;
  if (options.workload == "ingest") run = RunIngest;
  if (options.workload == "serve_mixed") run = RunServeMixed;
  if (options.workload == "federate_wide") run = RunFederateWide;
  if (options.workload == "plus_offline") run = RunPlusOffline;
  if (run == nullptr) return Usage("unknown or missing --workload");
  if (!(options.seconds > 0.0) || !have_trace) {
    return Usage("--seconds must be positive and --trace given");
  }

  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"commit\": \"%s\", "
      "\"source_digest\": \"%s\", \"nproc\": %ld, "
      "\"effective_parallelism\": {\"1\": 1.0, \"2\": %.2f, \"4\": %.2f}}\n",
      options.workload.c_str(), options.seed, options.seconds,
      options.trace ? 1 : 0, commit.c_str(), digest.c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), ParallelismProbe(2), ParallelismProbe(4));
  std::fflush(stdout);

  RunReport report;
  double span_cost_ns = 0.0;
  if (options.trace) {
    span_cost_ns = CalibrateSpanCostNs();
    EnableTracing(true);
  }
  run(options, report);
  EnableTracing(false);

  if (!report.invalid.empty()) {
    std::fprintf(stderr, "ldpjs_loadgen: run invalid, not reported: %s\n",
                 report.invalid.c_str());
    return 3;
  }
  for (const Metric& m : report.end_to_end) {
    std::printf("metric %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : report.info) {
    std::printf("info   %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double error_ratio =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  std::printf("info   %-28s %14.6g (%" PRIu64 " failed of %" PRIu64 ")\n",
              "error_ratio", error_ratio, report.failed, report.attempted);
  for (const std::string& f : report.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }

  std::vector<Metric> printed = report.end_to_end;
  if (options.trace) {
    // The traced run's own end-to-end figures, next to the layer metrics.
    for (const std::vector<Metric>* list : {&report.end_to_end, &report.info}) {
      for (const Metric& m : *list) {
        report.Layer("traced." + m.name, m.value, m.unit);
      }
    }
    report.Layer("traced.error_ratio", error_ratio, "ratio");
    ReportLayers(options, options.seconds, span_cost_ns, report);
    printed = report.layer;
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", report.attempted, report.failed,
              JsonMetrics(printed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
