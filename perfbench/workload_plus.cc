// plus_offline: the paper's own experiment, with no network. Two in-memory
// 4M-row Zipf(1.1) tables over a 3M-key domain go through
// EstimateJoinSizePlus (r = 0.1, theta = 0.001, m = 1024, eps = 4,
// num_threads = 2), repeatedly, for the run's seconds. This is the only
// workload where the core module does the work: perturbation, FAP, the
// frequent-item search over the whole domain, finalize and JoinEst.
//
// The served-path metrics map onto the estimator's two phases:
// ingest_to_queryable is the offline phase (every report perturbed and
// absorbed into finalized sketches), query is the online phase (FI search
// plus JoinEst), and ingest_reports_per_s counts the 8M reports per second
// of the whole estimate.
#include <cmath>

#include "bench.h"
#include "common/random.h"
#include "core/fap.h"
#include "core/freq_items.h"
#include "core/ldp_join_sketch_plus.h"
#include "data/column.h"
#include "data/join.h"

namespace perfbench {
namespace {

using ldpjs::Column;
using ldpjs::LdpJoinSketchPlusParams;
using ldpjs::LdpJoinSketchPlusResult;

constexpr uint64_t kPlusRows = 4'000'000;
constexpr int kPlusM = 1024;
constexpr size_t kPlusThreads = 2;

LdpJoinSketchPlusParams PlusParams(uint64_t seed, size_t threads) {
  LdpJoinSketchPlusParams params;
  params.sketch = MakeParams(kPlusM, seed);
  params.epsilon = kEpsilon;
  params.sample_rate = 0.1;
  params.threshold = 0.001;
  params.simulation.run_seed = ldpjs::DeriveStreamSeed(seed, 7);
  params.simulation.num_threads = threads;
  return params;
}

struct Tables {
  Column a, b;
};

Tables MakeTables(uint64_t seed) {
  const std::vector<uint64_t> values =
      ZipfValues(2 * kPlusRows, ldpjs::DeriveStreamSeed(seed, 1));
  return {Column({values.begin(), values.begin() + kPlusRows}, kDomain),
          Column({values.begin() + kPlusRows, values.end()}, kDomain)};
}

/// Builds one sketch from `values` block by block through the public client
/// and server calls, so each gets its own span.
template <typename Client>
LdpJoinSketchServer TracedBuild(const Client& client,
                                const SketchParams& params,
                                std::span<const uint64_t> values,
                                uint64_t seed) {
  LdpJoinSketchServer server(params, kEpsilon);
  std::vector<LdpReport> reports(kFrameReports);
  for (size_t first = 0; first < values.size(); first += kFrameReports) {
    const size_t count = std::min(kFrameReports, values.size() - first);
    ldpjs::Xoshiro256 rng = ldpjs::MakeStreamRng(seed, first);
    std::span<LdpReport> out(reports.data(), count);
    {
      Span span("core.perturb_ns_per_report", 0, count);
      client.PerturbBatch(values.subspan(first, count), out, rng);
    }
    Span span("core.absorb_ns_per_report", 0, count);
    server.AbsorbBatch(out);
  }
  return Finalized(std::move(server));
}

/// Traced runs: the LDPJoinSketch+ pipeline stage by stage on this thread —
/// phase-1 sample sketches, the FI search, FAP group sketches, JoinEstimate
/// — through the same public calls EstimateJoinSizePlus makes.
void ReplayCore(const Tables& tables, const LdpJoinSketchPlusParams& params) {
  const SketchParams& sketch = params.sketch;
  struct Split {
    std::vector<uint64_t> sample, low, high;
  };
  auto split = [&](const Column& column, uint64_t seed) {
    Split out;
    ldpjs::Xoshiro256 rng(seed);
    for (uint64_t v : column.values()) {
      if (rng.NextBernoulli(params.sample_rate)) {
        out.sample.push_back(v);
      } else {
        (rng.NextBernoulli(0.5) ? out.low : out.high).push_back(v);
      }
    }
    return out;
  };
  const Split a = split(tables.a, 11), b = split(tables.b, 12);
  const ldpjs::LdpJoinSketchClient client(sketch, params.epsilon);
  const LdpJoinSketchServer sample_a = TracedBuild(client, sketch, a.sample, 1);
  const LdpJoinSketchServer sample_b = TracedBuild(client, sketch, b.sample, 2);
  std::unordered_set<uint64_t> frequent;
  {
    Span span("core.fi_search_ms");
    frequent = ldpjs::FindFrequentItemsUnion(
        sample_a, sample_b, kDomain,
        params.threshold * static_cast<double>(a.sample.size()),
        params.threshold * static_cast<double>(b.sample.size()));
  }
  for (ldpjs::FapMode mode : {ldpjs::FapMode::kLow, ldpjs::FapMode::kHigh}) {
    const ldpjs::FapClient fap(sketch, params.epsilon, mode, frequent);
    const bool low = mode == ldpjs::FapMode::kLow;
    const LdpJoinSketchServer group_a =
        TracedBuild(fap, sketch, low ? a.low : a.high, 3);
    const LdpJoinSketchServer group_b =
        TracedBuild(fap, sketch, low ? b.low : b.high, 4);
    Span span("core.join_estimate_us");
    (void)group_a.JoinEstimate(group_b);
  }
}

}  // namespace

void RunPlusOffline(const Options& options, RunReport& report) {
  Samples setup_s;
  Tables tables;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const uint64_t start = NowNs();
    tables = MakeTables(options.seed);
    setup_s.Add(SecondsSince(start));
  }
  const LdpJoinSketchPlusParams params = PlusParams(options.seed, kPlusThreads);

  // ---- Timed window: repeated estimates at num_threads = 2 ---------------
  // The first estimate warms up (first-touch page faults, thread-pool
  // start) and is the reference every later one must equal bit for bit.
  const double estimate =
      ldpjs::EstimateJoinSizePlus(tables.a, tables.b, params).estimate;
  report.Attempt();
  Samples estimate_s, offline_ms, online_us;
  const uint64_t start_ns = NowNs();
  while (estimate_s.size() < 2 || SecondsSince(start_ns) < options.seconds) {
    const uint64_t trial_start = NowNs();
    const LdpJoinSketchPlusResult result =
        ldpjs::EstimateJoinSizePlus(tables.a, tables.b, params);
    estimate_s.Add(SecondsSince(trial_start));
    offline_ms.Add(result.offline_seconds * 1e3);
    online_us.Add(result.online_seconds * 1e6);
    report.Check(SameBits(result.estimate, estimate),
                 "a repeated estimate with the same seed differs");
  }

  // ---- Correctness: thread-count determinism and Theorem 5 ---------------
  const LdpJoinSketchPlusResult single =
      ldpjs::EstimateJoinSizePlus(tables.a, tables.b,
                                  PlusParams(options.seed, 1));
  report.Check(SameBits(single.estimate, estimate),
               "estimate at 1 thread differs from 2 threads");
  const double truth = ldpjs::ExactJoinSize(tables.a, tables.b);
  // Theorem 5: |est - truth| <= 4/sqrt(m) (|A| + s)(|B| + s), with
  // s = (k c_eps^2 - 1) / 2, with probability >= 1 - exp(-k/4).
  const double c_eps = LdpJoinSketchServer(params.sketch, kEpsilon).c_eps();
  const double slack =
      (static_cast<double>(kSketchRows) * c_eps * c_eps - 1.0) / 2.0;
  const double bound = 4.0 / std::sqrt(static_cast<double>(kPlusM)) *
                       (static_cast<double>(kPlusRows) + slack) *
                       (static_cast<double>(kPlusRows) + slack);
  report.Check(std::abs(estimate - truth) <= bound,
               "estimate outside the Theorem-5 envelope");
  const double rel_error = std::abs(estimate - truth) / truth;

  if (options.trace) ReplayCore(tables, params);

  std::printf("plus_offline: %zu estimates, estimate %.6e vs true %.6e "
              "(relative error %.6f, Theorem-5 bound %.3e)\n",
              estimate_s.size(), estimate, truth, rel_error, bound);
  std::printf("  estimate %s\n", estimate_s.Describe("s").c_str());
  std::printf("  offline phase %s\n", offline_ms.Describe("ms").c_str());
  std::printf("  online phase %s\n", online_us.Describe("us").c_str());

  report.E2e("setup_s", setup_s.Median(), "s");
  report.E2e("ingest_reports_per_s",
             2.0 * static_cast<double>(kPlusRows) / estimate_s.Median(), "1/s");
  report.E2e("ingest_to_queryable_p50_ms", offline_ms.Median(), "ms");
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  report.Info("ingest_to_queryable_p99_ms", offline_ms.Percentile(99), "ms");
  report.Info("query_p50_us", online_us.Median(), "us");
  report.Info("query_p99_us", online_us.Percentile(99), "us");
  report.Info("estimate_s", estimate_s.Median(), "s");
  report.Info("join_rel_error", rel_error, "ratio");
}

}  // namespace perfbench
