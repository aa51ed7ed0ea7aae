// Shared pieces of the end-to-end load generator: workload constants, raw
// latency samples, the in-memory span tracer, seeded input generation, the
// in-process reference computations the correctness checks compare against,
// and the run report every workload fills in.
#ifndef LDPJS_PERFBENCH_BENCH_H_
#define LDPJS_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/ldp_join_sketch.h"
#include "core/params.h"
#include "net/protocol.h"

namespace ldpjs {
class FrameSender;
class FrameServer;
struct PublishedView;
}  // namespace ldpjs

namespace perfbench {

using ldpjs::LdpJoinSketchServer;
using ldpjs::LdpReport;
using ldpjs::QueryKind;
using ldpjs::QueryRequest;
using ldpjs::SketchParams;

// Shared workload settings: Zipf(1.1) over a 3M-key domain, epsilon 4, k 18.
inline constexpr double kEpsilon = 4.0;
inline constexpr int kSketchRows = 18;
inline constexpr uint64_t kDomain = 3'000'000;
inline constexpr double kZipfAlpha = 1.1;
inline constexpr size_t kFrameReports = ldpjs::kMaxWireBatchReports;  // 4096
/// Setup (inputs, servers, handshakes) is repeated this many times per run
/// and setup_s is the median, so one slow repetition cannot move it.
inline constexpr int kSetupRepetitions = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where a traced run writes its span file
};

uint64_t NowNs();
double SecondsSince(uint64_t start_ns);

/// Sleeps until `due_ns`; returns how late the caller is afterwards (ns,
/// zero or more) — the open-loop generator's own schedule slip.
uint64_t WaitUntil(uint64_t due_ns);

/// A run's schedule. Load starts at start_ns; samples and counts are taken
/// from measure_ns on, after a second of the same load has warmed the
/// server's queues and the machine's idle vCPUs; load stops at deadline_ns.
struct Window {
  uint64_t start_ns = 0;
  uint64_t measure_ns = 0;
  uint64_t deadline_ns = 0;

  /// A window measuring `seconds`, starting 1 ms from now.
  static Window Open(double seconds);
  bool measured(uint64_t t_ns) const { return t_ns >= measure_ns; }
  double measured_seconds() const {
    return static_cast<double>(deadline_ns - measure_ns) * 1e-9;
  }
};

/// Raw samples of one timing; every percentile comes from these (nearest
/// rank over a sorted copy), never from a bucketed histogram.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Percentile(double pct) const;
  double Median() const { return Percentile(50.0); }
  /// "p50=.. p99=.. n=.. (k beyond p99)": the percentile line every timing
  /// is printed with, so the sample count behind a tail is always visible.
  std::string Describe(const std::string& unit) const;

 private:
  std::vector<double> values_;
};

// ---- Tracing -------------------------------------------------------------
// Spans live in per-thread in-memory buffers and are written out once, at
// the end of a traced run. A span records its name, start, end, the span
// open on the same thread when it began (its parent), a trace id shared by
// every span of one frame / barrier / query / epoch, and an item count
// (reports or bytes) for per-item metrics. With tracing off a Span costs a
// single branch.

struct SpanRecord {
  const char* name;
  uint64_t trace_id;
  uint64_t span_id;
  uint64_t parent_id;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t items;
  uint32_t thread;
};

void EnableTracing(bool on);
bool TracingEnabled();
/// Every span recorded so far, across threads (call after threads joined).
std::vector<SpanRecord> CollectSpans();
/// Drops every recorded span (used after the span-cost calibration).
void ClearSpans();

class Span {
 public:
  /// `trace_id` 0 inherits the enclosing span's trace id.
  explicit Span(const char* name, uint64_t trace_id = 0, uint64_t items = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_items(uint64_t items) { items_ = items; }

 private:
  const char* name_;
  bool on_;
  uint64_t trace_id_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t parent_trace_ = 0;
  uint64_t start_ns_ = 0;
  uint64_t items_;
};

/// Measured cost of recording one span on this machine (ns).
double CalibrateSpanCostNs();

// ---- Report --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunReport {
  std::vector<Metric> end_to_end;  ///< untraced metrics (BENCHMARK.json)
  std::vector<Metric> layer;       ///< traced-run metrics
  /// Figures printed on every run but not bounded in BENCHMARK.json: they
  /// exist on some workloads only, are 0 on a correct run, or (latency
  /// tails and query latency) moved by more than any bound from run to run
  /// on a shared 4-vCPU VM. A traced run reports them as traced.<name>.
  std::vector<Metric> info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  /// Non-empty: the run measured something other than the workload (for
  /// example a growing backlog in the open loop); no result is reported.
  std::string invalid;

  void Attempt(uint64_t n = 1) { attempted += n; }
  void Fail(const std::string& what);
  /// Counts one checked operation; records a failure when !ok.
  void Check(bool ok, const std::string& what) {
    Attempt();
    if (!ok) Fail(what);
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer.push_back({name, value, unit});
  }
  void Info(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, value, unit});
  }
};

/// Peak resident set size of this process so far (MB).
double PeakRssMb();

// ---- Inputs --------------------------------------------------------------

SketchParams MakeParams(int m, uint64_t seed);

/// Zipf(kZipfAlpha) values over kDomain (traced as data.zipf_gen_s).
std::vector<uint64_t> ZipfValues(uint64_t rows, uint64_t seed);

/// Pre-perturbed, pre-encoded LJSB frames of kFrameReports reports each,
/// cycled by the senders. `reports[i]` are the exact reports inside
/// `frames[i]`, kept for the in-process reference.
struct FramePool {
  std::vector<std::vector<LdpReport>> reports;
  std::vector<std::vector<uint8_t>> frames;
  size_t size() const { return frames.size(); }
};
/// Perturbs `values` (a multiple of kFrameReports long) into frames.
FramePool MakeFramePool(const SketchParams& params,
                        std::span<const uint64_t> values, uint64_t seed);

/// Adds to `acc` every report of `count` frames sent cyclically from the
/// pool starting at frame `first` — the in-process AbsorbBatch of exactly
/// what went on the wire. Full cycles are absorbed once and merged (integer
/// lanes make q merged copies equal q absorbs).
void AbsorbCyclic(const FramePool& pool, size_t first, uint64_t count,
                  LdpJoinSketchServer& acc);

/// Raw lanes (and report totals) equal, lane for lane.
bool SameLanes(const LdpJoinSketchServer& a, const LdpJoinSketchServer& b);
/// Finalized cells equal bit for bit.
bool SameCells(const LdpJoinSketchServer& a, const LdpJoinSketchServer& b);
bool SameBits(double a, double b);

/// Raw-lane probe sketch of a second table, `values` (join_size queries
/// and the JoinEstimate check).
LdpJoinSketchServer MakeProbe(const SketchParams& params,
                              std::span<const uint64_t> values, uint64_t seed);

/// The query mix of the served workloads, one request per key: 80 %
/// frequency (of the key), 10 % range_count (width 1024), 5 %
/// frequent_items (domain 4096), 5 % join_size (against `probe`), in a
/// seeded order.
std::vector<QueryRequest> MakeQueryMix(std::span<const uint64_t> keys,
                                       const LdpJoinSketchServer& probe,
                                       uint64_t seed);
/// Every seeded input of a served workload, from one Zipf draw: `pools`
/// frame pools of `pool_frames` frames, a 2^18-row probe table, and a mix
/// of `queries` queries.
struct ServedInputs {
  std::vector<FramePool> pools;
  LdpJoinSketchServer probe{SketchParams{}, kEpsilon};
  std::vector<QueryRequest> mix;
};
ServedInputs MakeServedInputs(const SketchParams& params, size_t pools,
                              size_t pool_frames, size_t queries,
                              uint64_t seed);

const char* KindName(QueryKind kind);
/// Index of a kind in the four kinds the mix uses (frequency, range_count,
/// frequent_items, join_size).
size_t KindSlot(QueryKind kind);
inline constexpr const char* kKindNames[4] = {"frequency", "range_count",
                                              "frequent_items", "join_size"};

// ---- Served-path helpers -------------------------------------------------

inline constexpr const char* kRttSpans[4] = {
    "net.query_rtt_us.frequency", "net.query_rtt_us.range_count",
    "net.query_rtt_us.frequent_items", "net.query_rtt_us.join_size"};
inline constexpr const char* kAnswerSpans[4] = {
    "service.answer_query_us.frequency", "service.answer_query_us.range_count",
    "service.answer_query_us.frequent_items",
    "service.answer_query_us.join_size"};

/// part / whole, 1 when nothing was due.
inline double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 1.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// What one open-loop generator thread did.
struct OpenLoopResult {
  uint64_t offered = 0;    ///< operations due in the measured part
  uint64_t delivered = 0;  ///< of those, sent before the deadline
  uint64_t sent = 0;       ///< every operation sent, warm-up included
  Samples late_us;         ///< send time minus due time
  Samples latency;         ///< query us (from due) / ingest_to_queryable ms
  Samples stats_ms;
  std::vector<uint64_t> prefix_counts;  ///< data: reports sent at each PING
  /// queries: when each was sent and which view answered it.
  struct Answer {
    uint64_t sent_ns;
    uint64_t view_reports;
    uint64_t view_epoch;
    bool view_aligned;
  };
  std::vector<Answer> answers;
  std::string error;
};

/// Open-loop query generator: query n of `mix` is due at start + offset +
/// n * interval, where connection `index` starts at offset index *
/// interval / 2 and at its own place in the mix; latency counts from the
/// due time. With `stats` set, one STATS scrape per second goes out on it,
/// from the same schedule. Stops at the deadline; requests due but not
/// sent by then count as offered and not delivered.
void OpenLoopQueries(ldpjs::FrameSender& sender, ldpjs::FrameSender* stats,
                     const std::vector<QueryRequest>& mix, size_t index,
                     uint64_t interval_ns, const Window& window,
                     OpenLoopResult& out);

/// Sends `count` queries of `mix` (closed loop) and checks every answer bit
/// for bit against the in-process AnswerQuery on `expected`, the view built
/// from the reports the generator sent. Adds each round trip (us) to
/// `latency_us` when given.
void CheckServedAnswers(ldpjs::FrameSender& sender,
                        const ldpjs::PublishedView& expected,
                        const std::vector<QueryRequest>& mix, size_t count,
                        RunReport& report, Samples* latency_us);

/// Traced runs only: feeds recorded inputs — `frames` frames of `pool`, the
/// queries of `mix`, the final `view` and, when given, the `probe` —
/// through the public entry points of the layers that run on server threads
/// (decode, frame ingest, absorb, finalize, join estimate, AnswerQuery),
/// here on the calling thread, so each gets a span.
void ReplayServerLayers(const SketchParams& params, const FramePool& pool,
                        size_t frames, const ldpjs::PublishedView& view,
                        const LdpJoinSketchServer* probe,
                        const std::vector<QueryRequest>& mix, size_t queries);

/// Traced runs only: times `server`'s PublishView and StatsJson.
void ReplayPublishAndStats(ldpjs::FrameServer& server);

/// Builds a workload's setup kSetupRepetitions times, each after tearing
/// the previous one down, adding each build's time to `setup_s`; returns
/// the last one, or nullptr (recorded as a failure) if a build failed.
template <typename Setup, typename Make>
std::unique_ptr<Setup> RepeatedSetup(Make make, Samples& setup_s,
                                     RunReport& report) {
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    setup.reset();
    const uint64_t start = NowNs();
    setup = make();
    setup_s.Add(SecondsSince(start));
    if (setup == nullptr) {
      report.Check(false, "setup failed (server start or handshake)");
      return nullptr;
    }
  }
  return setup;
}

/// Ends every session (BYE) and reports the senders' counters (net.*) with
/// the serving side's shed / queue / publication counters.
void FinishSessions(std::vector<ldpjs::FrameSender>& senders,
                    uint64_t frames_shed, uint64_t queue_high_water,
                    uint64_t views_published, RunReport& report);

/// Finalized copy of a raw sketch.
LdpJoinSketchServer Finalized(LdpJoinSketchServer raw);

// ---- Per-layer table -----------------------------------------------------

/// Derives every per-layer metric from the recorded spans, prints the
/// per-span-name self-time table and writes the span file.
void ReportLayers(const Options& options, double window_s,
                  double span_cost_ns, RunReport& report);

// ---- Workloads -----------------------------------------------------------
// Each fills `report` with every end-to-end metric (and, when tracing, the
// traced-run metrics it measures itself) and records correctness failures.

void RunIngest(const Options& options, RunReport& report);
void RunServeMixed(const Options& options, RunReport& report);
void RunFederateWide(const Options& options, RunReport& report);
void RunPlusOffline(const Options& options, RunReport& report);

}  // namespace perfbench

#endif  // LDPJS_PERFBENCH_BENCH_H_
