#include "bench.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/random.h"
#include "data/zipf.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "service/published_view.h"
#include "service/query_engine.h"
#include "service/sharded_aggregator.h"

namespace perfbench {

using ldpjs::BinaryWriter;
using ldpjs::LdpJoinSketchClient;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

uint64_t WaitUntil(uint64_t due_ns) {
  // The default 50 us timer slack would be charged to every open-loop
  // request as lateness; 1 us keeps the schedule close to exact.
  thread_local const bool precise = prctl(PR_SET_TIMERSLACK, 1000UL) == 0;
  (void)precise;
  uint64_t now = NowNs();
  if (now < due_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
    now = NowNs();
  }
  return now > due_ns ? now - due_ns : 0;
}

Window Window::Open(double seconds) {
  constexpr uint64_t kWarmupNs = 1'000'000'000;
  Window window;
  window.start_ns = NowNs() + 1'000'000;
  window.measure_ns = window.start_ns + kWarmupNs;
  window.deadline_ns =
      window.measure_ns + static_cast<uint64_t>(seconds * 1e9);
  return window;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double pct) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest value with at least pct % of samples <= it.
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

std::string Samples::Describe(const std::string& unit) const {
  const size_t n = values_.size();
  const size_t rank99 = static_cast<size_t>(
      std::max(1.0, std::ceil(0.99 * static_cast<double>(n))));
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "p50=%.4g%s p99=%.4g%s n=%zu (%zu beyond p99)", Median(),
                unit.c_str(), Percentile(99.0), unit.c_str(), n,
                n >= rank99 ? n - rank99 : 0);
  return buf;
}

// ---- Tracing -------------------------------------------------------------

namespace {

std::atomic<bool> g_tracing{false};

struct ThreadBuffer {
  uint32_t thread = 0;
  uint64_t next_id = 0;
  uint64_t current = 0;        ///< innermost open span (parent of the next)
  uint64_t current_trace = 0;  ///< its trace id
  std::vector<SpanRecord> spans;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<uint32_t>(g_buffers.size());
    buffer->next_id = static_cast<uint64_t>(buffer->thread) << 40;
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

}  // namespace

void EnableTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& buffer : g_buffers) buffer->spans.clear();
}

Span::Span(const char* name, uint64_t trace_id, uint64_t items)
    : name_(name), on_(TracingEnabled()), items_(items) {
  if (!on_) return;
  ThreadBuffer& buffer = LocalBuffer();
  id_ = ++buffer.next_id;
  parent_ = buffer.current;
  parent_trace_ = buffer.current_trace;
  trace_id_ = trace_id != 0 ? trace_id : buffer.current_trace;
  buffer.current = id_;
  buffer.current_trace = trace_id_;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (!on_) return;
  const uint64_t end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.spans.push_back({name_, trace_id_, id_, parent_, start_ns_, end_ns,
                          items_, buffer.thread});
  buffer.current = parent_;
  buffer.current_trace = parent_trace_;
}

double CalibrateSpanCostNs() {
  const bool was = TracingEnabled();
  EnableTracing(true);
  constexpr int kSpans = 200000;
  const uint64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    Span span("calibration", static_cast<uint64_t>(i) + 1);
  }
  const double cost = static_cast<double>(NowNs() - start) / kSpans;
  ClearSpans();
  EnableTracing(was);
  return cost;
}

// ---- Report --------------------------------------------------------------

void RunReport::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// ---- Inputs --------------------------------------------------------------

SketchParams MakeParams(int m, uint64_t seed) {
  SketchParams params;
  params.k = kSketchRows;
  params.m = m;
  params.seed = ldpjs::DeriveStreamSeed(seed, 0x5ce7c4);
  return params;
}

std::vector<uint64_t> ZipfValues(uint64_t rows, uint64_t seed) {
  Span span("data.zipf_gen_s");
  ldpjs::ZipfParams zipf;
  zipf.alpha = kZipfAlpha;
  zipf.domain = kDomain;
  zipf.rows = rows;
  zipf.seed = seed;
  return ldpjs::GenerateZipf(zipf).values();
}

FramePool MakeFramePool(const SketchParams& params,
                        std::span<const uint64_t> values, uint64_t seed) {
  const size_t frames = values.size() / kFrameReports;
  const LdpJoinSketchClient client(params, kEpsilon);
  FramePool pool;
  pool.reports.resize(frames);
  pool.frames.resize(frames);
  for (size_t f = 0; f < frames; ++f) {
    std::vector<LdpReport>& reports = pool.reports[f];
    reports.resize(kFrameReports);
    ldpjs::Xoshiro256 rng = ldpjs::MakeStreamRng(seed, f);
    {
      Span span("core.perturb_ns_per_report", 0, kFrameReports);
      client.PerturbBatch(
          values.subspan(f * kFrameReports, kFrameReports),
          reports, rng);
    }
    BinaryWriter writer;
    ldpjs::EncodeReportBatch(reports, writer);
    pool.frames[f] = writer.TakeBuffer();
  }
  return pool;
}

void AbsorbCyclic(const FramePool& pool, size_t first, uint64_t count,
                  LdpJoinSketchServer& acc) {
  const uint64_t n = pool.size();
  const uint64_t cycles = count / n;
  if (cycles > 0) {
    LdpJoinSketchServer once(acc.params(), acc.epsilon());
    for (const auto& reports : pool.reports) once.AbsorbBatch(reports);
    for (uint64_t c = 0; c < cycles; ++c) acc.Merge(once);
  }
  for (uint64_t i = 0; i < count % n; ++i) {
    acc.AbsorbBatch(pool.reports[(first + i) % n]);
  }
}

bool SameLanes(const LdpJoinSketchServer& a, const LdpJoinSketchServer& b) {
  if (a.total_reports() != b.total_reports() || a.finalized() ||
      b.finalized() || a.params().k != b.params().k ||
      a.params().m != b.params().m) {
    return false;
  }
  for (int j = 0; j < a.params().k; ++j) {
    for (int x = 0; x < a.params().m; ++x) {
      if (a.lane(j, x) != b.lane(j, x)) return false;
    }
  }
  return true;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameCells(const LdpJoinSketchServer& a, const LdpJoinSketchServer& b) {
  if (a.total_reports() != b.total_reports() || !a.finalized() ||
      !b.finalized() || a.params().k != b.params().k ||
      a.params().m != b.params().m) {
    return false;
  }
  for (int j = 0; j < a.params().k; ++j) {
    for (int x = 0; x < a.params().m; ++x) {
      if (!SameBits(a.cell(j, x), b.cell(j, x))) return false;
    }
  }
  return true;
}

LdpJoinSketchServer MakeProbe(const SketchParams& params,
                              std::span<const uint64_t> values, uint64_t seed) {
  const LdpJoinSketchClient client(params, kEpsilon);
  LdpJoinSketchServer probe(params, kEpsilon);
  std::vector<LdpReport> reports(kFrameReports);
  for (size_t first = 0; first < values.size(); first += kFrameReports) {
    const size_t count = std::min(kFrameReports, values.size() - first);
    ldpjs::Xoshiro256 rng = ldpjs::MakeStreamRng(seed, first);
    std::span<LdpReport> out(reports.data(), count);
    client.PerturbBatch(values.subspan(first, count), out, rng);
    probe.AbsorbBatch(out);
  }
  return probe;
}

std::vector<QueryRequest> MakeQueryMix(std::span<const uint64_t> keys,
                                       const LdpJoinSketchServer& probe,
                                       uint64_t seed) {
  const std::vector<uint8_t> probe_bytes = probe.Serialize();
  ldpjs::Xoshiro256 rng(seed);
  std::vector<QueryRequest> mix(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    QueryRequest& q = mix[i];
    const uint64_t draw = rng.NextBounded(100);
    if (draw < 80) {
      q.kind = QueryKind::kFrequency;
      q.key = keys[i];
    } else if (draw < 90) {
      q.kind = QueryKind::kRangeCount;
      q.range_lo = rng.NextBounded(kDomain - 1024);
      q.range_hi = q.range_lo + 1023;
    } else if (draw < 95) {
      q.kind = QueryKind::kFrequentItems;
      q.domain = 4096;
      q.threshold = 2000.0;
    } else {
      q.kind = QueryKind::kJoinSize;
      q.probe_sketch = probe_bytes;
    }
  }
  return mix;
}

ServedInputs MakeServedInputs(const SketchParams& params, size_t pools,
                              size_t pool_frames, size_t queries,
                              uint64_t seed) {
  constexpr size_t kProbeRows = size_t{1} << 18;
  const size_t pool_rows = pool_frames * kFrameReports;
  const std::vector<uint64_t> values =
      ZipfValues(pools * pool_rows + kProbeRows + queries,
                 ldpjs::DeriveStreamSeed(seed, 1));
  const std::span<const uint64_t> all(values);
  ServedInputs inputs;
  for (size_t p = 0; p < pools; ++p) {
    inputs.pools.push_back(
        MakeFramePool(params, all.subspan(p * pool_rows, pool_rows),
                      ldpjs::DeriveStreamSeed(seed, 10 + p)));
  }
  inputs.probe = MakeProbe(params, all.subspan(pools * pool_rows, kProbeRows),
                           ldpjs::DeriveStreamSeed(seed, 2));
  inputs.mix =
      MakeQueryMix(all.subspan(pools * pool_rows + kProbeRows, queries),
                   inputs.probe, ldpjs::DeriveStreamSeed(seed, 3));
  return inputs;
}

size_t KindSlot(QueryKind kind) {
  switch (kind) {
    case QueryKind::kFrequency: return 0;
    case QueryKind::kRangeCount: return 1;
    case QueryKind::kFrequentItems: return 2;
    default: return 3;
  }
}

const char* KindName(QueryKind kind) { return kKindNames[KindSlot(kind)]; }

// ---- Served-path helpers -------------------------------------------------

LdpJoinSketchServer Finalized(LdpJoinSketchServer raw) {
  {
    Span span("core.finalize_us");
    raw.Finalize();
  }
  return raw;
}

void CheckServedAnswers(ldpjs::FrameSender& sender,
                        const ldpjs::PublishedView& expected,
                        const std::vector<QueryRequest>& mix, size_t count,
                        RunReport& report, Samples* latency_us) {
  for (size_t i = 0; i < count; ++i) {
    const QueryRequest& request = mix[i % mix.size()];
    const size_t slot = KindSlot(request.kind);
    const uint64_t start = NowNs();
    ldpjs::Result<ldpjs::QueryResponse> served = [&] {
      Span span(kRttSpans[slot], i + 1);
      return sender.Query(request);
    }();
    if (latency_us != nullptr) {
      latency_us->Add(static_cast<double>(NowNs() - start) / 1e3);
    }
    if (!served.ok()) {
      report.Check(false, std::string("query failed: ") +
                              served.status().ToString());
      continue;
    }
    const auto local = ldpjs::AnswerQuery(expected, request);
    report.Check(local.ok() && SameBits(served->value, local->value) &&
                     served->items == local->items &&
                     served->view_reports == expected.reports(),
                 std::string("served ") + KindName(request.kind) +
                     " answer differs from the in-process AnswerQuery");
  }
}

void OpenLoopQueries(ldpjs::FrameSender& sender, ldpjs::FrameSender* stats,
                     const std::vector<QueryRequest>& mix, size_t index,
                     uint64_t interval_ns, const Window& window,
                     OpenLoopResult& out) {
  constexpr uint64_t kStatsIntervalNs = 1'000'000'000;
  const uint64_t offset = index * interval_ns / 2;
  uint64_t queries = 0, scrapes = 0;
  while (true) {
    const uint64_t query_due = window.start_ns + offset + queries * interval_ns;
    const uint64_t stats_due =
        window.start_ns + kStatsIntervalNs / 2 + scrapes * kStatsIntervalNs;
    const bool stats_next = stats != nullptr && stats_due <= query_due;
    const uint64_t due = stats_next ? stats_due : query_due;
    if (due >= window.deadline_ns) break;
    const bool measured = window.measured(due);
    if (!stats_next && measured) ++out.offered;
    if (NowNs() >= window.deadline_ns) {  // fell behind: due but not sent
      stats_next ? ++scrapes : ++queries;
      continue;
    }
    const uint64_t late = WaitUntil(due);
    if (measured) out.late_us.Add(static_cast<double>(late) / 1e3);
    if (stats_next) {
      ++scrapes;
      const uint64_t start = NowNs();
      Span span("obs.stats_scrape_ms", (1ull << 60) + scrapes);
      const auto json = stats->Stats();
      if (!json.ok()) {
        out.error = "STATS failed: " + json.status().ToString();
        return;
      }
      out.stats_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
      continue;
    }
    const QueryRequest& request =
        mix[(index * mix.size() / 2 + queries) % mix.size()];
    ++queries;
    const uint64_t sent_ns = NowNs();
    ldpjs::Result<ldpjs::QueryResponse> response = [&] {
      Span span(kRttSpans[KindSlot(request.kind)],
                ((index + 1) << 56) + queries);
      return sender.Query(request);
    }();
    if (!response.ok()) {
      out.error = "QUERY failed: " + response.status().ToString();
      return;
    }
    ++out.sent;
    out.answers.push_back({sent_ns, response->view_reports,
                           response->view_epoch, response->view_aligned});
    if (measured) {
      out.latency.Add(static_cast<double>(NowNs() - due) / 1e3);
      ++out.delivered;
    }
  }
}

void FinishSessions(std::vector<ldpjs::FrameSender>& senders,
                    uint64_t frames_shed, uint64_t queue_high_water,
                    uint64_t views_published, RunReport& report) {
  uint64_t frames = 0, bytes = 0, busy_retries = 0;
  for (ldpjs::FrameSender& sender : senders) {
    frames += sender.frames_sent();
    bytes += sender.bytes_sent();
    busy_retries += sender.busy_retries();
    report.Check(sender.Finish().ok(), "BYE failed");
  }
  report.Layer("net.frames_sent", static_cast<double>(frames), "count");
  report.Layer("net.bytes_sent", static_cast<double>(bytes), "count");
  report.Layer("net.busy_retries", static_cast<double>(busy_retries), "count");
  report.Layer("net.busy_retries_per_frame",
               frames > 0 ? static_cast<double>(busy_retries) /
                                static_cast<double>(frames)
                          : 0.0,
               "ratio");
  report.Layer("net.frames_shed", static_cast<double>(frames_shed), "count");
  report.Layer("net.queue_high_water", static_cast<double>(queue_high_water),
               "count");
  report.Layer("service.views_published", static_cast<double>(views_published),
               "count");
}

void ReplayPublishAndStats(ldpjs::FrameServer& server) {
  for (int rep = 0; rep < 5; ++rep) {
    Span span("service.publish_view_us");
    server.PublishView();
  }
  for (int rep = 0; rep < 3; ++rep) {
    Span span("obs.stats_json_ms");
    (void)server.StatsJson();
  }
}

void ReplayServerLayers(const SketchParams& params, const FramePool& pool,
                        size_t frames, const ldpjs::PublishedView& view,
                        const LdpJoinSketchServer* probe,
                        const std::vector<QueryRequest>& mix, size_t queries) {
  frames = std::min(frames, pool.size());
  std::vector<LdpReport> decoded(kFrameReports);
  for (size_t f = 0; f < frames; ++f) {
    Span span("service.decode_ns_per_report", f + 1, kFrameReports);
    ldpjs::BinaryReader reader(pool.frames[f]);
    (void)ldpjs::DecodeReportBatch(reader, decoded);
  }
  ldpjs::ShardedAggregator aggregator(params, kEpsilon, 1);
  for (size_t f = 0; f < frames; ++f) {
    Span span("service.ingest_frame_ns_per_report", f + 1, kFrameReports);
    (void)aggregator.IngestFrame(pool.frames[f]);
  }
  LdpJoinSketchServer absorbed(params, kEpsilon);
  for (size_t f = 0; f < frames; ++f) {
    Span span("core.absorb_ns_per_report", f + 1, kFrameReports);
    absorbed.AbsorbBatch(pool.reports[f]);
  }
  for (int rep = 0; rep < 5; ++rep) (void)Finalized(absorbed);
  if (probe != nullptr) {
    const LdpJoinSketchServer probe_final = Finalized(*probe);
    for (int rep = 0; rep < 5; ++rep) {
      Span span("core.join_estimate_us");
      (void)view.sketch.JoinEstimate(probe_final);
    }
  }
  for (size_t i = 0; i < queries; ++i) {
    const QueryRequest& request = mix[i % mix.size()];
    Span span(kAnswerSpans[KindSlot(request.kind)], i + 1);
    (void)ldpjs::AnswerQuery(view, request);
  }
}

// ---- Per-layer table -----------------------------------------------------

namespace {

enum class LayerKind {
  kPerItem,     ///< total self time / total items
  kMedianCall,  ///< median self time per call
  kCount,       ///< set by the workload from counters
};

struct LayerSpec {
  const char* name;
  const char* unit;
  LayerKind kind;
  double ns_per_unit;
};

constexpr double kNs = 1.0, kUs = 1e3, kMs = 1e6, kS = 1e9;

// Every per-layer metric, in BENCHMARK.json order. Span-derived ones are
// named after the span that times the public call; a traced run of a
// workload whose path never calls a layer reports it as 0.
const LayerSpec kLayerSpecs[] = {
    {"core.perturb_ns_per_report", "ns", LayerKind::kPerItem, kNs},
    {"core.absorb_ns_per_report", "ns", LayerKind::kPerItem, kNs},
    {"core.finalize_us", "us", LayerKind::kMedianCall, kUs},
    {"core.fi_search_ms", "ms", LayerKind::kMedianCall, kMs},
    {"core.join_estimate_us", "us", LayerKind::kMedianCall, kUs},
    {"net.send_us_per_frame", "us", LayerKind::kMedianCall, kUs},
    {"net.ping_us", "us", LayerKind::kMedianCall, kUs},
    {"net.query_rtt_us.frequency", "us", LayerKind::kMedianCall, kUs},
    {"net.query_rtt_us.range_count", "us", LayerKind::kMedianCall, kUs},
    {"net.query_rtt_us.frequent_items", "us", LayerKind::kMedianCall, kUs},
    {"net.query_rtt_us.join_size", "us", LayerKind::kMedianCall, kUs},
    {"net.push_epoch_ms", "ms", LayerKind::kMedianCall, kMs},
    {"net.frames_sent", "count", LayerKind::kCount, 0},
    {"net.bytes_sent", "count", LayerKind::kCount, 0},
    {"net.busy_retries", "count", LayerKind::kCount, 0},
    {"net.busy_retries_per_frame", "ratio", LayerKind::kCount, 0},
    {"net.frames_shed", "count", LayerKind::kCount, 0},
    {"net.queue_high_water", "count", LayerKind::kCount, 0},
    {"service.decode_ns_per_report", "ns", LayerKind::kPerItem, kNs},
    {"service.ingest_frame_ns_per_report", "ns", LayerKind::kPerItem, kNs},
    {"service.publish_view_us", "us", LayerKind::kMedianCall, kUs},
    {"service.answer_query_us.frequency", "us", LayerKind::kMedianCall, kUs},
    {"service.answer_query_us.range_count", "us", LayerKind::kMedianCall, kUs},
    {"service.answer_query_us.frequent_items", "us", LayerKind::kMedianCall,
     kUs},
    {"service.answer_query_us.join_size", "us", LayerKind::kMedianCall, kUs},
    {"service.cut_epoch_ms", "ms", LayerKind::kMedianCall, kMs},
    {"service.views_published", "count", LayerKind::kCount, 0},
    {"federation.cut_and_ship_ms", "ms", LayerKind::kMedianCall, kMs},
    {"federation.serialize_ms", "ms", LayerKind::kMedianCall, kMs},
    {"federation.snapshot_bytes", "count", LayerKind::kCount, 0},
    {"federation.merge_ms", "ms", LayerKind::kMedianCall, kMs},
    {"federation.window_apply_ms", "ms", LayerKind::kMedianCall, kMs},
    {"federation.ship_retries", "count", LayerKind::kCount, 0},
    {"federation.duplicate_acks", "count", LayerKind::kCount, 0},
    {"obs.stats_scrape_ms", "ms", LayerKind::kMedianCall, kMs},
    {"obs.stats_json_ms", "ms", LayerKind::kMedianCall, kMs},
    {"data.zipf_gen_s", "s", LayerKind::kMedianCall, kS},
    // The traced run's own end-to-end figures: their difference from the
    // untraced runs' figures is the tracing overhead, next to the
    // span-count estimate of it.
    {"traced.ingest_reports_per_s", "1/s", LayerKind::kCount, 0},
    {"traced.ingest_to_queryable_p50_ms", "ms", LayerKind::kCount, 0},
    {"traced.ingest_to_queryable_p99_ms", "ms", LayerKind::kCount, 0},
    {"traced.query_p50_us", "us", LayerKind::kCount, 0},
    {"traced.query_p99_us", "us", LayerKind::kCount, 0},
    {"traced.epoch_visible_p50_ms", "ms", LayerKind::kCount, 0},
    {"traced.epoch_visible_p99_ms", "ms", LayerKind::kCount, 0},
    {"traced.estimate_s", "s", LayerKind::kCount, 0},
    {"traced.join_rel_error", "ratio", LayerKind::kCount, 0},
    {"traced.loadgen_late_p99_us", "us", LayerKind::kCount, 0},
    {"traced.error_ratio", "ratio", LayerKind::kCount, 0},
    {"trace.spans", "count", LayerKind::kCount, 0},
    {"trace.span_cost_ns", "ns", LayerKind::kCount, 0},
    {"trace.overhead_pct", "%", LayerKind::kCount, 0},
};

struct NameStats {
  uint64_t calls = 0;
  double self_ns = 0;
  double items = 0;
  Samples self;
};

}  // namespace

void ReportLayers(const Options& options, double window_s,
                  double span_cost_ns, RunReport& report) {
  const std::vector<SpanRecord> spans = CollectSpans();

  // Self time: a span's duration minus its children's. Children run on the
  // parent's thread and nest inside it, so their durations never overlap.
  std::unordered_map<uint64_t, double> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent_id != 0) {
      child_ns[s.parent_id] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, NameStats> by_name;
  std::map<uint32_t, uint64_t> spans_per_thread;
  for (const SpanRecord& s : spans) {
    const auto it = child_ns.find(s.span_id);
    const double self = static_cast<double>(s.end_ns - s.start_ns) -
                        (it == child_ns.end() ? 0.0 : it->second);
    NameStats& stats = by_name[s.name];
    ++stats.calls;
    stats.self_ns += self;
    stats.items += static_cast<double>(s.items);
    stats.self.Add(self);
    ++spans_per_thread[s.thread];
  }

  std::map<std::string, Metric> have;
  for (const Metric& m : report.layer) have[m.name] = m;
  for (const LayerSpec& spec : kLayerSpecs) {
    if (spec.kind == LayerKind::kCount) continue;
    const auto it = by_name.find(spec.name);
    double value = 0.0;
    if (it != by_name.end()) {
      const NameStats& stats = it->second;
      value = spec.kind == LayerKind::kPerItem
                  ? (stats.items > 0 ? stats.self_ns / stats.items : 0.0)
                  : stats.self.Median();
      value /= spec.ns_per_unit;
    }
    have[spec.name] = {spec.name, value, spec.unit};
  }
  uint64_t busiest = 0;
  for (const auto& [thread, n] : spans_per_thread) {
    busiest = std::max(busiest, n);
  }
  have["trace.spans"] = {"trace.spans", static_cast<double>(spans.size()),
                         "count"};
  have["trace.span_cost_ns"] = {"trace.span_cost_ns", span_cost_ns, "ns"};
  // Recording cost on the busiest thread, against the measured window.
  have["trace.overhead_pct"] = {
      "trace.overhead_pct",
      window_s > 0 ? 100.0 * static_cast<double>(busiest) * span_cost_ns /
                         (window_s * 1e9)
                   : 0.0,
      "%"};

  report.layer.clear();
  for (const LayerSpec& spec : kLayerSpecs) {
    const auto it = have.find(spec.name);
    report.layer.push_back(it != have.end()
                               ? it->second
                               : Metric{spec.name, 0.0, spec.unit});
  }

  // Per-span-name self-time table, then the span file.
  std::printf("layer self-time table (traced run, %zu spans):\n", spans.size());
  std::printf("  %-42s %9s %12s %12s %12s\n", "span", "calls", "self_ms",
              "median_us", "ns/item");
  for (const auto& [name, stats] : by_name) {
    std::printf("  %-42s %9llu %12.3f %12.3f %12.2f\n", name.c_str(),
                static_cast<unsigned long long>(stats.calls),
                stats.self_ns / 1e6, stats.self.Median() / 1e3,
                stats.items > 0 ? stats.self_ns / stats.items : 0.0);
  }
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".spans.jsonl";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      report.Fail("cannot write span file " + path);
      return;
    }
    uint64_t origin = UINT64_MAX;
    for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
    for (const SpanRecord& s : spans) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"trace\":%llu,\"span\":%llu,\"parent\":"
                   "%llu,\"thread\":%u,\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"items\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.trace_id),
                   static_cast<unsigned long long>(s.span_id),
                   static_cast<unsigned long long>(s.parent_id), s.thread,
                   static_cast<unsigned long long>(s.start_ns - origin),
                   static_cast<unsigned long long>(s.end_ns - origin),
                   static_cast<unsigned long long>(s.items));
    }
    std::fclose(out);
    std::printf("span file: %s\n", path.c_str());
  }
}

}  // namespace perfbench
