// ingest: saturating closed-loop ingest. Two DATA connections stream
// pre-encoded 4096-report LJSB frames (m = 1024) into one FrameServer with
// default options; each sends a PING barrier after every 64 frames, and the
// run ends with a PING on each connection and Finalize. The net and service
// layers do nearly all the work; queries, federation and perturbation sit
// idle during the window (reports are perturbed during setup). Afterwards a
// third connection sends 4,000 queries of the served mix, closed loop, to
// the final view: each answer is checked against the in-process one, and
// their latency is this workload's query latency (at rest, after ingest).
#include <optional>
#include <thread>

#include "bench.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "service/published_view.h"

namespace perfbench {
namespace {

using ldpjs::FrameSender;
using ldpjs::FrameServer;
using ldpjs::FrameServerOptions;

constexpr int kIngestM = 1024;
constexpr size_t kConnections = 2;
constexpr size_t kPoolFrames = 256;  // per connection: 2^20 reports
constexpr size_t kPingEvery = 64;    // frames between PING barriers
constexpr size_t kMixSize = 1024;
constexpr size_t kCheckQueries = 4000;

struct Setup {
  SketchParams params;
  ServedInputs inputs;
  std::unique_ptr<FrameServer> server;
  std::vector<FrameSender> senders;
};

std::unique_ptr<Setup> MakeSetup(const Options& options) {
  auto setup = std::make_unique<Setup>();
  setup->params = MakeParams(kIngestM, options.seed);
  setup->inputs = MakeServedInputs(setup->params, kConnections, kPoolFrames,
                                   kMixSize, options.seed);
  setup->server = std::make_unique<FrameServer>(setup->params, kEpsilon,
                                                FrameServerOptions());
  if (!setup->server->Start().ok()) return nullptr;
  for (size_t c = 0; c <= kConnections; ++c) {  // + one query connection
    auto sender = FrameSender::Connect("127.0.0.1", setup->server->port(),
                                       setup->params, kEpsilon);
    if (!sender.ok()) return nullptr;
    setup->senders.push_back(std::move(*sender));
  }
  return setup;
}

struct SenderResult {
  uint64_t frames = 0;  ///< every frame sent, warm-up included
  std::vector<uint64_t> confirmed_ns;  ///< PING return of every round
  Samples to_queryable_ms;             ///< rounds begun in the window
  std::string error;
};

/// Rounds of kPingEvery frames, each closed by a PING barrier, until the
/// deadline.
void DataLoop(FrameSender& sender, const FramePool& pool, size_t index,
              const Window& window, SenderResult& out) {
  const uint64_t trace_base = (index + 1) << 48;
  while (NowNs() < window.deadline_ns) {
    const bool measured = window.measured(NowNs());
    uint64_t last_send_ns = 0;
    for (size_t i = 0; i < kPingEvery; ++i) {
      last_send_ns = NowNs();
      Span span("net.send_us_per_frame", trace_base + out.frames + 1);
      const ldpjs::Status status =
          sender.SendEncodedBatch(pool.frames[out.frames % pool.size()]);
      if (!status.ok()) {
        out.error = "DATA send failed: " + status.ToString();
        return;
      }
      ++out.frames;
    }
    Span span("net.ping_us", trace_base + out.frames);
    const ldpjs::Status status = sender.Ping();
    if (!status.ok()) {
      out.error = "PING failed: " + status.ToString();
      return;
    }
    const uint64_t confirmed_ns = NowNs();
    out.confirmed_ns.push_back(confirmed_ns);
    if (measured) {
      out.to_queryable_ms.Add(static_cast<double>(confirmed_ns - last_send_ns) /
                              1e6);
    }
  }
}

}  // namespace

void RunIngest(const Options& options, RunReport& report) {
  Samples setup_s;
  const std::unique_ptr<Setup> setup = RepeatedSetup<Setup>(
      [&] { return MakeSetup(options); }, setup_s, report);
  if (setup == nullptr) return;
  FrameServer& server = *setup->server;

  // ---- Timed window ------------------------------------------------------
  std::vector<SenderResult> results(kConnections);
  const Window window = Window::Open(options.seconds);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back(DataLoop, std::ref(setup->senders[c]),
                           std::cref(setup->inputs.pools[c]), c,
                           std::cref(window),
                           std::ref(results[c]));
    }
    for (std::thread& t : threads) t.join();
  }
  // Reports confirmed absorbed (their round's PING returned) in each whole
  // second of the window; the metric is the median second, so a stall of
  // the shared host in one second does not move it.
  const size_t seconds = static_cast<size_t>(
      (window.deadline_ns - window.measure_ns) / 1'000'000'000);
  std::vector<uint64_t> per_second(seconds, 0);
  Samples to_queryable_ms;
  for (const SenderResult& r : results) {
    report.Attempt(r.frames + r.confirmed_ns.size());
    if (!r.error.empty()) report.Fail(r.error);
    to_queryable_ms.Append(r.to_queryable_ms);
    for (uint64_t t : r.confirmed_ns) {
      if (!window.measured(t)) continue;
      const size_t second =
          static_cast<size_t>((t - window.measure_ns) / 1'000'000'000);
      if (second < seconds) per_second[second] += kPingEvery * kFrameReports;
    }
  }
  Samples reports_per_s;
  uint64_t reports = 0;
  for (uint64_t n : per_second) {
    reports_per_s.Add(static_cast<double>(n));
    reports += n;
  }

  // ---- Correctness: everything sent is in the lanes, bit for bit ---------
  LdpJoinSketchServer expected_raw(setup->params, kEpsilon);
  for (size_t c = 0; c < kConnections; ++c) {
    AbsorbCyclic(setup->inputs.pools[c], 0, results[c].frames, expected_raw);
  }
  const LdpJoinSketchServer expected = Finalized(expected_raw);
  const ldpjs::PublishedView expected_view(0, false, 0, expected);

  // Every answer on the final view (published by the last PING) equals the
  // in-process one bit for bit.
  Samples query_us;
  CheckServedAnswers(setup->senders[kConnections], expected_view,
                     setup->inputs.mix, kCheckQueries, report, &query_us);

  auto snapshot = setup->senders[0].SnapshotRawSketch();
  std::optional<LdpJoinSketchServer> lanes;
  if (snapshot.ok()) {
    auto decoded = LdpJoinSketchServer::Deserialize(*snapshot);
    if (decoded.ok()) lanes.emplace(std::move(*decoded));
  }
  report.Check(lanes.has_value() && SameLanes(*lanes, expected_raw),
               "server lanes differ from the in-process AbsorbBatch of the "
               "sent reports");

  const ldpjs::NetMetrics metrics = server.metrics();
  if (options.trace) {
    ReplayServerLayers(setup->params, setup->inputs.pools[0], 64,
                       *server.CurrentPublishedView(), &setup->inputs.probe,
                       setup->inputs.mix, setup->inputs.mix.size());
    ReplayPublishAndStats(server);
  }
  FinishSessions(setup->senders, metrics.frames_shed, metrics.queue_high_water,
                 metrics.views_published, report);
  server.Stop();
  const LdpJoinSketchServer final_sketch = server.Finalize();
  const LdpJoinSketchServer probe_final = Finalized(setup->inputs.probe);
  double estimate = 0.0;
  {
    Span span("core.join_estimate_us");
    estimate = final_sketch.JoinEstimate(probe_final);
  }
  report.Check(SameCells(final_sketch, expected) &&
                   SameBits(estimate, expected.JoinEstimate(probe_final)),
               "finalized sketch or JoinEstimate differs from in-process");

  std::printf("ingest: %llu reports confirmed in %zu s over %zu connections; "
              "per second: median %.4g, min %.4g, max %.4g\n",
              static_cast<unsigned long long>(reports), seconds, kConnections,
              reports_per_s.Median(), reports_per_s.Percentile(0),
              reports_per_s.Percentile(100));
  std::printf("  ingest_to_queryable %s\n",
              to_queryable_ms.Describe("ms").c_str());
  std::printf("  query (after the window, closed loop) %s\n",
              query_us.Describe("us").c_str());

  report.E2e("setup_s", setup_s.Median(), "s");
  report.E2e("ingest_reports_per_s", reports_per_s.Median(), "1/s");
  report.E2e("ingest_to_queryable_p50_ms", to_queryable_ms.Median(), "ms");
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  report.Info("ingest_to_queryable_p99_ms", to_queryable_ms.Percentile(99),
              "ms");
  report.Info("query_p50_us", query_us.Median(), "us");
  report.Info("query_p99_us", query_us.Percentile(99), "us");
}

}  // namespace perfbench
