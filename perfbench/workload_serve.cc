// serve_mixed: reads beside writes on one FrameServer, all open loop.
//   - one DATA connection offers 2e7 reports/s (a 4096-report frame every
//     204.8 us), about a quarter of the measured saturating ingest rate,
//     with a PING barrier every 10 ms;
//   - two query connections offer 500 queries/s each: 80 % frequency,
//     10 % range_count, 5 % frequent_items, 5 % join_size. At the measured
//     single-thread service times of this mix (about 10 us, 300 us, 1.5 ms
//     and 450 us) that is about 14 % of one core;
//   - one STATS scrape per second, on a fourth connection.
// Neither stream builds a backlog, so latency shows service time and
// contention between reads and writes. The ingest rate sits between two
// that failed on a 4-vCPU VM: at 1e7 the vCPUs idle between requests and
// each latency mostly measured how long an idle vCPU takes to wake (2x
// apart from run to run); at 4e7 a slow spell of the shared host left the
// single ingest pump too little headroom and the generator fell behind.
// Every request is timed from when it was due, so a stall is charged to the
// requests queued behind it. The run is invalid, not reported, when the
// generator delivers less than 99 % of what was offered.
#include <algorithm>
#include <set>
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

constexpr int kServeM = 1024;
constexpr size_t kPoolFrames = 512;
constexpr double kOfferedReportsPerS = 2e7;
constexpr uint64_t kFrameIntervalNs = static_cast<uint64_t>(
    1e9 * static_cast<double>(kFrameReports) / kOfferedReportsPerS);
constexpr uint64_t kPingIntervalNs = 10'000'000;
constexpr uint64_t kQueryIntervalNs = 2'000'000;  // 500 queries/s per conn
constexpr size_t kQueryConnections = 2;
constexpr size_t kMixSize = 1024;
constexpr size_t kCheckQueries = 400;
constexpr double kMinDelivered = 0.99;

struct Setup {
  SketchParams params;
  ServedInputs inputs;
  std::unique_ptr<FrameServer> server;
  std::vector<FrameSender> senders;  // data, query 1, query 2, stats
};

std::unique_ptr<Setup> MakeSetup(const Options& options) {
  auto setup = std::make_unique<Setup>();
  setup->params = MakeParams(kServeM, options.seed);
  setup->inputs = MakeServedInputs(setup->params, 1, kPoolFrames, kMixSize,
                                   options.seed);
  setup->server = std::make_unique<FrameServer>(setup->params, kEpsilon,
                                                FrameServerOptions());
  if (!setup->server->Start().ok()) return nullptr;
  for (size_t c = 0; c < 2 + kQueryConnections; ++c) {
    auto sender = FrameSender::Connect("127.0.0.1", setup->server->port(),
                                       setup->params, kEpsilon);
    if (!sender.ok()) return nullptr;
    setup->senders.push_back(std::move(*sender));
  }
  return setup;
}


void DataLoop(FrameSender& sender, const FramePool& pool, const Window& window,
              OpenLoopResult& out) {
  uint64_t slot = 0;  // schedule index of the next frame
  uint64_t pings = 0, last_send_ns = 0;
  bool sent_since_ping = false;
  out.prefix_counts.push_back(0);
  while (true) {
    const uint64_t frame_due = window.start_ns + slot * kFrameIntervalNs;
    const uint64_t ping_due = window.start_ns + (pings + 1) * kPingIntervalNs;
    const bool ping_next = ping_due <= frame_due;
    const uint64_t due = ping_next ? ping_due : frame_due;
    if (due >= window.deadline_ns) break;
    const bool measured = window.measured(due);
    ping_next ? ++pings : ++slot;
    if (!ping_next && measured) ++out.offered;
    if (NowNs() >= window.deadline_ns) continue;  // fell behind: not sent
    const uint64_t late = WaitUntil(due);
    if (measured) out.late_us.Add(static_cast<double>(late) / 1e3);
    if (ping_next) {
      Span span("net.ping_us", (1ull << 62) + pings);
      const ldpjs::Status status = sender.Ping();
      if (!status.ok()) {
        out.error = "PING failed: " + status.ToString();
        return;
      }
      if (sent_since_ping && measured) {
        out.latency.Add(static_cast<double>(NowNs() - last_send_ns) / 1e6);
      }
      out.prefix_counts.push_back(out.sent * kFrameReports);
      sent_since_ping = false;
      continue;
    }
    last_send_ns = NowNs();
    Span span("net.send_us_per_frame", (1ull << 61) + out.sent + 1);
    const ldpjs::Status status =
        sender.SendEncodedBatch(pool.frames[out.sent % pool.size()]);
    if (!status.ok()) {
      out.error = "DATA send failed: " + status.ToString();
      return;
    }
    ++out.sent;
    if (measured) ++out.delivered;
    sent_since_ping = true;
  }
  // Final barrier: everything sent is queryable, and the prefix it publishes
  // is the view the post-run answers are checked on.
  const ldpjs::Status status = sender.Ping();
  if (!status.ok()) {
    out.error = "final PING failed: " + status.ToString();
    return;
  }
  out.prefix_counts.push_back(out.sent * kFrameReports);
}

}  // namespace

void RunServeMixed(const Options& options, RunReport& report) {
  Samples setup_s;
  const std::unique_ptr<Setup> setup = RepeatedSetup<Setup>(
      [&] { return MakeSetup(options); }, setup_s, report);
  if (setup == nullptr) return;
  FrameServer& server = *setup->server;

  // ---- Timed window: three generator threads, four connections ----------
  OpenLoopResult data, query[kQueryConnections];
  const Window window = Window::Open(options.seconds);
  {
    std::vector<std::thread> threads;
    threads.emplace_back(DataLoop, std::ref(setup->senders[0]),
                         std::cref(setup->inputs.pools[0]), std::cref(window),
                         std::ref(data));
    for (size_t q = 0; q < kQueryConnections; ++q) {
      threads.emplace_back(OpenLoopQueries, std::ref(setup->senders[1 + q]),
                           q == 1 ? &setup->senders[3] : nullptr,
                           std::cref(setup->inputs.mix), q, kQueryIntervalNs,
                           std::cref(window), std::ref(query[q]));
    }
    for (std::thread& t : threads) t.join();
  }
  const double window_s = window.measured_seconds();

  Samples late_us, query_us, stats_ms;
  late_us.Append(data.late_us);
  report.Attempt(data.sent + data.prefix_counts.size());
  if (!data.error.empty()) report.Fail(data.error);
  const std::set<uint64_t> prefixes(data.prefix_counts.begin(),
                                    data.prefix_counts.end());
  uint64_t queries_offered = 0, queries_delivered = 0;
  for (const OpenLoopResult& q : query) {
    report.Attempt(q.sent);
    if (!q.error.empty()) report.Fail(q.error);
    late_us.Append(q.late_us);
    query_us.Append(q.latency);
    stats_ms.Append(q.stats_ms);
    queries_offered += q.offered;
    queries_delivered += q.delivered;
    for (const OpenLoopResult::Answer& answer : q.answers) {
      if (prefixes.count(answer.view_reports) == 0) {
        report.Fail("a query saw view_reports=" +
                    std::to_string(answer.view_reports) +
                    ", which is no PING-prefix count");
      }
    }
  }

  // ---- Correctness: the final view equals the in-process one -------------
  const uint64_t frames = data.delivered;
  LdpJoinSketchServer expected_raw(setup->params, kEpsilon);
  AbsorbCyclic(setup->inputs.pools[0], 0, data.sent, expected_raw);
  const ldpjs::PublishedView expected_view(0, false, 0,
                                           Finalized(expected_raw));
  CheckServedAnswers(setup->senders[1], expected_view, setup->inputs.mix,
                     kCheckQueries, report, nullptr);

  const ldpjs::NetMetrics metrics = server.metrics();
  if (options.trace) {
    ReplayServerLayers(setup->params, setup->inputs.pools[0], 64,
                       *server.CurrentPublishedView(), &setup->inputs.probe,
                       setup->inputs.mix, 1024);
    ReplayPublishAndStats(server);
  }
  FinishSessions(setup->senders, metrics.frames_shed, metrics.queue_high_water,
                 metrics.views_published, report);
  server.Stop();

  // Open-loop validity: a generator that fell behind measured its own
  // backlog, not the server.
  const double ingest_delivered = Share(frames, data.offered);
  const double query_delivered = Share(queries_delivered, queries_offered);
  if (data.error.empty() && ingest_delivered < kMinDelivered) {
    report.invalid = "ingest delivered " + std::to_string(ingest_delivered) +
                     " of the offered rate";
  }
  if (query[0].error.empty() && query[1].error.empty() &&
      query_delivered < kMinDelivered) {
    report.invalid = "queries delivered " + std::to_string(query_delivered) +
                     " of the offered rate";
  }

  std::printf("serve_mixed: %llu frames, %llu queries in %.3f s\n",
              static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(queries_delivered), window_s);
  std::printf("  ingest_to_queryable %s\n",
              data.latency.Describe("ms").c_str());
  std::printf("  query (from due time) %s\n", query_us.Describe("us").c_str());
  std::printf("  loadgen late %s\n", late_us.Describe("us").c_str());
  std::printf("  stats scrape %s\n", stats_ms.Describe("ms").c_str());

  report.E2e("setup_s", setup_s.Median(), "s");
  report.E2e("ingest_reports_per_s",
             static_cast<double>(frames * kFrameReports) / window_s, "1/s");
  report.E2e("ingest_to_queryable_p50_ms", data.latency.Median(), "ms");
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  report.Info("ingest_to_queryable_p99_ms", data.latency.Percentile(99), "ms");
  report.Info("query_p50_us", query_us.Median(), "us");
  report.Info("query_p99_us", query_us.Percentile(99), "us");
  report.Info("loadgen_late_p99_us", late_us.Percentile(99), "us");
}

}  // namespace perfbench
