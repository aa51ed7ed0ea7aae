// federate_wide: two RegionalNodes, each fed by one closed-loop DATA
// connection, ship raw-lane epoch snapshots into a windowed CentralNode
// (window = 4 epochs). Sketches are wide (m = 16384, 2.36 MB per snapshot,
// larger than L2), so cut, serialize, ship, merge and window publish
// dominate, and the service layer merges lanes rather than absorbing
// reports. Each region sends 2^20 reports per epoch, PINGs, and the two
// regions then call CutAndShip together (a barrier aligns their cuts, so
// the epoch-visibility time measures the ship path, not the skew between
// two free-running senders). One connection offers 2,000 windowed
// frequency queries/s to the central, open loop; each answer must come from
// a window at least as new as the last epoch completed before it was sent.
#include <algorithm>
#include <barrier>
#include <thread>

#include "bench.h"
#include "federation/central_node.h"
#include "federation/regional_node.h"
#include "federation/windowed_view.h"
#include "net/frame_sender.h"
#include "service/published_view.h"
#include "service/sharded_aggregator.h"

namespace perfbench {
namespace {

using ldpjs::CentralNode;
using ldpjs::CentralNodeOptions;
using ldpjs::FrameSender;
using ldpjs::RegionalNode;
using ldpjs::RegionalNodeOptions;

constexpr int kFederateM = 16384;
constexpr size_t kRegions = 2;
constexpr uint64_t kEpochFrames = 256;  // 2^20 reports per region epoch
/// Not a multiple of an epoch, so consecutive epochs hold different frames
/// and the windowed check can tell which epochs the window covers.
constexpr size_t kPoolFrames = 320;
constexpr uint64_t kWindowEpochs = 4;
constexpr uint64_t kQueryIntervalNs = 500'000;  // 2,000 queries/s
constexpr size_t kQueryKeys = 4096;
constexpr double kMinDelivered = 0.99;

struct Setup {
  SketchParams params;
  std::vector<FramePool> pools;
  std::vector<QueryRequest> queries;  // windowed frequency queries
  std::unique_ptr<CentralNode> central;
  std::vector<std::unique_ptr<RegionalNode>> regions;
  std::vector<FrameSender> senders;  // region 0, region 1, central query
};

CentralNodeOptions CentralOptions() {
  CentralNodeOptions options;
  options.window_epochs = kWindowEpochs;
  options.window_expected_regions = kRegions;
  return options;
}

std::unique_ptr<Setup> MakeSetup(const Options& options) {
  auto setup = std::make_unique<Setup>();
  setup->params = MakeParams(kFederateM, options.seed);
  const size_t pool_rows = kPoolFrames * kFrameReports;
  const std::vector<uint64_t> values =
      ZipfValues(kRegions * pool_rows + kQueryKeys,
                 ldpjs::DeriveStreamSeed(options.seed, 1));
  const std::span<const uint64_t> all(values);
  for (size_t r = 0; r < kRegions; ++r) {
    setup->pools.push_back(
        MakeFramePool(setup->params, all.subspan(r * pool_rows, pool_rows),
                      ldpjs::DeriveStreamSeed(options.seed, 10 + r)));
  }
  for (uint64_t key : all.subspan(kRegions * pool_rows, kQueryKeys)) {
    QueryRequest request;
    request.kind = QueryKind::kFrequency;
    request.key = key;
    setup->queries.push_back(request);
  }

  setup->central = std::make_unique<CentralNode>(setup->params, kEpsilon,
                                                 CentralOptions());
  if (!setup->central->Start().ok()) return nullptr;
  for (size_t r = 0; r < kRegions; ++r) {
    RegionalNodeOptions region;
    region.region_id = static_cast<uint32_t>(r);
    region.central_port = setup->central->port();
    setup->regions.push_back(
        std::make_unique<RegionalNode>(setup->params, kEpsilon, region));
    if (!setup->regions.back()->Start().ok()) return nullptr;
  }
  for (size_t c = 0; c <= kRegions; ++c) {
    const uint16_t port = c < kRegions ? setup->regions[c]->port()
                                       : setup->central->port();
    auto sender =
        FrameSender::Connect("127.0.0.1", port, setup->params, kEpsilon);
    if (!sender.ok()) return nullptr;
    setup->senders.push_back(std::move(*sender));
  }
  return setup;
}

struct EpochTimes {
  uint64_t first_send_ns = 0;
  uint64_t last_send_ns = 0;
  uint64_t cut_start_ns = 0;
  uint64_t cut_end_ns = 0;
};

struct RegionResult {
  std::vector<EpochTimes> epochs;  ///< one per epoch cut and shipped
  uint64_t frames = 0;
  std::string error;
};

/// Shared by the two region threads.
struct Coordination {
  Window window;
  bool keep_going = true;  ///< written by the barrier's completion step
};

/// The cut barrier's completion step: decides, once per epoch, whether both
/// regions go on after this cut.
struct DecideContinue {
  Coordination* shared;
  void operator()() noexcept {
    shared->keep_going = NowNs() < shared->window.deadline_ns;
  }
};
using CutBarrier = std::barrier<DecideContinue>;

void RegionLoop(FrameSender& sender, RegionalNode& region,
                const FramePool& pool, size_t index, Coordination& shared,
                CutBarrier& cut_barrier,
                RegionResult& out) {
  const uint64_t trace_base = (index + 1) << 48;
  for (uint64_t epoch = 0;; ++epoch) {
    EpochTimes times;
    times.first_send_ns = NowNs();
    for (uint64_t i = 0; i < kEpochFrames; ++i) {
      times.last_send_ns = NowNs();
      Span span("net.send_us_per_frame", trace_base + out.frames + 1);
      const ldpjs::Status status =
          sender.SendEncodedBatch(pool.frames[out.frames % pool.size()]);
      if (!status.ok()) {
        out.error = "DATA send failed: " + status.ToString();
        cut_barrier.arrive_and_drop();
        return;
      }
      ++out.frames;
    }
    {
      Span span("net.ping_us", trace_base + out.frames);
      const ldpjs::Status status = sender.Ping();
      if (!status.ok()) {
        out.error = "PING failed: " + status.ToString();
        cut_barrier.arrive_and_drop();
        return;
      }
    }
    cut_barrier.arrive_and_wait();
    const bool keep_going = shared.keep_going;
    times.cut_start_ns = NowNs();
    ldpjs::Status status;
    {
      Span span("federation.cut_and_ship_ms", (3ull << 60) + epoch + 1);
      status = region.CutAndShip();
    }
    times.cut_end_ns = NowNs();
    if (!status.ok()) {
      out.error = "CutAndShip failed: " + status.ToString();
      cut_barrier.arrive_and_drop();
      return;
    }
    out.epochs.push_back(times);
    if (!keep_going) return;
  }
}

/// Epoch-level replay for the traced run: cut, serialize, merge, window
/// apply and ship, on this thread, over the same frames the regions got.
void ReplayEpochLayers(const Setup& setup, uint64_t epochs) {
  std::vector<std::vector<uint8_t>> snapshots;  // epoch-major, then region
  for (uint64_t e = 0; e < epochs; ++e) {
    for (size_t r = 0; r < kRegions; ++r) {
      ldpjs::ShardedAggregator aggregator(setup.params, kEpsilon, 1);
      for (uint64_t i = 0; i < kEpochFrames; ++i) {
        const auto& frame = setup.pools[r].frames[(e * kEpochFrames + i) %
                                                  setup.pools[r].size()];
        (void)aggregator.IngestFrame(frame);
      }
      ldpjs::ShardedAggregator::EpochCut cut;
      {
        Span span("service.cut_epoch_ms", (3ull << 60) + e + 1);
        cut = aggregator.CutEpoch();
      }
      auto sketch = LdpJoinSketchServer::Deserialize(cut.raw_sketch);
      if (!sketch.ok()) continue;
      Span span("federation.serialize_ms", (3ull << 60) + e + 1,
                cut.raw_sketch.size());
      snapshots.push_back(sketch->Serialize());
    }
  }
  ldpjs::ShardedAggregator central(setup.params, kEpsilon, 1);
  ldpjs::WindowedView window(setup.params, kEpsilon, kWindowEpochs, kRegions);
  for (size_t i = 0; i < snapshots.size(); ++i) {
    const uint64_t epoch = i / kRegions;
    const uint32_t region = static_cast<uint32_t>(i % kRegions);
    {
      Span span("federation.merge_ms", (3ull << 60) + epoch + 1);
      auto sketch = LdpJoinSketchServer::Deserialize(snapshots[i]);
      if (sketch.ok()) central.MergeRawSketch(0, *sketch);
    }
    auto sketch = LdpJoinSketchServer::Deserialize(snapshots[i]);
    if (!sketch.ok()) continue;
    Span span("federation.window_apply_ms", (3ull << 60) + epoch + 1);
    window.OnEpochApplied(region, epoch, &*sketch);
  }
  // Ship the same snapshots to a fresh central over TCP.
  CentralNode replay_central(setup.params, kEpsilon, CentralOptions());
  if (!replay_central.Start().ok()) return;
  auto sender = FrameSender::Connect("127.0.0.1", replay_central.port(),
                                     setup.params, kEpsilon);
  if (!sender.ok()) return;
  for (size_t i = 0; i < snapshots.size(); ++i) {
    Span span("net.push_epoch_ms", (3ull << 60) + i / kRegions + 1);
    (void)sender->PushEpochSnapshot(static_cast<uint32_t>(i % kRegions),
                                    i / kRegions, snapshots[i]);
  }
  (void)sender->Finish();
  replay_central.Stop();
}

}  // namespace

void RunFederateWide(const Options& options, RunReport& report) {
  Samples setup_s;
  const std::unique_ptr<Setup> setup = RepeatedSetup<Setup>(
      [&] { return MakeSetup(options); }, setup_s, report);
  if (setup == nullptr) return;
  CentralNode& central = *setup->central;

  // ---- Timed window: two region threads and one query thread -------------
  Coordination shared;
  shared.window = Window::Open(options.seconds);
  CutBarrier cut_barrier(static_cast<std::ptrdiff_t>(kRegions),
                         DecideContinue{&shared});
  std::vector<RegionResult> regions(kRegions);
  OpenLoopResult queries;
  {
    std::vector<std::thread> threads;
    for (size_t r = 0; r < kRegions; ++r) {
      threads.emplace_back(RegionLoop, std::ref(setup->senders[r]),
                           std::ref(*setup->regions[r]),
                           std::cref(setup->pools[r]), r, std::ref(shared),
                           std::ref(cut_barrier), std::ref(regions[r]));
    }
    threads.emplace_back(OpenLoopQueries, std::ref(setup->senders[kRegions]),
                         nullptr, std::cref(setup->queries), 0,
                         kQueryIntervalNs, std::cref(shared.window),
                         std::ref(queries));
    for (std::thread& t : threads) t.join();
  }

  uint64_t epochs = regions[0].epochs.size();
  for (const RegionResult& r : regions) {
    report.Attempt(r.frames + 2 * r.epochs.size());
    if (!r.error.empty()) report.Fail(r.error);
    epochs = std::min<uint64_t>(epochs, r.epochs.size());
  }
  report.Attempt(queries.sent);
  if (!queries.error.empty()) report.Fail(queries.error);

  // Epochs whose sending began in the measured part of the window count.
  // Throughput is per epoch cycle — both regions' reports of one epoch over
  // the time from the previous epoch's completing ack to this one's — and
  // the metric is the median cycle, so one stalled epoch does not move it.
  constexpr double kEpochReports =
      static_cast<double>(kRegions * kEpochFrames * kFrameReports);
  Samples to_queryable_ms, visible_ms, reports_per_s;
  std::vector<uint64_t> completed_ns;  // per epoch: its completing ack
  for (uint64_t e = 0; e < epochs; ++e) {
    uint64_t first_send = UINT64_MAX, last_send = 0, first_cut = UINT64_MAX,
             completed = 0;
    for (const RegionResult& r : regions) {
      first_send = std::min(first_send, r.epochs[e].first_send_ns);
      last_send = std::max(last_send, r.epochs[e].last_send_ns);
      first_cut = std::min(first_cut, r.epochs[e].cut_start_ns);
      completed = std::max(completed, r.epochs[e].cut_end_ns);
    }
    completed_ns.push_back(completed);
    if (e == 0 || !shared.window.measured(first_send)) continue;
    reports_per_s.Add(kEpochReports /
                      (static_cast<double>(completed - completed_ns[e - 1]) *
                       1e-9));
    to_queryable_ms.Add(static_cast<double>(completed - last_send) / 1e6);
    visible_ms.Add(static_cast<double>(completed - first_cut) / 1e6);
  }

  // A windowed query sent after epoch e completed at both regions must be
  // answered from a view whose aligned frontier is at least e.
  for (const OpenLoopResult::Answer& answer : queries.answers) {
    const uint64_t completed = static_cast<uint64_t>(
        std::upper_bound(completed_ns.begin(), completed_ns.end(),
                         answer.sent_ns) -
        completed_ns.begin());
    if (completed > 0 &&
        !(answer.view_aligned && answer.view_epoch + 1 >= completed)) {
      report.Fail("a windowed query sent after epoch " +
                  std::to_string(completed - 1) +
                  " was visible answered from epoch " +
                  std::to_string(answer.view_epoch));
      break;
    }
  }

  // ---- Correctness: lifetime and windowed views == in-process sums -------
  LdpJoinSketchServer lifetime(setup->params, kEpsilon);
  LdpJoinSketchServer windowed(setup->params, kEpsilon);
  const uint64_t first_windowed =
      epochs > kWindowEpochs ? epochs - kWindowEpochs : 0;
  for (size_t r = 0; r < kRegions; ++r) {
    AbsorbCyclic(setup->pools[r], 0, epochs * kEpochFrames, lifetime);
    AbsorbCyclic(setup->pools[r], (first_windowed * kEpochFrames) % kPoolFrames,
                 (epochs - first_windowed) * kEpochFrames, windowed);
  }
  const ldpjs::WindowedView& window = *central.window();
  report.Check(epochs > 0 && window.aligned() &&
                   window.frontier() + 1 == epochs,
               "windowed frontier is not the last completed epoch");
  report.Check(SameCells(central.FinalizedView(), Finalized(lifetime)),
               "central lifetime view differs from the in-process sum of "
               "every shipped epoch");
  report.Check(SameCells(central.WindowedFinalizedView(), Finalized(windowed)),
               "central windowed view differs from the in-process sum of the "
               "last window's epochs");

  if (options.trace) {
    ReplayServerLayers(setup->params, setup->pools[0], 64,
                       *central.WindowedPublishedView(), nullptr,
                       setup->queries, 1024);
    ReplayEpochLayers(*setup, std::min<uint64_t>(epochs, kWindowEpochs));
    ReplayPublishAndStats(central.server_mutable());
    for (int rep = 0; rep < 3; ++rep) {
      Span span("obs.stats_scrape_ms");
      (void)setup->senders[kRegions].Stats();
    }
  }

  uint64_t ship_retries = 0, duplicate_acks = 0, shipped = 0, shipped_bytes = 0;
  uint64_t frames_shed = 0, queue_high_water = 0;
  for (auto& region : setup->regions) {
    ship_retries += region->ship_retries();
    duplicate_acks += region->duplicate_acks();
    shipped += region->epochs_shipped();
    shipped_bytes += region->snapshot_bytes_shipped();
    const ldpjs::NetMetrics metrics = region->server().metrics();
    frames_shed += metrics.frames_shed;
    queue_high_water = std::max(queue_high_water, metrics.queue_high_water);
  }
  FinishSessions(setup->senders, frames_shed, queue_high_water,
                 central.metrics().views_published, report);
  for (auto& region : setup->regions) {
    report.Check(region->FlushAndStop().ok(), "region flush failed");
  }
  central.Stop();

  const double delivered = Share(queries.delivered, queries.offered);
  if (queries.error.empty() && delivered < kMinDelivered) {
    report.invalid = "windowed queries delivered " + std::to_string(delivered) +
                     " of the offered rate";
  }

  std::printf("federate_wide: %llu epochs x %zu regions, %zu measured, "
              "%llu windowed queries; per epoch cycle: median %.4g reports/s, "
              "min %.4g, max %.4g\n",
              static_cast<unsigned long long>(epochs), kRegions,
              reports_per_s.size(),
              static_cast<unsigned long long>(queries.delivered),
              reports_per_s.Median(), reports_per_s.Percentile(0),
              reports_per_s.Percentile(100));
  std::printf("  ingest_to_queryable (last frame -> epoch visible) %s\n",
              to_queryable_ms.Describe("ms").c_str());
  std::printf("  epoch_visible (first cut -> completing cut) %s\n",
              visible_ms.Describe("ms").c_str());
  std::printf("  query (from due time) %s\n",
              queries.latency.Describe("us").c_str());
  std::printf("  loadgen late %s\n", queries.late_us.Describe("us").c_str());

  report.E2e("setup_s", setup_s.Median(), "s");
  report.E2e("ingest_reports_per_s", reports_per_s.Median(), "1/s");
  report.E2e("ingest_to_queryable_p50_ms", to_queryable_ms.Median(), "ms");
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  report.Info("ingest_to_queryable_p99_ms", to_queryable_ms.Percentile(99),
              "ms");
  report.Info("query_p50_us", queries.latency.Median(), "us");
  report.Info("query_p99_us", queries.latency.Percentile(99), "us");
  report.Info("epoch_visible_p50_ms", visible_ms.Median(), "ms");
  report.Info("epoch_visible_p99_ms", visible_ms.Percentile(99), "ms");
  report.Info("loadgen_late_p99_us", queries.late_us.Percentile(99), "us");

  report.Layer("federation.snapshot_bytes",
               shipped > 0 ? static_cast<double>(shipped_bytes) /
                                 static_cast<double>(shipped)
                           : 0.0,
               "count");
  report.Layer("federation.ship_retries", static_cast<double>(ship_retries),
               "count");
  report.Layer("federation.duplicate_acks", static_cast<double>(duplicate_acks),
               "count");
}

}  // namespace perfbench
