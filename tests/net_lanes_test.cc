// Connection-local lanes: every FrameServer reader absorbs its own DATA
// frames into its connection's lane set, departed connections fold into a
// settled accumulator, and SNAPSHOT / PublishView / CutEpochSnapshot /
// Finalize sum the lot. Raw integer lanes make any partition of the report
// stream merge exactly, so these tests pin that the lane layout can never
// change an answer, that consecutive cuts partition the stream even while
// connections come and go, and that PING_OK still means "your frames are
// in the published view".
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "net/protocol.h"

namespace ldpjs {
namespace {

SketchParams TestParams() {
  SketchParams params;
  params.k = 6;
  params.m = 256;
  params.seed = 33;
  return params;
}

std::vector<LdpReport> PerturbColumn(const LdpJoinSketchClient& client,
                                     size_t n, uint64_t seed) {
  std::vector<uint64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = (i * 2654435761u) % 1500;
  std::vector<LdpReport> reports(n);
  Xoshiro256 rng(seed);
  client.PerturbBatch(values, reports, rng);
  return reports;
}

std::vector<uint8_t> EncodeBatch(std::span<const LdpReport> reports) {
  BinaryWriter writer;
  EncodeReportBatch(reports, writer);
  return writer.TakeBuffer();
}

// SNAPSHOT between bursts of DATA observes exactly the frames sent before
// it on this connection: the reader absorbs synchronously, so no barrier
// is needed.
TEST(NetConnectionLanesTest, SnapshotOrderedAfterConnectionData) {
  const SketchParams params = TestParams();
  const double epsilon = 1.5;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> first = PerturbColumn(client, 12000, 5);
  const std::vector<LdpReport> second = PerturbColumn(client, 9000, 6);

  FrameServer server(params, epsilon, FrameServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());

  LdpJoinSketchServer direct(params, epsilon);
  ASSERT_TRUE(sender->SendReports(first).ok());
  direct.AbsorbBatch(first);
  auto snapshot1 = sender->SnapshotRawSketch();
  ASSERT_TRUE(snapshot1.ok());
  EXPECT_EQ(*snapshot1, direct.Serialize());

  ASSERT_TRUE(sender->SendReports(second).ok());
  direct.AbsorbBatch(second);
  auto snapshot2 = sender->SnapshotRawSketch();
  ASSERT_TRUE(snapshot2.ok());
  EXPECT_EQ(*snapshot2, direct.Serialize());

  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
}

// Four concurrent senders while another thread interleaves PING, SNAPSHOT
// and CutEpochSnapshot, and one raw connection disconnects mid-frame: the
// cuts plus the final Finalize account for every absorbed report exactly
// once, bit for bit.
TEST(NetConnectionLanesTest, CutsPartitionStreamAcrossConnectionChurn) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  constexpr size_t kSenders = 4;
  constexpr size_t kFrames = 24;
  constexpr size_t kFrameReports = 1000;
  std::vector<std::vector<LdpReport>> partitions;
  for (size_t s = 0; s < kSenders; ++s) {
    partitions.push_back(
        PerturbColumn(client, kFrames * kFrameReports, 50 + s));
  }
  // The mid-stream disconnect: whole frames, then a truncated one.
  const std::vector<LdpReport> dropped = PerturbColumn(client, 6000, 77);

  FrameServer server(params, epsilon, FrameServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  std::atomic<size_t> senders_done{0};
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      auto sender =
          FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
      ASSERT_TRUE(sender.ok());
      const std::span<const LdpReport> all(partitions[s]);
      for (size_t f = 0; f < kFrames; ++f) {
        const std::vector<uint8_t> frame =
            EncodeBatch(all.subspan(f * kFrameReports, kFrameReports));
        ASSERT_TRUE(sender->SendEncodedBatch(frame).ok());
      }
      ASSERT_TRUE(sender->Finish().ok());
      senders_done.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    auto socket = Socket::ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(socket.ok());
    SessionHello hello;
    hello.k = static_cast<uint32_t>(params.k);
    hello.m = static_cast<uint32_t>(params.m);
    hello.seed = params.seed;
    hello.epsilon = epsilon;
    ASSERT_TRUE(
        WriteNetFrame(*socket, NetFrameType::kHello, EncodeHello(hello)).ok());
    auto ok = ReadNetFrame(*socket, kMaxControlFramePayload);
    ASSERT_TRUE(ok.ok());
    ASSERT_EQ(ok->type, NetFrameType::kHelloOk);
    const std::span<const LdpReport> all(dropped);
    for (size_t f = 0; f < dropped.size() / kFrameReports; ++f) {
      const std::vector<uint8_t> frame =
          EncodeBatch(all.subspan(f * kFrameReports, kFrameReports));
      ASSERT_TRUE(WriteNetFrame(*socket, NetFrameType::kData, frame).ok());
    }
    // A header promising 4096 payload bytes, 10 of them, then EOF.
    const uint8_t partial[15] = {0x00, 0x10, 0x00, 0x00,
                                 static_cast<uint8_t>(NetFrameType::kData)};
    ASSERT_TRUE(socket->SendAll(partial).ok());
    socket->ShutdownBoth();
    senders_done.fetch_add(1);
  });

  std::vector<ShardedAggregator::EpochCut> cuts;
  {
    auto control =
        FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
    ASSERT_TRUE(control.ok());
    for (size_t round = 0; senders_done.load() < kSenders + 1; ++round) {
      switch (round % 3) {
        case 0:
          ASSERT_TRUE(control->Ping().ok());
          break;
        case 1: {
          auto snapshot = control->SnapshotRawSketch();
          ASSERT_TRUE(snapshot.ok());
          auto lanes = LdpJoinSketchServer::Deserialize(*snapshot);
          ASSERT_TRUE(lanes.ok());
          // Frames are absorbed whole: every sum holds whole frames.
          EXPECT_EQ(lanes->total_reports() % kFrameReports, 0u);
          break;
        }
        default:
          cuts.push_back(server.CutEpochSnapshot());
          EXPECT_EQ(cuts.back().reports % kFrameReports, 0u);
          break;
      }
    }
    ASSERT_TRUE(control->Finish().ok());
  }
  for (std::thread& t : threads) t.join();
  cuts.push_back(server.CutEpochSnapshot());  // live, after every sender
  server.Stop();

  LdpJoinSketchServer direct(params, epsilon);
  for (const auto& partition : partitions) direct.AbsorbBatch(partition);
  direct.AbsorbBatch(dropped);  // every whole frame before the truncation
  LdpJoinSketchServer cut_sum(params, epsilon);
  uint64_t cut_reports = 0;
  for (const ShardedAggregator::EpochCut& cut : cuts) {
    auto lanes = LdpJoinSketchServer::Deserialize(cut.raw_sketch);
    ASSERT_TRUE(lanes.ok());
    EXPECT_EQ(lanes->total_reports(), cut.reports);
    cut_sum.Merge(*lanes);
    cut_reports += cut.reports;
  }
  // Finalize sees exactly what no cut took: direct − Σ cuts, bit for bit.
  LdpJoinSketchServer rest = direct;
  rest.SubtractRaw(cut_sum);
  rest.Finalize();
  const LdpJoinSketchServer finalized = server.Finalize();
  EXPECT_EQ(finalized.Serialize(), rest.Serialize());
  EXPECT_EQ(cut_reports + finalized.total_reports(), direct.total_reports());
  const NetMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.reports_ingested, direct.total_reports());
  EXPECT_EQ(metrics.corrupt_frames_rejected, 1u);  // the truncated frame
}

// Once a connection's PING_OK returns, CurrentPublishedView() holds all of
// its frames — and everything other connections had confirmed by PING_OK
// before it pinged — even with concurrent senders republishing and a
// SNAPSHOT reader in the mix.
TEST(NetConnectionLanesTest, PingOkMeansFramesArePublished) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  constexpr size_t kSenders = 4;
  constexpr size_t kRounds = 12;
  constexpr size_t kRoundReports = 1500;
  std::vector<std::vector<LdpReport>> partitions;
  for (size_t s = 0; s < kSenders; ++s) {
    partitions.push_back(PerturbColumn(client, kRounds * kRoundReports, 9 + s));
  }

  FrameServer server(params, epsilon, FrameServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  // Reports whose PING_OK has returned, over every sender.
  std::atomic<uint64_t> confirmed{0};
  std::atomic<size_t> senders_done{0};
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      auto sender =
          FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
      ASSERT_TRUE(sender.ok());
      const std::span<const LdpReport> all(partitions[s]);
      for (size_t r = 0; r < kRounds; ++r) {
        ASSERT_TRUE(
            sender->SendReports(all.subspan(r * kRoundReports, kRoundReports))
                .ok());
        const uint64_t floor = confirmed.load() + kRoundReports;
        ASSERT_TRUE(sender->Ping().ok());
        EXPECT_GE(server.CurrentPublishedView()->reports(), floor)
            << "sender " << s << " round " << r;
        confirmed.fetch_add(kRoundReports);
      }
      ASSERT_TRUE(sender->Finish().ok());
      senders_done.fetch_add(1);
    });
  }
  {
    auto control =
        FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
    ASSERT_TRUE(control.ok());
    while (senders_done.load() < kSenders) {
      ASSERT_TRUE(control->SnapshotRawSketch().ok());
      ASSERT_TRUE(control->Ping().ok());
    }
    ASSERT_TRUE(control->Finish().ok());
  }
  for (std::thread& t : threads) t.join();
  server.PublishView();
  EXPECT_EQ(server.CurrentPublishedView()->reports(),
            kSenders * kRounds * kRoundReports);
  server.Stop();

  LdpJoinSketchServer direct(params, epsilon);
  for (const auto& partition : partitions) direct.AbsorbBatch(partition);
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
}

// Sessions that never send DATA hold no lanes, and a server that only ever
// saw such sessions finalizes to the empty sketch.
TEST(NetConnectionLanesTest, QueryOnlySessionsFinalizeEmpty) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServer server(params, epsilon, FrameServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());
  ASSERT_TRUE(sender->Ping().ok());
  auto snapshot = sender->SnapshotRawSketch();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(*snapshot, LdpJoinSketchServer(params, epsilon).Serialize());
  ASSERT_TRUE(sender->Finish().ok());
  const ShardedAggregator::EpochCut cut = server.CutEpochSnapshot();
  EXPECT_EQ(cut.reports, 0u);
  server.Stop();
  LdpJoinSketchServer empty(params, epsilon);
  empty.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), empty.Serialize());
}

}  // namespace
}  // namespace ldpjs
