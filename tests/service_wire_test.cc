// Wire decode hardening: DecodeReportBatch must agree with a per-report
// DecodeReport loop on every valid input, the fused AbsorbWireBatch must
// agree with decode + AbsorbBatch, and both must return Corruption —
// without reading out of bounds (the CI sanitize job runs these under
// ASan/UBSan) — on truncated, corrupted, or wrong-version buffers.
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "core/ldp_join_sketch.h"
#include "service/aggregator_shard.h"
#include "service/sharded_aggregator.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 4, int m = 128, uint64_t seed = 13) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

std::vector<LdpReport> RandomReports(size_t n, uint64_t seed,
                                     uint32_t j_bound = 4,
                                     uint32_t l_bound = 128) {
  std::vector<LdpReport> reports(n);
  Xoshiro256 rng(seed);
  for (auto& r : reports) {
    r.y = rng.NextBernoulli(0.5) ? int8_t{1} : int8_t{-1};
    r.j = static_cast<uint16_t>(rng.NextBounded(j_bound));
    r.l = static_cast<uint32_t>(rng.NextBounded(l_bound));
  }
  return reports;
}

std::vector<uint8_t> EncodeBatch(std::span<const LdpReport> reports) {
  BinaryWriter writer;
  EncodeReportBatch(reports, writer);
  return writer.TakeBuffer();
}

TEST(DecodeReportBatchTest, AgreesWithPerReportDecodeOnValidBatches) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 size_rng(seed);
    const size_t n = size_rng.NextBounded(kMaxWireBatchReports + 1);
    const std::vector<LdpReport> reports =
        RandomReports(n, seed * 101, 0x10000, 0xffffffffU);
    const std::vector<uint8_t> bytes = EncodeBatch(reports);

    std::vector<LdpReport> batch(kMaxWireBatchReports);
    BinaryReader batch_reader(bytes);
    auto count = DecodeReportBatch(batch_reader, batch);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(*count, n);
    EXPECT_TRUE(batch_reader.AtEnd());

    // The per-report reference path over the same packed records: skip the
    // envelope header (magic, version, count), then DecodeReport per record.
    BinaryReader scalar_reader(bytes);
    ASSERT_TRUE(scalar_reader.GetU32().ok());
    ASSERT_TRUE(scalar_reader.GetU8().ok());
    ASSERT_TRUE(scalar_reader.GetU32().ok());
    for (size_t i = 0; i < n; ++i) {
      auto report = DecodeReport(scalar_reader);
      ASSERT_TRUE(report.ok()) << "i=" << i;
      ASSERT_EQ(batch[i].y, report->y) << "i=" << i;
      ASSERT_EQ(batch[i].j, report->j) << "i=" << i;
      ASSERT_EQ(batch[i].l, report->l) << "i=" << i;
    }
  }
}

TEST(DecodeReportBatchTest, EveryTruncationFailsCleanly) {
  const std::vector<LdpReport> reports = RandomReports(17, 5);
  const std::vector<uint8_t> bytes = EncodeBatch(reports);
  std::vector<LdpReport> out(kMaxWireBatchReports);
  for (size_t len = 0; len < bytes.size(); ++len) {
    BinaryReader reader(std::span<const uint8_t>(bytes.data(), len));
    auto result = DecodeReportBatch(reader, out);
    ASSERT_FALSE(result.ok()) << "prefix length " << len;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST(DecodeReportBatchTest, RejectsBadMagicVersionCountAndSign) {
  const std::vector<LdpReport> reports = RandomReports(9, 7);
  std::vector<LdpReport> out(kMaxWireBatchReports);
  auto decode = [&](const std::vector<uint8_t>& bytes) {
    BinaryReader reader(bytes);
    return DecodeReportBatch(reader, out);
  };

  std::vector<uint8_t> bad_magic = EncodeBatch(reports);
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(decode(bad_magic).status().code(), StatusCode::kCorruption);

  std::vector<uint8_t> bad_version = EncodeBatch(reports);
  bad_version[4] = 9;  // version byte follows the magic
  auto version_result = decode(bad_version);
  ASSERT_FALSE(version_result.ok());
  EXPECT_NE(version_result.status().message().find("version"),
            std::string::npos);

  std::vector<uint8_t> bad_count = EncodeBatch(reports);
  bad_count[5] = 0xff;  // count low byte: 9 -> 255 > actual records
  bad_count[6] = 0xff;  // and far beyond kMaxWireBatchReports
  EXPECT_EQ(decode(bad_count).status().code(), StatusCode::kCorruption);

  std::vector<uint8_t> bad_sign = EncodeBatch(reports);
  bad_sign[9] = 2;  // first record's sign byte (after the 9-byte header)
  EXPECT_EQ(decode(bad_sign).status().code(), StatusCode::kCorruption);

  std::vector<uint8_t> bad_row = EncodeBatch(reports);
  bad_row[12] = 0x01;  // first record's j, third byte: j |= 0x10000
  EXPECT_EQ(decode(bad_row).status().code(), StatusCode::kCorruption);

  // A batch bigger than the caller's decode buffer is corruption, not UB.
  std::vector<LdpReport> tiny(4);
  const std::vector<uint8_t> valid = EncodeBatch(reports);
  BinaryReader valid_reader(valid);
  EXPECT_EQ(DecodeReportBatch(valid_reader, tiny).status().code(),
            StatusCode::kCorruption);
}

TEST(DecodeReportBatchTest, HugeDeclaredCountsCannotOverflowByteArithmetic) {
  // Regression: the declared count feeds a count·9 byte-size multiply. A
  // count like 0xffffffff must fail with a clean Corruption via the checked
  // multiply / caps — on every size_t width — never wrap into a small
  // GetRaw that lets the decode loop run past the buffer (ASan-covered).
  std::vector<LdpReport> out(kMaxWireBatchReports);
  for (const uint32_t declared :
       {uint32_t{0xffffffff}, uint32_t{0xe38e38e4} /* SIZE_MAX32/9 + 1 */,
        uint32_t{0x80000000}, uint32_t{kMaxWireBatchReports + 1}}) {
    BinaryWriter writer;
    EncodeReportBatch({}, writer);
    std::vector<uint8_t> bytes = writer.TakeBuffer();
    bytes[5] = static_cast<uint8_t>(declared);
    bytes[6] = static_cast<uint8_t>(declared >> 8);
    bytes[7] = static_cast<uint8_t>(declared >> 16);
    bytes[8] = static_cast<uint8_t>(declared >> 24);
    // Pad so a wrapped multiply would find "enough" bytes to start looping.
    bytes.resize(bytes.size() + 64, 0);
    BinaryReader reader(bytes);
    auto result = DecodeReportBatch(reader, out);
    ASSERT_FALSE(result.ok()) << "count=" << declared;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST(DecodeReportBatchTest, RandomGarbageNeverCrashesOrOverreads) {
  // Fuzz-ish sweep: random buffers, random lengths. The decoder may only
  // succeed by constructing strictly valid reports; everything else must be
  // a clean Corruption. ASan/UBSan (CI sanitize job) police the "no OOB
  // reads" half of the contract.
  Xoshiro256 rng(0xF00D);
  std::vector<LdpReport> out(kMaxWireBatchReports);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(rng.NextBounded(256));
    for (auto& b : bytes) b = static_cast<uint8_t>(rng());
    // Half the trials start from a valid header so the loop exercises the
    // record decode, not just the magic check.
    if (trial % 2 == 0 && bytes.size() >= 9) {
      const std::vector<uint8_t> header = EncodeBatch({});
      std::copy(header.begin(), header.begin() + 5, bytes.begin());
      bytes[5] = static_cast<uint8_t>(rng.NextBounded(32));  // small count
      bytes[6] = bytes[7] = bytes[8] = 0;
    }
    BinaryReader reader(bytes);
    auto result = DecodeReportBatch(reader, out);
    if (result.ok()) {
      for (size_t i = 0; i < *result; ++i) {
        ASSERT_TRUE(out[i].y == 1 || out[i].y == -1);
      }
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(AggregatorShardTest, RejectsOutOfShapeReportsWithoutPoisoningState) {
  const SketchParams params = TestParams(4, 128);
  AggregatorShard shard(params, 2.0);

  // l beyond m: codec-valid, shape-invalid. The shard must reject the frame
  // as Corruption (not abort) and absorb nothing from it.
  std::vector<LdpReport> reports = RandomReports(50, 3);
  reports[49].l = 128;
  const Status status = shard.IngestFrame(EncodeBatch(reports));
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(shard.reports_ingested(), 0u);
  EXPECT_EQ(shard.frames_ingested(), 0u);

  // j beyond k likewise.
  reports[49].l = 0;
  reports[0].j = 4;
  EXPECT_EQ(shard.IngestFrame(EncodeBatch(reports)).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(shard.reports_ingested(), 0u);

  // Trailing bytes after the record are corruption, not silently ignored.
  reports[0].j = 0;
  std::vector<uint8_t> padded = EncodeBatch(reports);
  padded.push_back(0);
  EXPECT_EQ(shard.IngestFrame(padded).code(), StatusCode::kCorruption);

  // And the same frame, clean, ingests.
  ASSERT_TRUE(shard.IngestFrame(EncodeBatch(reports)).ok());
  EXPECT_EQ(shard.reports_ingested(), 50u);
  EXPECT_EQ(shard.frames_ingested(), 1u);
}

// The fused wire absorb is exactly DecodeReportBatch + AbsorbBatch: same
// lanes, same report count, at a narrow and a wide sketch and at the
// envelope's edge counts.
TEST(AbsorbWireBatchTest, MatchesDecodeThenAbsorbBatch) {
  for (const int m : {1024, 16384}) {
    const SketchParams params = TestParams(18, m, 29);
    for (const size_t count : {size_t{0}, size_t{1}, kMaxWireBatchReports}) {
      SCOPED_TRACE(::testing::Message() << "m=" << m << " count=" << count);
      const std::vector<LdpReport> reports =
          RandomReports(count, 7 + count, 18, static_cast<uint32_t>(m));
      const std::vector<uint8_t> wire = EncodeBatch(reports);

      LdpJoinSketchServer fused(params, 2.0);
      ASSERT_TRUE(fused.AbsorbWireBatch(wire).ok());
      ASSERT_TRUE(fused.AbsorbWireBatch(wire).ok());  // lanes accumulate

      LdpJoinSketchServer reference(params, 2.0);
      std::vector<LdpReport> decoded(kMaxWireBatchReports);
      for (int pass = 0; pass < 2; ++pass) {
        BinaryReader reader(wire);
        auto n = DecodeReportBatch(reader, decoded);
        ASSERT_TRUE(n.ok());
        reference.AbsorbBatch(std::span<const LdpReport>(decoded).first(*n));
      }
      EXPECT_EQ(fused.total_reports(), 2 * count);
      EXPECT_EQ(fused.Serialize(), reference.Serialize());
    }
  }
}

// Every reject case leaves lanes and total_reports() untouched — including
// a bad report in the very last slot, after every other report validated.
TEST(AbsorbWireBatchTest, RejectsLeaveLanesUntouched) {
  const SketchParams params = TestParams(4, 128);
  const std::vector<LdpReport> reports = RandomReports(300, 11);
  const std::vector<uint8_t> good = EncodeBatch(reports);
  LdpJoinSketchServer sketch(params, 2.0);
  ASSERT_TRUE(sketch.AbsorbWireBatch(good).ok());
  const std::vector<uint8_t> before = sketch.Serialize();

  const auto put_u32 = [](std::vector<uint8_t>& bytes, size_t at,
                          uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  const size_t last = 9 + (reports.size() - 1) * kWireReportBytes;
  std::vector<std::pair<const char*, std::vector<uint8_t>>> cases;
  cases.emplace_back("bad magic", good);
  cases.back().second[0] ^= 0xff;
  cases.emplace_back("bad version", good);
  cases.back().second[4] = 9;
  cases.emplace_back("count above the limit", good);
  put_u32(cases.back().second, 5, kMaxWireBatchReports + 1);
  cases.emplace_back("truncated", good);
  cases.back().second.pop_back();
  cases.emplace_back("truncated header",
                     std::vector<uint8_t>(good.begin(), good.begin() + 8));
  cases.emplace_back("one trailing byte", good);
  cases.back().second.push_back(0);
  cases.emplace_back("y=2 on the last report", good);
  cases.back().second[last] = 2;
  cases.emplace_back("j=k on the last report", good);
  put_u32(cases.back().second, last + 1, static_cast<uint32_t>(params.k));
  cases.emplace_back("l=m on the last report", good);
  put_u32(cases.back().second, last + 5, static_cast<uint32_t>(params.m));

  for (const auto& [name, wire] : cases) {
    EXPECT_EQ(sketch.AbsorbWireBatch(wire).code(), StatusCode::kCorruption)
        << name;
    EXPECT_EQ(sketch.total_reports(), reports.size()) << name;
    EXPECT_EQ(sketch.Serialize(), before) << name;
  }
}

TEST(ShardedAggregatorTest, TruncatedStreamIsCorruption) {
  const SketchParams params = TestParams();
  ShardedAggregator aggregator(params, 1.0, 2);
  BinaryWriter stream;
  stream.PutFrame(EncodeBatch(RandomReports(10, 1)));
  std::vector<uint8_t> bytes = stream.TakeBuffer();
  bytes.resize(bytes.size() - 3);  // cut into the last frame's payload
  EXPECT_EQ(aggregator.IngestStream(bytes).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace ldpjs
