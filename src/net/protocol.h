// LJSP session protocol v1: the framing and handshake the TCP front end
// speaks between FrameSender clients and the FrameServer.
//
// Transport framing (everything little-endian):
//
//   +----------------+--------+----------------------------+
//   | u32 payload_len| u8 type| payload (payload_len bytes)|
//   +----------------+--------+----------------------------+
//
// Session flow:
//
//   client                                server
//     | -- HELLO {magic,ver,k,m,seed,eps} -> |   params must match exactly
//     | <- HELLO_OK {ver,shards,ack_mode} -- |   (else ERROR + close)
//     | -- DATA {LJSB batch envelope} -----> |   absorbed by the reader
//     | <- DATA_ACK {code} ---------------- |   (acked_data sessions only;
//     |            ...                       |    code busy = retry frame)
//     | -- SNAPSHOT ----------------------> |
//     | <- SNAPSHOT_DATA {raw-lane sketch}- |   merged un-finalized lanes
//     | -- PING --------------------------> |   ordered-after-DATA barrier
//     | <- PING_OK ------------------------ |   (no lanes shipped back)
//     | -- BYE ---------------------------> |
//     | <- BYE_OK ------------------------- |   all of this connection's
//     |  close                              |   frames are ingested
//
// A client ending the whole collection sends FINALIZE instead of BYE as
// its last message; FINALIZE_OK carries the same "everything you sent is
// ingested" guarantee (control frames are ordered after the connection's
// DATA), and the server may tear the session down right after confirming.
//
// DATA payloads are exactly the "LJSB" batch-envelope records the in-process
// service ingests (EncodeReportBatch), so the network tier adds framing and
// flow control but never re-encodes reports — which is what makes the TCP
// path bit-identical to in-process ingestion.
#ifndef LDPJS_NET_PROTOCOL_H_
#define LDPJS_NET_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "common/socket.h"
#include "common/status.h"
#include "core/params.h"

namespace ldpjs {

inline constexpr uint32_t kNetMagic = 0x50534A4CU;  // "LJSP" little-endian
/// v2: HELLO may announce a region id and HELLO_OK answers with the
/// server's next-expected epoch for that region (the restart/resume sync);
/// EPOCH_PUSH_OK carries the same next-epoch alongside its ack code; PING/
/// PING_OK give clients a cheap ordered-after-DATA ingest barrier. v1
/// peers are rejected at the handshake with a clear error.
///
/// v3: the HELLO carries the client's version and the HELLO_OK echoes the
/// negotiated one (min of the two sides), so v2 peers keep working
/// unchanged; on a v3 session the client may send QUERY frames — join-size
/// / frequency / frequent-items / multiway-chain / AQP range estimates
/// answered from the server's RCU-published finalized view (see
/// service/published_view.h) without ever touching the ingest locks. A v2
/// session sending QUERY gets ERROR + close.
///
/// v4: observability. Negotiated in HELLO exactly like v3 (the HELLO/
/// HELLO_OK layout is unchanged, only the accepted band widens), so v2/v3
/// peers keep working byte-for-byte. On a v4 session the client may send
/// STATS_REQUEST (answered immediately with a STATS JSON frame, never
/// behind the ingest drain barrier) and may wrap a DATA/EPOCH_PUSH/QUERY
/// frame in a TRACED envelope carrying a compact trace context — a u64
/// trace id plus the wall-clock origin timestamp stamped where the batch
/// was encoded — so a sampled batch can be timed across every tier it
/// crosses. Untraced frames are byte-identical to v3, preserving the
/// bit-identity invariant of the ingest path.
///
/// v5: fleet observability. Negotiated in HELLO exactly like v3/v4 (the
/// HELLO/HELLO_OK layout is unchanged, only the accepted band widens), so
/// v2..v4 peers keep working byte-for-byte. On a v5 session a regional
/// aggregator may ship its full stats snapshot upstream with STATS_PUSH —
/// counters, gauges, and *raw* log2 histogram buckets, never precomputed
/// percentiles, because bucket arrays merge losslessly by elementwise
/// addition (the same mergeability argument that federates the sketches)
/// — and any client may ask the central for its merged fleet view with
/// FLEET_STATS_REQUEST. A v4-or-older session sending either gets ERROR +
/// close; a v5 client talking to a v4 server refuses locally without
/// touching the wire.
inline constexpr uint8_t kNetVersion = 5;
/// Oldest protocol version this build still speaks.
inline constexpr uint8_t kNetMinVersion = 2;

/// Frame types. Client→server: kHello, kData, kSnapshot, kFinalize, kBye,
/// kEpochPush, kPing. Server→client: kHelloOk, kDataAck, kSnapshotData,
/// kFinalizeOk, kByeOk, kError, kEpochPushOk, kPingOk.
enum class NetFrameType : uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kData = 3,
  kDataAck = 4,
  kSnapshot = 5,
  kSnapshotData = 6,
  /// Payload: empty (anonymous — every request counts), or u32 region_id
  /// (federation: a region's forwarded FINALIZE counts once per region no
  /// matter how many times a retry resends it).
  kFinalize = 7,
  kFinalizeOk = 8,
  kBye = 9,
  kByeOk = 10,
  kError = 11,
  /// Federation: a regional aggregator ships one epoch's raw-lane snapshot
  /// upstream. Payload: u32 region_id, u64 epoch, then the serialized
  /// un-finalized sketch — or zero sketch bytes for an empty-epoch
  /// heartbeat (the region had nothing to ship but its epoch clock still
  /// advances, so an idle region never freezes the windowed view's
  /// aligned frontier). Ordered after the connection's DATA like the
  /// other non-DATA frames; never shed.
  kEpochPush = 12,
  /// Ack for kEpochPush: an EpochPushAckCode byte plus the server's
  /// next-expected epoch for the pushing region (see EpochPushAck).
  /// `kDuplicate` makes a retried push after an ambiguous failure
  /// exactly-once — the central tier dedups on (region_id, epoch) and
  /// never double-merges.
  kEpochPushOk = 13,
  /// Ingest barrier: an empty no-op frame, ordered after every DATA frame
  /// its connection sent (like the other control frames) and answered with
  /// kPingOk. PING_OK is therefore proof that everything sent before it is
  /// in the lanes — the cheap barrier epoch-sensitive drivers use before a
  /// cut, where SNAPSHOT (which ships the full lanes back) would be waste.
  kPing = 14,
  kPingOk = 15,
  /// v3 read path: one query against the server's published finalized view.
  /// Payload: a QueryRequest (see below). Unlike the other non-DATA frames
  /// a QUERY is NOT ordered after the connection's DATA — it is answered
  /// immediately from the latest published snapshot, so a query can never
  /// stall (or be stalled by) ingest or the finalize barrier. Clients that
  /// want "my own writes visible" send PING first: the server republishes
  /// at every PING barrier and epoch boundary.
  kQuery = 16,
  /// Payload: a QueryResponse — the answer plus the identity (sequence /
  /// epoch / report count) of the published view that produced it.
  kQueryOk = 17,
  /// v4 read path: ask the server for its stats snapshot. Empty payload;
  /// answered immediately with kStats (like QUERY, a stats scrape is never
  /// ordered behind the connection's DATA — an ops probe must not stall on
  /// a busy ingest queue).
  kStatsRequest = 18,
  /// Payload: one UTF-8 JSON object (see obs/stats_export.h) — the same
  /// serializer output the SIGUSR1 dump and the JSONL exporter emit.
  kStats = 19,
  /// v4 trace envelope: u8 inner frame type (kData, kEpochPush or kQuery)
  /// + u64 trace_id + u64 origin_ns, then the inner frame's payload
  /// unchanged to the end of the frame. The receiver unwraps, notes the
  /// trace context, and handles the inner frame exactly as if it had
  /// arrived bare — tracing rides alongside the bytes, it never re-encodes
  /// them.
  kTraced = 20,
  /// v5 fleet telemetry: a regional node ships its stats snapshot to the
  /// central. Payload: a FleetSnapshot (see obs/fleet_stats.h) — u32
  /// region_id, u64 capture timestamp, then the registry's counters,
  /// gauges, and histograms with raw bucket arrays. Like STATS_REQUEST it
  /// is answered immediately (telemetry must not stall behind a busy
  /// ingest queue), and a lost or failed push is harmless — the next one
  /// carries the cumulative totals again.
  kStatsPush = 21,
  /// Ack for kStatsPush (empty payload): the snapshot is in the central's
  /// per-region fleet store.
  kStatsPushOk = 22,
  /// v5 fleet read path: ask the central for its merged fleet view. Empty
  /// payload; answered immediately with kFleetStats.
  kFleetStatsRequest = 23,
  /// Payload: a FleetView (see obs/fleet_stats.h) — every region's last
  /// pushed snapshot plus the exactly-merged cluster histograms and the
  /// per-region / cluster health verdicts.
  kFleetStats = 24,
};

/// Hard cap on client→server frame payloads. A batch envelope is at most
/// 9 + 4096·9 bytes, so anything near this cap is garbage; bounding it
/// keeps a malicious length prefix from making the server allocate.
inline constexpr size_t kMaxIngestFramePayload = 64 * 1024;

/// Cap on server→client payloads (snapshots carry k·m raw i64 lanes).
inline constexpr size_t kMaxControlFramePayload = size_t{256} * 1024 * 1024;

/// Cap on a QUERY frame payload. The heavy kinds carry serialized sketches
/// (a probe sketch is k·m doubles; a multiway middle is k·m1·m2), so this
/// admits realistic probes and moderate middle matrices while keeping a
/// hostile length prefix from making the server allocate unboundedly.
inline constexpr size_t kMaxQueryFramePayload = size_t{32} * 1024 * 1024;

/// Caps on the O(domain)/O(width) query kinds: a frequent-items or range
/// scan costs O(domain·k) server-side, so an unbounded request is a DoS.
/// Requests above these are rejected with InvalidArgument, never evaluated.
inline constexpr uint64_t kMaxQueryDomain = uint64_t{1} << 22;
inline constexpr uint64_t kMaxQueryRangeWidth = uint64_t{1} << 22;
/// Cap on middle sketches in one multiway-chain query.
inline constexpr size_t kMaxQueryMiddles = 8;

/// DATA_ACK payload (one byte).
enum class DataAckCode : uint8_t {
  kAbsorbed = 0,
  kBusy = 1,  ///< shed by backpressure — retriable
};

/// HELLO payload: the sketch session parameters. The server accepts a
/// connection only if every field matches its own configuration bit for bit
/// (mismatched params would silently poison lanes, never mergeable).
/// A regional aggregator's upstream session additionally announces its
/// region id, so the HELLO_OK can carry the server's next-expected epoch
/// for that region — the sync a restarted incarnation uses to number its
/// epochs above everything its predecessor already shipped.
struct SessionHello {
  /// The client's protocol version. The server accepts any version in
  /// [kNetMinVersion, kNetVersion] and answers with the negotiated session
  /// version (the minimum of the two sides) in HELLO_OK.
  uint8_t version = kNetVersion;
  uint32_t k = 0;
  uint32_t m = 0;
  uint64_t seed = 0;
  double epsilon = 0.0;
  bool has_region = false;
  uint32_t region_id = 0;
};

std::vector<uint8_t> EncodeHello(const SessionHello& hello);
Result<SessionHello> DecodeHello(std::span<const uint8_t> payload);

/// HELLO_OK payload: protocol version echo plus the server's shard count
/// and whether every DATA frame will be acked (shed-mode flow control).
/// FrameServer absorbs DATA on the reader thread and relies on TCP flow
/// control alone, so it always answers num_shards = 1, acked_data = false;
/// the fields keep the wire layout and FrameSender's busy-retry path.
/// `region_next_epoch` answers a region-announcing HELLO with the first
/// epoch the server has NOT applied for that region (0 when the region has
/// never pushed, or when the HELLO carried no region).
struct SessionHelloOk {
  uint8_t version = kNetVersion;
  uint32_t num_shards = 0;
  bool acked_data = false;
  uint64_t region_next_epoch = 0;
};

std::vector<uint8_t> EncodeHelloOk(const SessionHelloOk& ok);
Result<SessionHelloOk> DecodeHelloOk(std::span<const uint8_t> payload);

/// EPOCH_PUSH_OK result code.
enum class EpochPushAckCode : uint8_t {
  kApplied = 0,    ///< snapshot merged into the central lanes
  kDuplicate = 1,  ///< (region, epoch) already applied — retry resolved
};

/// EPOCH_PUSH_OK payload: the ack code plus the server's next-expected
/// epoch for the pushing region (its high-water + 1, after this push). The
/// shipper folds it into its own numbering, so region and central converge
/// on an epoch sequence even across restarts and clock steps.
struct EpochPushAck {
  EpochPushAckCode code = EpochPushAckCode::kApplied;
  uint64_t next_epoch = 0;
};

std::vector<uint8_t> EncodeEpochPushAck(const EpochPushAck& ack);
Result<EpochPushAck> DecodeEpochPushAck(std::span<const uint8_t> payload);

/// EPOCH_PUSH payload header; the serialized raw-lane sketch follows it to
/// the end of the frame (no inner length prefix — the transport frame
/// already delimits it).
struct EpochPush {
  uint32_t region_id = 0;
  uint64_t epoch = 0;
  std::span<const uint8_t> raw_sketch;  ///< zero-copy view into the payload
};

/// Transport bytes an EPOCH_PUSH adds on top of the sketch itself.
inline constexpr size_t kEpochPushHeaderBytes = 12;

std::vector<uint8_t> EncodeEpochPush(uint32_t region_id, uint64_t epoch,
                                     std::span<const uint8_t> raw_sketch);
/// The decoded view borrows `payload` — keep it alive.
Result<EpochPush> DecodeEpochPush(std::span<const uint8_t> payload);

/// Upper bound on a well-formed EPOCH_PUSH payload for `params`-shaped
/// sessions: push header + the measured size of a serialized raw-lane
/// sketch of that shape. Anything larger is garbage, so servers read
/// session frames with max(kMaxIngestFramePayload, this) and a malicious
/// length prefix still cannot make them allocate unboundedly.
size_t EpochPushPayloadBound(const SketchParams& params);

/// What a QUERY asks of the published view. Every kind is answered from
/// one immutable snapshot, so the reply is internally consistent even
/// while ingest and epoch cuts run concurrently.
enum class QueryKind : uint8_t {
  /// Join size |view ⋈ probe|: the probe payload is a serialized
  /// LdpJoinSketchServer for the other table (raw lanes are finalized
  /// server-side; params/seed must match the view's sketch).
  kJoinSize = 0,
  /// Thm-7 frequency estimate f̂(key).
  kFrequency = 1,
  /// Values in [0, domain) with f̂ > threshold (FAP phase 1). Sorted
  /// ascending in the reply; domain capped by kMaxQueryDomain.
  kFrequentItems = 2,
  /// Chain join |view ⋈ M_1 ⋈ ... ⋈ M_p ⋈ probe| (Eq. 27): the payload
  /// carries p serialized finalized LdpMultiwayServer middles plus the
  /// right-end probe sketch; the published view is the left end.
  kMultiwayChain = 3,
  /// AQP COUNT(*) WHERE key in [lo, hi] (width capped).
  kRangeCount = 4,
  /// AQP join size restricted to keys in [lo, hi]: Σ f̂_view·f̂_probe.
  kPredicateJoin = 5,
};

/// One decoded QUERY payload. Only the fields for `kind` are meaningful;
/// the codec writes/reads exactly the fields that kind defines, so a
/// truncated or over-long payload is always Corruption.
struct QueryRequest {
  QueryKind kind = QueryKind::kFrequency;
  uint64_t key = 0;           ///< kFrequency
  uint64_t domain = 0;        ///< kFrequentItems
  double threshold = 0.0;     ///< kFrequentItems
  uint64_t range_lo = 0;      ///< kRangeCount, kPredicateJoin
  uint64_t range_hi = 0;      ///< kRangeCount, kPredicateJoin
  /// Serialized LdpJoinSketchServer probe (kJoinSize, kMultiwayChain's
  /// right end, kPredicateJoin).
  std::vector<uint8_t> probe_sketch;
  /// Serialized finalized LdpMultiwayServer middles (kMultiwayChain).
  std::vector<std::vector<uint8_t>> middles;
};

std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& request);
Result<QueryRequest> DecodeQueryRequest(std::span<const uint8_t> payload);

/// One QUERY_OK payload: the answer plus the identity of the published
/// view that produced it. `value` is bit-exact over the wire (doubles are
/// memcpy round-trips), which is what lets a served answer be pinned
/// bit-identical to the in-process estimate on the same view.
struct QueryResponse {
  QueryKind kind = QueryKind::kFrequency;
  uint64_t view_sequence = 0;  ///< publication counter of the view
  bool view_aligned = false;   ///< windowed views: frontier established
  uint64_t view_epoch = 0;     ///< aligned frontier (windowed) else 0
  uint64_t view_reports = 0;   ///< reports inside the view's sketch
  double value = 0.0;          ///< scalar answer (all kinds)
  std::vector<uint64_t> items; ///< kFrequentItems: sorted ascending
};

std::vector<uint8_t> EncodeQueryResponse(const QueryResponse& response);
Result<QueryResponse> DecodeQueryResponse(std::span<const uint8_t> payload);

/// One decoded TRACED envelope (v4): the inner frame type, the trace
/// context, and a zero-copy view of the inner payload.
struct TracedFrame {
  NetFrameType inner_type = NetFrameType::kData;
  uint64_t trace_id = 0;
  uint64_t origin_ns = 0;
  std::span<const uint8_t> inner_payload;  ///< borrows the outer payload
};

/// Bytes a TRACED envelope adds in front of the inner payload
/// (u8 inner type + u64 trace id + u64 origin timestamp).
inline constexpr size_t kTracedHeaderBytes = 17;

std::vector<uint8_t> EncodeTraced(NetFrameType inner_type, uint64_t trace_id,
                                  uint64_t origin_ns,
                                  std::span<const uint8_t> inner_payload);
/// The decoded view borrows `payload` — keep it alive. Rejects inner types
/// other than kData/kEpochPush/kQuery (wrapping a control frame would let
/// tracing bypass the drain-barrier ordering those frames rely on).
Result<TracedFrame> DecodeTraced(std::span<const uint8_t> payload);

/// ERROR payload: one status-code byte plus the message bytes. The decoded
/// Status is what the failing server-side operation returned, so a client
/// can distinguish a retriable condition from a protocol violation.
std::vector<uint8_t> EncodeErrorPayload(const Status& status);
Status DecodeErrorPayload(std::span<const uint8_t> payload);

/// One parsed transport frame (payload bytes owned).
struct NetFrame {
  NetFrameType type = NetFrameType::kError;
  std::vector<uint8_t> payload;
};

/// Writes one frame (u32 len + u8 type + payload) to the socket.
Status WriteNetFrame(const Socket& socket, NetFrameType type,
                     std::span<const uint8_t> payload);

/// Reads one frame (empty payloads are valid — the control frames carry
/// none). A clean close on a frame boundary returns NotFound (end of
/// session); a close mid-frame, an unknown type, or a payload above
/// `max_payload` returns Corruption without reading further.
Result<NetFrame> ReadNetFrame(const Socket& socket, size_t max_payload);

/// A reusable receive buffer for the allocation-free ReadNetFrame overload.
/// Capacity only grows (to the largest frame seen) and is never zero-filled:
/// a long-lived session reads every frame into the same bytes.
class NetFrameBuffer {
 public:
  std::span<const uint8_t> payload() const { return {data_.get(), size_}; }

 private:
  friend Result<NetFrameType> ReadNetFrame(const Socket& socket,
                                           size_t max_payload,
                                           NetFrameBuffer& buffer);
  std::unique_ptr<uint8_t[]> data_;
  size_t capacity_ = 0;
  size_t size_ = 0;
};

/// ReadNetFrame into a caller-owned buffer: the same bounds and corruption
/// checks, no per-frame allocation. Returns the frame type; the payload is
/// buffer.payload(), valid until the next read into `buffer`.
Result<NetFrameType> ReadNetFrame(const Socket& socket, size_t max_payload,
                                  NetFrameBuffer& buffer);

}  // namespace ldpjs

#endif  // LDPJS_NET_PROTOCOL_H_
