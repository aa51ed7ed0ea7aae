// FrameServer: the TCP ingestion front end of the aggregation service —
// and, in the federated deployment, both the regional ingest tier (it can
// cut epoch snapshots of its raw lanes) and the central tier (it merges
// EPOCH_PUSH snapshots shipped upstream by regions). Accepts many
// concurrent client connections, speaks the LJSP session protocol (see
// net/protocol.h), and absorbs every DATA frame into raw integer lanes.
//
// Threading model (reader-absorb):
//   - one acceptor thread;
//   - one reader thread per connection. It does the HELLO handshake, reads
//     each frame into a connection-owned buffer, absorbs DATA frames
//     synchronously (LdpJoinSketchServer::AbsorbWireBatch, straight from
//     the wire bytes) into the connection's own lane set, and handles the
//     connection's control frames itself. A connection allocates its lane
//     set on its first DATA frame, so query-only and push-only sessions
//     hold none. The set's mutex is contended only by the summing paths
//     below, one set at a time, and is never held together with mu_;
//   - when a reader exits, it folds its lane set into the "settled"
//     accumulator (allocated lazily), which also takes every EPOCH_PUSH
//     merge;
//   - SNAPSHOT, PublishView, FinalizedView and CutEpochSnapshot sum the
//     settled accumulator and the live lane sets, skipping empty ones;
//     Finalize reads the settled accumulator after Stop. A cut zeroes each
//     set inside the same critical section that sums it, and a departing
//     connection moves its lanes into the settled accumulator atomically
//     with respect to every sum, so each report lands in exactly one cut.
//
// Raw lanes are integer ±1 sums, so any partition of the report stream
// over lane sets merges bit-identically: the served sketch is independent
// of which connection carried a report, and of frame interleaving (the
// service exactness invariant).
//
// Ordering: a reader absorbs each DATA frame before it reads the next
// frame, so a control frame (SNAPSHOT / EPOCH_PUSH / PING / FINALIZE /
// BYE) sees every DATA frame its connection sent before it — SNAPSHOT_DATA,
// PING_OK, FINALIZE_OK and BYE_OK mean "everything you sent is in the
// lanes" with no barrier. PING and FINALIZE republish the lifetime view
// before acking, and publications are serialized, so once PING_OK returns
// CurrentPublishedView() holds all of that connection's frames. Ordering
// across connections is unspecified, which raw lanes make harmless.
//
// Backpressure: TCP flow control, and nothing else. A reader that is busy
// absorbing does not read its socket, so the kernel receive buffer fills
// and the client's sends block. There is no ingest queue, so no DATA frame
// is ever shed: HELLO_OK always announces num_shards = 1 and
// acked_data = false. Server memory is one lane set per connection that
// has sent DATA, plus the settled accumulator — never proportional to
// client traffic.
//
// Untrusted input: a malformed transport frame, an oversized length prefix,
// a corrupt LJSB envelope or pushed sketch, a mid-frame disconnect, or a
// HELLO with mismatched sketch params can never crash the server or touch a
// lane — each is counted in the metrics and the offending connection is
// closed.
#ifndef LDPJS_NET_FRAME_SERVER_H_
#define LDPJS_NET_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/ldp_join_sketch.h"
#include "net/net_metrics.h"
#include "net/protocol.h"
#include "obs/events.h"
#include "obs/fleet_stats.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/published_view.h"
#include "service/sharded_aggregator.h"

namespace ldpjs {

struct FrameServerOptions {
  uint16_t port = 0;          ///< 0 = ephemeral; read back with port()
  /// SO_SNDTIMEO on accepted sockets: a client that requests a reply
  /// (SNAPSHOT, acks) but stops reading can stall a server-side write for
  /// at most this long before the write fails and the connection is cut.
  /// 0 disables the guard.
  int send_timeout_seconds = 30;
  /// SO_RCVTIMEO on accepted sockets — the idle-connection watchdog: a
  /// client that goes silent for this long is reaped (counted in
  /// idle_reaped) and its fd/thread reclaimed. 0 (default) disables the
  /// deadline: a regional shipper legitimately idles between epochs, so
  /// only deployments that know their traffic cadence should arm this.
  int idle_timeout_seconds = 0;
  /// Fault-injection site label stamped on every accepted socket (chaos
  /// runs check "<fault_site>.send"/".recv"). Empty — the default —
  /// disables injection on server-side connections.
  std::string fault_site;
  /// Called exactly once per fresh (region, epoch) EPOCH_PUSH, after the
  /// snapshot is merged into the lanes and before the push is acked — the
  /// (region, epoch) dedup guarantees the exactly-once, and a retried
  /// push's duplicate ack waits for the original's observer call, so a
  /// region's epochs are observed strictly in order. `snapshot` is the
  /// decoded, validated raw-lane snapshot — the server discards it after
  /// the call, so the observer may move from it — or nullptr for an
  /// empty-epoch heartbeat (an idle region advancing its epoch clock;
  /// nothing merged). Invoked on the pushing connection's reader thread,
  /// concurrently across regions; the observer synchronizes itself (see
  /// federation/WindowedView). Keep it cheap — the pushing region waits on
  /// the ack behind it.
  std::function<void(uint32_t region_id, uint64_t epoch,
                     LdpJoinSketchServer* snapshot)>
      epoch_observer;
  /// Where QUERY frames read from. Unset (default): the server's own
  /// published lifetime view (everything merged so far, republished at
  /// every EPOCH_PUSH, PING barrier, and FINALIZE). Set it to route
  /// queries elsewhere — a windowed CentralNode points it at its
  /// WindowedView's publisher so QUERY answers cover the sliding window.
  /// Must be cheap and lock-free (called per query on reader threads);
  /// must never return null.
  std::function<std::shared_ptr<const PublishedView>()> query_view_source;
  /// What a STATS frame snapshots. Unset (default): the server's own
  /// metrics(). A RegionalNode points it at its augmented metrics() so a
  /// stats scrape of the regional ingest port also sees the ship-side
  /// counters (retries, backoff, spool) the bare server cannot know.
  std::function<NetMetrics()> stats_metrics_source;
  /// Thresholds for the health evaluator — both this server's own "health"
  /// verdict and, on a central, the per-region verdicts over STATS_PUSH
  /// snapshots. Transitions land in events().
  HealthOptions health;
};

class FrameServer {
 public:
  /// Params/epsilon every client HELLO must match bit for bit.
  FrameServer(const SketchParams& params, double epsilon,
              const FrameServerOptions& options);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens, and starts the acceptor thread.
  Status Start();

  /// Bound port (valid after Start; resolves an ephemeral bind).
  uint16_t port() const { return port_; }

  /// Blocks until at least `count` FINALIZE frames have been processed
  /// (a central aggregator fed by N regions waits for N).
  void WaitForFinalizeRequests(size_t count);
  void WaitForFinalizeRequest() { WaitForFinalizeRequests(1); }

  /// Epoch cut (regional tier): serializes the merged raw lanes of
  /// everything ingested since the last cut, zeroing each lane set as it
  /// is summed. Frames absorbed after their set was summed land in the
  /// next epoch — merging every cut is bit-identical to never cutting.
  /// Callable while the server is live or after Stop() (the final flush),
  /// but not after Finalize().
  ShardedAggregator::EpochCut CutEpochSnapshot();

  /// The trace context of the oldest traced DATA frame absorbed since the
  /// last cut, claimed by CutEpochSnapshot() — a RegionalNode attaches it
  /// to the cut's pending snapshot so the context (and its client-side
  /// origin timestamp) rides the EPOCH_PUSH upstream and the central tier
  /// can record true client→central ingest-to-queryable latency. Inactive
  /// context when no traced frame landed in the cut epoch.
  TraceContext TakeCutTrace();

  /// A finalized copy of everything currently in the lanes, without
  /// disturbing collection — how a central aggregator answers estimates at
  /// an epoch boundary while regions keep streaming. Sums every lane set
  /// (k·m lanes each) per call; steady-state readers should hold
  /// CurrentPublishedView() instead.
  LdpJoinSketchServer FinalizedView() const;

  /// The latest RCU-published lifetime view (atomic load, no ingest
  /// locks). Published at Start (empty), at every applied EPOCH_PUSH, at
  /// every PING barrier, and at FINALIZE — so "ping, then query" reads
  /// your own writes. Never null after Start.
  std::shared_ptr<const PublishedView> CurrentPublishedView() const {
    return publisher_.Current();
  }

  /// Merges and finalizes the current lanes and publishes them as a fresh
  /// view (what PING does implicitly). Callable any time after Start.
  void PublishView();

  /// Disconnects every currently attached client (whatever their readers
  /// absorbed stays in the lanes; the listener stays open, so clients may
  /// reconnect).
  /// An ops action — kick all sessions — and the chaos hook the federation
  /// tests use to force a mid-epoch regional disconnect/retry.
  void DisconnectClients();

  /// Shutdown: stops accepting, disconnects any client still attached
  /// (what its reader absorbed is kept — but a client is only guaranteed
  /// fully ingested if its Finish()/BYE_OK completed first), waits for
  /// every reader to fold its lanes, joins threads. Idempotent.
  void Stop();

  /// Merged + finalized sketch — callable exactly once, after Stop(), so
  /// the global k·c_ε debias and row transforms happen exactly once, over
  /// the settled accumulator every reader has folded into. Bit-identical
  /// to a single node absorbing the same reports.
  LdpJoinSketchServer Finalize();

  /// Consistent snapshot of the per-connection/per-region counters.
  NetMetrics metrics() const;

  /// The JSON a STATS frame answers with: the stats_metrics_source (or the
  /// server's own metrics()) serialized together with the process-global
  /// registry through the one shared serializer (obs/stats_export.h) —
  /// plus, since v5, "health" (this server's own verdict), "fleet" (the
  /// merged view over pushed region snapshots; empty regions list when
  /// nothing has pushed), and "events" (the bounded transition ring).
  std::string StatsJson() const;

  /// The merged fleet view over every STATS_PUSH received so far, rendered
  /// now — what a FLEET_STATS frame answers with.
  FleetView CurrentFleetView() const;

  /// The structured event ring (health transitions, reconnects, spool
  /// replays, idle reaps). RegionalNode records its ship-side events here
  /// so one scrape of the node tells the whole story.
  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

 private:
  /// One connection's raw lanes. Only the connection's reader absorbs
  /// into it; the summing paths lock it one set at a time.
  struct LaneSet {
    LaneSet(const SketchParams& params, double epsilon)
        : sketch(params, epsilon) {}
    Mutex mu;
    LdpJoinSketchServer sketch LDPJS_GUARDED_BY(mu);
  };
  struct Connection {
    uint64_t id = 0;
    Socket socket;
    /// Negotiated LJSP version (min of client's HELLO and ours). QUERY is
    /// only legal at >= 3; a v2 session sending one gets ERROR + close.
    uint8_t version = kNetVersion;
    std::thread reader;
    /// Serializes socket writes (acks, replies). A nested struct cannot
    /// name the owning server's mu_ in a GUARDED_BY, so reader_done carries
    /// its discipline as a comment; the enclosing class's annotated
    /// methods are where the analysis enforces it.
    Mutex write_mu;
    bool reader_done = false;  ///< guarded by FrameServer::mu_
    /// Reader-thread state: the receive buffer every frame is read into,
    /// and the lane set (allocated on the first DATA frame, registered in
    /// live_lanes_, folded into settled_ and released when the reader
    /// exits).
    NetFrameBuffer frame;
    std::unique_ptr<LaneSet> lanes;
    std::atomic<uint64_t> frames_received{0};
    std::atomic<uint64_t> bytes_received{0};
    std::atomic<uint64_t> reports_ingested{0};
    std::atomic<uint64_t> corrupt_frames{0};
  };
  struct RegionState {
    uint64_t next_epoch = 0;  ///< pushes below this are duplicates
    /// Epochs reserved but not yet merged+observed. A retry of one of
    /// these waits for the original to complete before its duplicate ack,
    /// so "kDuplicate" always means "applied", never "in flight" — and
    /// the epoch observer sees a region's epochs strictly in order even
    /// when a connection dies mid-merge and the shipper retries on a
    /// fresh one.
    std::set<uint64_t> inflight;
    RegionMetrics metrics;
  };

  void AcceptLoop();
  void ReaderLoop(Connection* conn);
  /// Absorbs one DATA payload into the connection's lane set (allocating
  /// it on first use). Returns false when the connection should be closed
  /// (corrupt envelope; the lanes are untouched).
  bool HandleData(Connection& conn, std::span<const uint8_t> payload,
                  const TraceContext& trace);
  /// Reader exit: unregisters the connection's lane set and folds it into
  /// settled_, atomically with respect to every sum.
  void RetireLanes(Connection& conn) LDPJS_EXCLUDES(lanes_mu_);
  void HandleSnapshot(Connection& conn);
  void HandleEpochPush(Connection& conn, std::span<const uint8_t> payload,
                       const TraceContext& trace);
  /// Answers one QUERY from the published view. Returns false when the
  /// connection should be closed (corrupt payload). Touches no lane, so
  /// queries cannot stall, or be stalled by, ingest.
  bool HandleQuery(Connection& conn, std::span<const uint8_t> payload,
                   const TraceContext& trace);
  /// Answers one STATS_REQUEST with the StatsJson() payload.
  void HandleStats(Connection& conn);
  /// Absorbs one STATS_PUSH into the fleet store (health transitions go to
  /// the event log) and acks. Returns false when the connection should be
  /// closed (corrupt payload).
  bool HandleStatsPush(Connection& conn, std::span<const uint8_t> payload);
  /// Answers one FLEET_STATS_REQUEST with the encoded CurrentFleetView().
  void HandleFleetStats(Connection& conn);
  /// Notes a traced frame absorbed into the lanes: the pending-publish and
  /// pending-cut slots keep the oldest unclaimed origin, so the claimed
  /// latency is the conservative (worst) one across a publish interval.
  void NoteAbsorbedTrace(const TraceContext& trace);
  void RecordQueryOutcome(size_t kind_index, uint64_t start_ns, bool rejected);
  bool AllReadersDone() const LDPJS_REQUIRES(mu_);
  void ReapFinishedConnections() LDPJS_EXCLUDES(mu_);
  ConnectionMetrics SnapshotConnection(const Connection& conn) const;
  void SendError(Connection& conn, const Status& status);
  bool HelloMatches(const SessionHello& hello) const;
  /// Sum of settled_ and every non-empty live lane set (un-finalized).
  LdpJoinSketchServer MergeLanes() const LDPJS_EXCLUDES(lanes_mu_);

  SketchParams params_;
  double epsilon_;
  FrameServerOptions options_;
  size_t max_session_payload_;    ///< DATA cap or EPOCH_PUSH bound

  /// The lane registry. Lock order: publish_mu_ → lanes_mu_ →
  /// LaneSet::mu; none of them is ever held together with mu_.
  mutable Mutex lanes_mu_;
  /// Lane sets of connections whose readers are live.
  std::vector<LaneSet*> live_lanes_ LDPJS_GUARDED_BY(lanes_mu_);
  /// Departed connections' lanes plus every EPOCH_PUSH merge; allocated
  /// on first use, emptied by each cut.
  std::optional<LdpJoinSketchServer> settled_ LDPJS_GUARDED_BY(lanes_mu_);
  /// Serializes PublishView from sum to swap, so a publication never
  /// replaces a newer one and "PING, then query" reads your own writes.
  Mutex publish_mu_;

  Socket listener_;
  uint16_t port_ = 0;
  std::thread acceptor_;

  mutable Mutex mu_;
  CondVar drain_cv_;     ///< waits for readers to exit / pushes to land
  CondVar finalize_cv_;
  /// Live connections only: once a connection's reader has exited, it is
  /// reaped (thread joined, counters folded into departed_) — server
  /// memory does not grow with the total number of clients ever served.
  std::vector<std::unique_ptr<Connection>> connections_ LDPJS_GUARDED_BY(mu_);
  /// Final per-conn snapshots, newest last. Bounded: once it exceeds
  /// kMaxDepartedRows the oldest rows are folded into departed_folded_ —
  /// a reconnect storm grows counters, never memory.
  std::deque<ConnectionMetrics> departed_ LDPJS_GUARDED_BY(mu_);
  /// Accumulator of folded rows / rows folded so far.
  ConnectionMetrics departed_folded_ LDPJS_GUARDED_BY(mu_);
  uint64_t connections_folded_ LDPJS_GUARDED_BY(mu_) = 0;
  std::map<uint32_t, RegionState> regions_ LDPJS_GUARDED_BY(mu_);
  bool started_ LDPJS_GUARDED_BY(mu_) = false;
  bool stopping_ LDPJS_GUARDED_BY(mu_) = false;
  bool stopped_ LDPJS_GUARDED_BY(mu_) = false;
  /// Finalize barrier state: anonymous FINALIZEs count
  /// every time, region-tagged ones once per region — a region retrying a
  /// FINALIZE whose ack was lost cannot end a multi-region collection
  /// early. The effective count is anonymous + |regions|.
  size_t anonymous_finalizes_ LDPJS_GUARDED_BY(mu_) = 0;
  std::set<uint32_t> finalized_regions_ LDPJS_GUARDED_BY(mu_);
  bool finalized_ LDPJS_GUARDED_BY(mu_) = false;
  /// RCU-published lifetime view (see CurrentPublishedView).
  ViewPublisher publisher_;
  /// Query counters: answered frames, rejected (corrupt/invalid/v2), and
  /// per-kind served/rejected rows. Lock-free — queries never touch mu_.
  /// Slot 6 of the rejected array is "unknown": the kind never decoded.
  std::atomic<uint64_t> query_frames_{0};
  std::atomic<uint64_t> queries_rejected_{0};
  std::atomic<uint64_t> query_kind_served_[6] = {};
  std::atomic<uint64_t> query_kind_rejected_[7] = {};
  /// Pending trace slots (tiny critical sections; only sampled frames and
  /// publish/cut paths ever touch them). publish: claimed by PublishView()
  /// — serve-tier ingest-to-queryable. cut: claimed by CutEpochSnapshot()
  /// — handed to the regional shipper via TakeCutTrace().
  Mutex obs_mu_;
  TraceContext pending_publish_trace_ LDPJS_GUARDED_BY(obs_mu_);
  TraceContext pending_cut_trace_ LDPJS_GUARDED_BY(obs_mu_);
  TraceContext last_cut_trace_ LDPJS_GUARDED_BY(obs_mu_);
  /// Cached registry instruments (stable pointers into the process-global
  /// registry).
  ObsHistogram* frame_absorb_hist_ = nullptr;
  ObsHistogram* ingest_to_queryable_hist_ = nullptr;
  ObsHistogram* query_latency_hist_ = nullptr;
  ObsHistogram* query_error_latency_hist_ = nullptr;
  ObsHistogram* query_kind_latency_[6] = {};
  ObsGauge* view_last_publish_gauge_ = nullptr;
  /// v5 fleet state. Both are internally synchronized; `mutable` because
  /// StatsJson() — a const read — evaluates local health and must record
  /// the transition it observes (the read is when a state change becomes
  /// visible, so that is when the event exists).
  mutable FleetStore fleet_;
  mutable EventLog events_;
  mutable std::atomic<uint8_t> local_health_state_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> handshakes_rejected_{0};
  std::atomic<uint64_t> accept_failures_{0};      ///< transient, retried
  std::atomic<uint64_t> accept_fatal_{0};         ///< acceptor stopped
  std::atomic<uint64_t> idle_reaped_{0};          ///< hung clients cut
  std::atomic<uint64_t> accept_backoff_micros_{0};
};

}  // namespace ldpjs

#endif  // LDPJS_NET_FRAME_SERVER_H_
