// parsched — the serving plane: one session table over N shards.
//
// A Cluster owns every live session. Each session is a *strand*: its
// queued operations execute one at a time, in submission order, on its
// shard's exec::ThreadPool, so Session itself needs no locking — but
// operations of different sessions run concurrently. A shard is a pool
// and its own MetricsRegistry, so shards share no mutable state except
// the cluster's session table, and a saturated shard cannot stall its
// siblings' pools.
//
// One table, one id space: routes_ maps the client's session id to its
// shard, its ring placement, its routing key and its strand. Every
// request takes one lock to find the strand; flight events, metrics and
// replies all name the session by the id the client holds.
//
// Routing is consistent-hash: every session carries a routing key
// (client-supplied, or defaulted to the session id), hashed onto a ring
// of kVirtualNodes splitmix-derived points per shard. Removing a shard
// from the ring (evacuate) remaps only the keys that hashed to it; all
// other sessions keep their placement. ring_lookup() and
// consistent_shard() are pure functions of (key, ring membership) —
// clients that know the shard count can predict placement, which is how
// loadgen's adversarial all-one-shard burst aims its traffic.
//
// Backpressure is explicit and non-blocking: open/submit/close answer
// synchronously with a Submit verdict. A full per-session queue, an
// unknown session, a draining cluster, the cluster-wide session cap, or
// a session mid-migration (kDraining) all *reject* — callers retry as
// they would for a full queue; the cluster never blocks a caller and
// never drops work silently. The soak legs of CI drive this at
// queue-overflow rates under TSan.
//
// One install path: open() (from a Session::Config), adopt() (from a
// decoded snapshot, the restore verb) and migration pick the shard
// first, then build the session on that shard's registry and the
// cluster's recorder — so every session the cluster runs carries the
// same plumbing, wherever it came from.
//
// Live migration: migrate() queues a drain op on the session's strand
// that snapshots it with the versioned PSNP encoder, installs the
// restored copy as a new strand on the target shard and flips the
// route — all while the cluster keeps serving. Because the snapshot
// runs *on the strand* (after every previously accepted op, before any
// later one — later submits reject kDraining and retry), the migrated
// session's continuation is bit-identical to an unmigrated run: same
// doubles, same order. The old strand retires once the drain op
// returns. evacuate() applies this to a whole shard: take it out of the
// ring, migrate every live session to its new ring position, then shut
// the emptied shard's pool down — the "kill a shard mid-soak" operation
// of the CI leg.
//
// drain() is the graceful shutdown: new work is rejected with
// Submit::kDraining, every already-queued operation still runs, and the
// call returns once every shard's pool is idle. The destructor drains.
//
// Metrics (when Config::metrics is set): per-shard registries are
// merged into the exposition under "serve.shard<i>.*" (e.g.
// serve.shard0.requests), aggregated totals keep the plain names, and
// cluster-level counters live under "serve.cluster.*"
// (opened/closed/migrations/reroutes/rejects). Per shard:
//   serve.sessions.opened / serve.sessions.closed   counters (strands)
//   serve.sessions.active                           gauge
//   serve.queue.depth                               gauge (queued ops)
//   serve.reject.queue_full                         counter
//   serve.requests / serve.op_errors                counters
//   serve.request                                   timer (op execution)
//   serve.request.latency_ms                        histogram (op
//                                                   execution, ms — the
//                                                   server-side twin of
//                                                   loadgen's
//                                                   serve.client.latency_ms)
//
// Flight recording (when Config::recorder is set): every submit verdict
// (kSubmit) and every strand dispatch (kDispatch, with the queue depth
// left behind) is recorded under the client's session id, migrations as
// kMigrate and post-migration submits as kReroute; drain() dumps the
// ring (reason "drain") once the pools are quiet — so a soak run always
// leaves a black box behind, even when nothing went wrong.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "serve/session.hpp"

namespace parsched::obs {
class FlightRecorder;
}  // namespace parsched::obs

namespace parsched::serve {

/// The latency bucket bounds (milliseconds) shared by the server-side
/// serve.request.latency_ms histogram and loadgen's
/// serve.client.latency_ms — identical buckets keep the two sides
/// comparable in exposition output and BENCH reports.
[[nodiscard]] const std::vector<double>& latency_bounds_ms();

using SessionId = std::uint64_t;

/// Synchronous verdict for every cluster call.
enum class Submit : std::uint8_t {
  kAccepted,
  kQueueFull,       ///< the session's op queue is at Config::max_queue
  kUnknownSession,  ///< no such id (never opened, or already closed)
  kDraining,        ///< cluster drain()ing, or the session is migrating
  kSessionCap,      ///< Config::max_sessions sessions already open
};

[[nodiscard]] const char* to_string(Submit s);

/// Virtual ring points per shard; enough that 4–16 shards spread keys
/// within a few percent of uniform.
inline constexpr int kVirtualNodes = 16;

/// Pure consistent-hash placement over `ring` (pairs of hash point and
/// shard index, sorted by point). Exposed for clients that predict
/// placement; Cluster maintains its own ring via the same function.
[[nodiscard]] int ring_lookup(
    const std::vector<std::pair<std::uint64_t, int>>& ring,
    std::uint64_t key);

/// Build the ring for shards [0, shards) minus the ids in `removed`
/// (kVirtualNodes points each, splitmix-hashed). Deterministic.
[[nodiscard]] std::vector<std::pair<std::uint64_t, int>> build_ring(
    int shards, const std::vector<int>& removed = {});

/// Placement a client can compute without talking to the cluster: the
/// ring over all `shards` with none removed.
[[nodiscard]] int consistent_shard(std::uint64_t key, int shards);

class Cluster {
 public:
  struct Config {
    int shards = 1;             ///< shard worker count; clamped to >= 1
    int threads_per_shard = 1;  ///< each shard's pool size; <= 0 means
                                ///< hardware_threads()
    std::size_t max_sessions = 64;  ///< cluster-wide session cap
    std::size_t max_queue = 128;    ///< per-session op queue bound
    /// Borrowed registry for cluster-level counters and the merged
    /// exposition; must outlive the cluster. Per-shard registries are
    /// owned by the cluster itself.
    obs::MetricsRegistry* metrics = nullptr;
    /// Borrowed flight recorder shared by every shard and every session
    /// (one ring, one black box). Must outlive the cluster.
    obs::FlightRecorder* recorder = nullptr;
  };

  explicit Cluster(Config cfg);
  ~Cluster();  // drain()

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Open a session, placed by consistent hash of `key` (0 means "no
  /// key": the fresh session id is used, spreading keyless sessions
  /// uniformly). On kAccepted `id_out` holds the session id and
  /// `shard_out` (when non-null) the shard it landed on. Throws
  /// std::invalid_argument for an unknown policy spec (a caller error,
  /// not load — rejects are for load).
  Submit open(const Session::Config& scfg, SessionId& id_out,
              std::uint64_t key = 0, int* shard_out = nullptr);

  /// Restore a decoded snapshot as a new session (the restore verb);
  /// same placement and errors as open().
  Submit adopt(SessionSnapshot snap, SessionId& id_out,
               std::uint64_t key = 0, int* shard_out = nullptr);

  /// Queue `op` on the session's strand, wherever the session currently
  /// lives. The operation runs on a pool thread with exclusive access to
  /// the session; exceptions it throws are swallowed after being counted
  /// (serve.op_errors) — protocol-level callers report errors through
  /// their own channel. A session mid-migration answers kDraining
  /// (retry; it will land on the new shard).
  Submit submit(SessionId id, std::function<void(Session&)> op);

  /// Close a session: the route is gone immediately (subsequent submits
  /// answer kUnknownSession), already-queued operations still run, and
  /// the session is destroyed once its queue empties.
  Submit close(SessionId id);

  /// Live-migrate one session to `target_shard`. Returns the verdict
  /// for *starting* the migration (kAccepted means the drain op is on
  /// the source strand); completion is asynchronous. Migrating a
  /// session onto its current shard is an accepted no-op. Throws
  /// std::invalid_argument when `target_shard` is out of range or out
  /// of the ring. A finished session cannot be snapshotted and aborts
  /// its migration (the session stays where it was, still servable).
  Submit migrate(SessionId id, int target_shard);

  /// Take `shard` out of the ring, migrate every live session it holds
  /// to the key's new ring position, wait for the moves to settle, and
  /// — when no session is left on the shard — shut its pool down.
  /// Returns the number of sessions migrated. Sessions that cannot move
  /// (already finished) stay servable on the out-of-ring shard, whose
  /// pool then keeps running. Throws std::invalid_argument on the last
  /// in-ring shard or an out-of-range id; evacuating an
  /// already-evacuated shard is a zero-migration no-op.
  int evacuate(int shard);

  /// Reject new work and wait until every queued operation on every
  /// shard has run. Idempotent; the cluster is unusable afterwards.
  void drain();

  [[nodiscard]] int shards() const;
  [[nodiscard]] std::size_t session_count() const;
  [[nodiscard]] std::size_t session_count(int shard) const;
  /// Current shard of a live session; -1 when unknown.
  [[nodiscard]] int shard_of(SessionId id) const;
  [[nodiscard]] bool shard_in_ring(int shard) const;
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Cluster-level counters + per-shard snapshots renamed to
  /// "serve.shard<i>.*" + aggregated per-shard totals under the plain
  /// names. This is what the protocol's stats verb exposes.
  [[nodiscard]] obs::MetricsSnapshot merged_snapshot() const;

 private:
  using Op = std::function<void(Session&)>;

  /// One session and its op queue. At most one pool task drains the
  /// queue at a time (`running`); a closing strand retires — counts
  /// itself out and destroys its session — once the queue empties.
  struct Strand {
    SessionId id = 0;  ///< the client's session id (flight events)
    std::mutex mu;     // guards queue, running, closing
    std::unique_ptr<Session> session;
    std::deque<Op> queue;
    bool running = false;  ///< a strand task is active on the pool
    bool closing = false;  ///< set once, by close() or a migration
  };

  /// A shard worker: its pool and its registry with the instruments
  /// cached at construction (registry lookups take a lock; the dispatch
  /// and reject paths should not). Instruments are null without
  /// Config::metrics.
  struct Shard {
    Shard(int threads, bool instrumented);

    std::unique_ptr<obs::MetricsRegistry> metrics;
    exec::ThreadPool pool;
    obs::Counter* requests = nullptr;
    obs::Counter* op_errors = nullptr;
    obs::TimerStat* request_timer = nullptr;
    obs::Histogram* latency_ms = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* sessions_active = nullptr;
    obs::Counter* sessions_opened = nullptr;
    obs::Counter* sessions_closed = nullptr;
    obs::Counter* reject_queue_full = nullptr;
    std::size_t strands = 0;  ///< unretired strands; under the cluster mu_
    bool in_ring = true;      ///< under the cluster mu_
    std::mutex depth_mu;      // guards queued (mirrors the gauge)
    std::int64_t queued = 0;
  };

  /// Session-table entry. `migrating` parks submits (kDraining) while an
  /// install or a snapshot/restore hop is in flight; `placement`
  /// remembers the original shard so post-migration traffic can be
  /// recorded as reroutes.
  struct Route {
    int shard = 0;
    int placement = 0;
    std::uint64_t key = 0;
    bool migrating = false;
    std::shared_ptr<Strand> strand;
  };

  template <class Source>
  Submit install(Source source, SessionId& id_out, std::uint64_t key,
                 int* shard_out);
  std::unique_ptr<Session> build(int shard, Session::Config scfg) const;
  std::unique_ptr<Session> build(int shard, SessionSnapshot snap) const;
  void attach_locked(Route& route, int shard,
                     std::shared_ptr<Strand> strand);
  Submit route_locked(SessionId id, Op op);
  Submit enqueue(int shard, const std::shared_ptr<Strand>& strand, Op op);
  Submit record_submit(SessionId id, Submit verdict) const;
  void run_strand(Shard& shard, const std::shared_ptr<Strand>& strand);
  void close_strand(Shard& shard, Strand& strand);
  void retire(Shard& shard, Strand& strand);
  void queue_depth_delta(Shard& shard, std::int64_t delta);
  void finish_migration(SessionId id, int source, int target,
                        const Session& session);
  void abort_migration(SessionId id);
  void rebuild_ring_locked();

  Config cfg_;
  std::deque<Shard> shards_;  // deque: a Shard is immovable

  obs::Counter* opened_ = nullptr;
  obs::Counter* closed_ = nullptr;
  obs::Gauge* sessions_gauge_ = nullptr;
  obs::Counter* migrations_ = nullptr;
  obs::Counter* migration_failures_ = nullptr;
  obs::Counter* reroutes_ = nullptr;
  obs::Counter* reject_session_cap_ = nullptr;
  obs::Counter* reject_migrating_ = nullptr;
  obs::Counter* reject_unknown_ = nullptr;
  obs::Counter* reject_draining_ = nullptr;

  mutable std::mutex mu_;  // routes_, ring_, next_id_, draining_, counts
  std::unordered_map<SessionId, Route> routes_;
  std::vector<std::pair<std::uint64_t, int>> ring_;
  SessionId next_id_ = 1;
  bool draining_ = false;
  int migrations_in_flight_ = 0;
  std::condition_variable migration_cv_;
};

}  // namespace parsched::serve
