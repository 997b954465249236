// parsched — the session multiplexer.
//
// A Server owns many concurrent Sessions and runs their operations on
// the exec::ThreadPool. Each session is a *strand*: its queued
// operations execute one at a time, in submission order, so Session
// itself needs no locking — but operations of different sessions run
// concurrently on the pool.
//
// Backpressure is explicit and non-blocking: every submit() answers
// synchronously with a Submit verdict. A full per-session queue, an
// unknown session, a draining server, or a session cap all *reject* —
// the server never blocks a caller and never drops work silently. The
// soak leg of CI drives this at queue-overflow rates under TSan.
//
// drain() is the graceful shutdown: new work is rejected with
// Submit::kDraining, every already-queued operation still runs, and the
// call returns once the pool is idle. The destructor drains.
//
// Metrics (when Config::metrics is set):
//   serve.sessions.opened / serve.sessions.closed   counters
//   serve.sessions.active                           gauge
//   serve.queue.depth                               gauge (queued ops,
//                                                   all sessions)
//   serve.reject.queue_full / .unknown_session
//     / .draining / .session_cap                    counters
//   serve.requests                                  counter
//   serve.request                                   timer (op execution)
//   serve.request.latency_ms                        histogram (op
//                                                   execution, ms — the
//                                                   server-side twin of
//                                                   loadgen's
//                                                   serve.client.latency_ms)
//
// Flight recording (when Config::recorder is set): every submit verdict
// and every strand dispatch lands in the ring, and drain() dumps it
// (reason "drain") once the pool is quiet — so a soak run always leaves
// a black box behind, even when nothing went wrong.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
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

/// Synchronous verdict for every server call.
enum class Submit : std::uint8_t {
  kAccepted,
  kQueueFull,       ///< the session's op queue is at Config::max_queue
  kUnknownSession,  ///< no such id (never opened, or already closed)
  kDraining,        ///< server drain()ing, or the session is closing
  kSessionCap,      ///< Config::max_sessions sessions already open
};

[[nodiscard]] const char* to_string(Submit s);

class Server {
 public:
  struct Config {
    int threads = 0;  ///< pool size; <= 0 means hardware_threads()
    std::size_t max_sessions = 64;
    std::size_t max_queue = 128;  ///< per-session op queue bound
    /// Borrowed; must outlive the server. Also handed to sessions the
    /// server opens.
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional flight recorder (obs/flight_recorder.hpp): submit
    /// verdicts and strand dispatches are recorded, and drain() dumps
    /// the ring. Borrowed; must outlive the server.
    obs::FlightRecorder* recorder = nullptr;
  };

  explicit Server(Config cfg);
  ~Server();  // drain()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Open a session; on kAccepted `id_out` holds the new id. Throws
  /// std::invalid_argument for an unknown policy spec (a caller error,
  /// not load — rejects are for load).
  Submit open(const Session::Config& scfg, SessionId& id_out);

  /// Adopt an externally built session (snapshot restore path).
  Submit adopt(std::unique_ptr<Session> session, SessionId& id_out);

  /// Queue `op` on the session's strand. The operation runs on a pool
  /// thread with exclusive access to the session; exceptions it throws
  /// are swallowed after being counted (serve.requests still ticks) —
  /// protocol-level callers report errors through their own channel.
  Submit submit(SessionId id, std::function<void(Session&)> op);

  /// Close a session: already-queued operations still run, subsequent
  /// submits reject with kDraining, and the session is destroyed once
  /// its queue empties.
  Submit close(SessionId id);

  /// Reject new work and wait until every queued operation has run.
  /// Idempotent; the server is unusable afterwards.
  void drain();

  [[nodiscard]] std::size_t session_count() const;
  [[nodiscard]] int threads() const { return pool_.threads(); }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  struct Entry {
    std::mutex mu;
    std::unique_ptr<Session> session;
    std::deque<std::function<void(Session&)>> queue;
    bool running = false;  ///< a strand task is active on the pool
    bool closing = false;
    bool removed = false;  ///< map erasure claimed (close/strand race)
  };

  Submit install(std::unique_ptr<Session> session, SessionId& id_out);
  Submit submit_impl(SessionId id, std::function<void(Session&)> op);
  void run_strand(SessionId id, const std::shared_ptr<Entry>& entry);
  void remove_entry(SessionId id, const std::shared_ptr<Entry>& entry);
  void queue_depth_delta(std::int64_t delta);

  Config cfg_;
  exec::ThreadPool pool_;

  // Instrument references cached at construction (registry lookups take a
  // lock; the dispatch and reject paths should not).
  obs::Counter* requests_ = nullptr;
  obs::Counter* op_errors_ = nullptr;
  obs::TimerStat* request_timer_ = nullptr;
  obs::Histogram* latency_ms_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* sessions_active_ = nullptr;
  obs::Counter* sessions_opened_ = nullptr;
  obs::Counter* sessions_closed_ = nullptr;
  obs::Counter* reject_draining_ = nullptr;
  obs::Counter* reject_session_cap_ = nullptr;
  obs::Counter* reject_unknown_ = nullptr;
  obs::Counter* reject_queue_full_ = nullptr;

  mutable std::mutex mu_;  // guards sessions_, next_id_, draining_
  std::unordered_map<SessionId, std::shared_ptr<Entry>> sessions_;
  SessionId next_id_ = 1;
  bool draining_ = false;

  std::mutex depth_mu_;  // guards queued_ops_ (mirrors the gauge)
  std::int64_t queued_ops_ = 0;
};

}  // namespace parsched::serve
