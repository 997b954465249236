#include "serve/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "check/contract.hpp"
#include "obs/flight_recorder.hpp"
#include "serve/snapshot.hpp"

namespace parsched::serve {

namespace {

/// splitmix64 finalizer — the same mixing family exec::task_seed and the
/// loadgen streams use. Pure, so clients can reproduce ring placement.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Count a reject on `counter` (when metrics are on) and answer it.
Submit reject(obs::Counter* counter, Submit verdict) {
  if (counter != nullptr) counter->inc();
  return verdict;
}

}  // namespace

const std::vector<double>& latency_bounds_ms() {
  static const std::vector<double> bounds{0.05, 0.1, 0.2, 0.5, 1.0,  2.0,
                                          5.0,  10.0, 20.0, 50.0, 100.0,
                                          200.0, 500.0, 1000.0};
  return bounds;
}

const char* to_string(Submit s) {
  switch (s) {
    case Submit::kAccepted: return "accepted";
    case Submit::kQueueFull: return "queue_full";
    case Submit::kUnknownSession: return "unknown_session";
    case Submit::kDraining: return "draining";
    case Submit::kSessionCap: return "session_cap";
  }
  return "unknown";
}

int ring_lookup(const std::vector<std::pair<std::uint64_t, int>>& ring,
                std::uint64_t key) {
  PARSCHED_CHECK(!ring.empty(), "consistent-hash ring is empty");
  const std::uint64_t h = mix64(key);
  auto it = std::lower_bound(
      ring.begin(), ring.end(), std::make_pair(h, 0),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it == ring.end()) it = ring.begin();  // wrap around
  return it->second;
}

std::vector<std::pair<std::uint64_t, int>> build_ring(
    int shards, const std::vector<int>& removed) {
  std::vector<std::pair<std::uint64_t, int>> ring;
  ring.reserve(static_cast<std::size_t>(shards) * kVirtualNodes);
  for (int s = 0; s < shards; ++s) {
    if (std::find(removed.begin(), removed.end(), s) != removed.end()) {
      continue;
    }
    // Two mixing rounds decorrelate the virtual points of adjacent
    // shards; a single round would leave them on a lattice.
    const std::uint64_t base = mix64(static_cast<std::uint64_t>(s) + 1);
    for (int v = 0; v < kVirtualNodes; ++v) {
      ring.emplace_back(mix64(base + static_cast<std::uint64_t>(v)), s);
    }
  }
  std::sort(ring.begin(), ring.end());
  return ring;
}

int consistent_shard(std::uint64_t key, int shards) {
  return ring_lookup(build_ring(shards), key);
}

Cluster::Shard::Shard(int threads, bool instrumented)
    : metrics(instrumented ? std::make_unique<obs::MetricsRegistry>()
                           : nullptr),
      pool(exec::ThreadPool::Config{threads, metrics.get()}) {
  if (metrics == nullptr) return;
  requests = &metrics->counter("serve.requests");
  op_errors = &metrics->counter("serve.op_errors");
  request_timer = &metrics->timer("serve.request");
  latency_ms = &metrics->histogram("serve.request.latency_ms",
                                   latency_bounds_ms());
  queue_depth = &metrics->gauge("serve.queue.depth");
  sessions_active = &metrics->gauge("serve.sessions.active");
  sessions_opened = &metrics->counter("serve.sessions.opened");
  sessions_closed = &metrics->counter("serve.sessions.closed");
  reject_queue_full = &metrics->counter("serve.reject.queue_full");
}

Cluster::Cluster(Config cfg) : cfg_(cfg) {
  if (cfg_.shards < 1) cfg_.shards = 1;
  for (int i = 0; i < cfg_.shards; ++i) {
    shards_.emplace_back(cfg_.threads_per_shard, cfg_.metrics != nullptr);
  }
  ring_ = build_ring(cfg_.shards);
  if (cfg_.metrics != nullptr) {
    opened_ = &cfg_.metrics->counter("serve.cluster.sessions.opened");
    closed_ = &cfg_.metrics->counter("serve.cluster.sessions.closed");
    sessions_gauge_ = &cfg_.metrics->gauge("serve.cluster.sessions.active");
    migrations_ = &cfg_.metrics->counter("serve.cluster.migrations");
    migration_failures_ =
        &cfg_.metrics->counter("serve.cluster.migration_failures");
    reroutes_ = &cfg_.metrics->counter("serve.cluster.reroutes");
    reject_session_cap_ =
        &cfg_.metrics->counter("serve.cluster.reject.session_cap");
    reject_migrating_ =
        &cfg_.metrics->counter("serve.cluster.reject.migrating");
    reject_unknown_ =
        &cfg_.metrics->counter("serve.cluster.reject.unknown_session");
    reject_draining_ =
        &cfg_.metrics->counter("serve.cluster.reject.draining");
  }
}

Cluster::~Cluster() { drain(); }

template <class Source>
Submit Cluster::install(Source source, SessionId& id_out,
                        std::uint64_t key, int* shard_out) {
  SessionId id = 0;
  int shard = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return reject(reject_draining_, Submit::kDraining);
    if (routes_.size() >= cfg_.max_sessions) {
      return reject(reject_session_cap_, Submit::kSessionCap);
    }
    id = next_id_++;
    Route r;
    r.key = key != 0 ? key : id;
    shard = ring_lookup(ring_, r.key);
    r.shard = shard;
    r.placement = shard;
    r.migrating = true;  // parked until the strand exists
    routes_.emplace(id, std::move(r));
  }
  // Built outside the lock: make_scheduler and restore may throw (caller
  // error) and session construction is not cheap enough to serialize.
  auto strand = std::make_shared<Strand>();
  strand->id = id;
  try {
    strand->session = build(shard, std::move(source));
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    routes_.erase(id);
    throw;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = routes_.find(id);
  if (draining_ || it == routes_.end()) {  // drain() began meanwhile
    routes_.erase(id);
    return reject(reject_draining_, Submit::kDraining);
  }
  attach_locked(it->second, shard, std::move(strand));
  if (opened_ != nullptr) {
    opened_->inc();
    sessions_gauge_->set(static_cast<double>(routes_.size()));
  }
  id_out = id;
  if (shard_out != nullptr) *shard_out = shard;
  return Submit::kAccepted;
}

Submit Cluster::open(const Session::Config& scfg, SessionId& id_out,
                     std::uint64_t key, int* shard_out) {
  return install(scfg, id_out, key, shard_out);
}

Submit Cluster::adopt(SessionSnapshot snap, SessionId& id_out,
                      std::uint64_t key, int* shard_out) {
  return install(std::move(snap), id_out, key, shard_out);
}

std::unique_ptr<Session> Cluster::build(int shard,
                                        Session::Config scfg) const {
  if (scfg.metrics == nullptr) {
    scfg.metrics = shards_[static_cast<std::size_t>(shard)].metrics.get();
  }
  if (scfg.recorder == nullptr) scfg.recorder = cfg_.recorder;
  return std::make_unique<Session>(std::move(scfg));
}

std::unique_ptr<Session> Cluster::build(int shard,
                                        SessionSnapshot snap) const {
  return Session::restore(
      std::move(snap), shards_[static_cast<std::size_t>(shard)].metrics.get(),
      cfg_.recorder);
}

void Cluster::attach_locked(Route& route, int shard,
                            std::shared_ptr<Strand> strand) {
  route.shard = shard;
  route.strand = std::move(strand);
  route.migrating = false;
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  ++s.strands;
  if (s.sessions_opened != nullptr) {
    s.sessions_opened->inc();
    s.sessions_active->set(static_cast<double>(s.strands));
  }
}

Submit Cluster::submit(SessionId id, Op op) {
  // The lock is held across the route lookup and the enqueue so a
  // concurrent migrate() cannot slip its drain op between them — that
  // interleaving would run `op` on the source strand *after* the
  // snapshot was taken and silently lose its effect on the migrated
  // session.
  std::lock_guard<std::mutex> lock(mu_);
  return record_submit(id, route_locked(id, std::move(op)));
}

Submit Cluster::route_locked(SessionId id, Op op) {
  if (draining_) return reject(reject_draining_, Submit::kDraining);
  const auto it = routes_.find(id);
  if (it == routes_.end()) {
    return reject(reject_unknown_, Submit::kUnknownSession);
  }
  const Route& r = it->second;
  if (r.migrating) return reject(reject_migrating_, Submit::kDraining);
  if (r.shard != r.placement) {
    if (reroutes_ != nullptr) reroutes_->inc();
    if (cfg_.recorder != nullptr) {
      cfg_.recorder->record(obs::FlightEvent::kReroute, id,
                            obs::monotonic_seconds(),
                            static_cast<double>(r.shard),
                            static_cast<std::uint32_t>(r.placement));
    }
  }
  return enqueue(r.shard, r.strand, std::move(op));
}

Submit Cluster::record_submit(SessionId id, Submit verdict) const {
  if (cfg_.recorder != nullptr) {
    cfg_.recorder->record(obs::FlightEvent::kSubmit, id,
                          obs::monotonic_seconds(),
                          static_cast<double>(verdict));
  }
  return verdict;
}

Submit Cluster::enqueue(int shard_index,
                        const std::shared_ptr<Strand>& strand, Op op) {
  Shard& shard = shards_[static_cast<std::size_t>(shard_index)];
  bool start = false;
  {
    std::lock_guard<std::mutex> lock(strand->mu);
    if (strand->queue.size() >= cfg_.max_queue) {
      return reject(shard.reject_queue_full, Submit::kQueueFull);
    }
    strand->queue.push_back(std::move(op));
    start = !std::exchange(strand->running, true);
  }
  queue_depth_delta(shard, 1);
  if (start) {
    // The strand task: drains the session's queue, then stops. The
    // future is intentionally dropped — op exceptions are handled inside
    // run_strand, and drain() synchronizes on the pool shutdown.
    shard.pool.submit([this, &shard, strand] { run_strand(shard, strand); });
  }
  return Submit::kAccepted;
}

void Cluster::queue_depth_delta(Shard& shard, std::int64_t delta) {
  if (shard.queue_depth == nullptr) return;
  std::lock_guard<std::mutex> lock(shard.depth_mu);
  shard.queued += delta;
  shard.queue_depth->set(static_cast<double>(shard.queued));
}

void Cluster::run_strand(Shard& shard,
                         const std::shared_ptr<Strand>& strand) {
  for (;;) {
    Op op;
    std::size_t depth = 0;
    bool idle = false;
    bool retiring = false;
    {
      std::lock_guard<std::mutex> lock(strand->mu);
      idle = strand->queue.empty();
      if (idle) {
        strand->running = false;
        retiring = strand->closing;
      } else {
        op = std::move(strand->queue.front());
        strand->queue.pop_front();
        depth = strand->queue.size();
      }
    }
    if (idle) {
      // close_strand() saw `running` and left the retirement to us.
      if (retiring) retire(shard, *strand);
      return;
    }
    queue_depth_delta(shard, -1);
    if (cfg_.recorder != nullptr) {
      cfg_.recorder->record(obs::FlightEvent::kDispatch, strand->id,
                            obs::monotonic_seconds(),
                            static_cast<double>(depth));
    }
    const bool timed = shard.requests != nullptr;
    if (timed) shard.requests->inc();
    const double t0 = timed ? obs::monotonic_seconds() : 0.0;
    try {
      op(*strand->session);
    } catch (...) {
      // Protocol callers report their own errors; an op that leaks an
      // exception must not kill the strand.
      if (shard.op_errors != nullptr) shard.op_errors->inc();
    }
    if (timed) {
      const double dt = obs::monotonic_seconds() - t0;
      shard.request_timer->add(dt);
      shard.latency_ms->observe(dt * 1000.0);
    }
  }
}

void Cluster::close_strand(Shard& shard, Strand& strand) {
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(strand.mu);
    strand.closing = true;
    // Not running means the queue is empty; otherwise the strand task
    // retires the session when its queue empties.
    idle = !strand.running;
  }
  if (idle) retire(shard, strand);
}

void Cluster::retire(Shard& shard, Strand& strand) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shard.strands > 0) --shard.strands;  // drain() may have zeroed it
    if (shard.sessions_closed != nullptr) {
      shard.sessions_closed->inc();
      shard.sessions_active->set(static_cast<double>(shard.strands));
    }
  }
  strand.session.reset();  // the Session dies here, outside every lock
}

Submit Cluster::close(SessionId id) {
  std::shared_ptr<Strand> strand;
  int shard = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = routes_.find(id);
    if (it == routes_.end()) {
      return reject(reject_unknown_, Submit::kUnknownSession);
    }
    if (it->second.migrating) {
      // Closing mid-migration would race the install on the target; the
      // caller retries once the move settled.
      return reject(reject_migrating_, Submit::kDraining);
    }
    strand = std::move(it->second.strand);
    shard = it->second.shard;
    routes_.erase(it);
    if (closed_ != nullptr) {
      closed_->inc();
      sessions_gauge_->set(static_cast<double>(routes_.size()));
    }
  }
  // No submit can reach the strand any more: the route is gone.
  close_strand(shards_[static_cast<std::size_t>(shard)], *strand);
  return Submit::kAccepted;
}

Submit Cluster::migrate(SessionId id, int target_shard) {
  std::lock_guard<std::mutex> lock(mu_);
  if (target_shard < 0 ||
      target_shard >= static_cast<int>(shards_.size())) {
    throw std::invalid_argument("migrate: shard " +
                                std::to_string(target_shard) +
                                " out of range");
  }
  if (!shards_[static_cast<std::size_t>(target_shard)].in_ring) {
    throw std::invalid_argument("migrate: shard " +
                                std::to_string(target_shard) +
                                " is out of the ring");
  }
  if (draining_) return reject(reject_draining_, Submit::kDraining);
  const auto it = routes_.find(id);
  if (it == routes_.end()) {
    return reject(reject_unknown_, Submit::kUnknownSession);
  }
  Route& r = it->second;
  if (r.migrating) return reject(reject_migrating_, Submit::kDraining);
  if (r.shard == target_shard) return Submit::kAccepted;  // no-op

  const int source = r.shard;
  r.migrating = true;
  ++migrations_in_flight_;
  // The drain op rides the session's strand: every previously accepted
  // op completes before the snapshot, no later op can slip in (submits
  // answer kDraining while `migrating`), so the blob captures a clean
  // cut of the session — the bit-identity hinge.
  const Submit verdict = record_submit(
      id, enqueue(source, r.strand,
                  [this, id, source, target_shard](Session& s) {
                    finish_migration(id, source, target_shard, s);
                  }));
  if (verdict != Submit::kAccepted) {
    r.migrating = false;
    --migrations_in_flight_;
    migration_cv_.notify_all();
    if (migration_failures_ != nullptr) migration_failures_->inc();
  }
  return verdict;
}

void Cluster::finish_migration(SessionId id, int source, int target,
                               const Session& session) {
  auto moved = std::make_shared<Strand>();
  moved->id = id;
  try {
    moved->session = build(target, decode_snapshot(session.snapshot()));
  } catch (const std::exception&) {
    abort_migration(id);  // finished sessions cannot move
    return;
  }
  std::shared_ptr<Strand> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = routes_.find(id);
    // The route cannot vanish while `migrating` parks close(); if it
    // did, the restored copy is simply dropped.
    if (it != routes_.end()) {
      old = std::move(it->second.strand);
      attach_locked(it->second, target, std::move(moved));
    }
    if (migrations_ != nullptr) migrations_->inc();
    if (cfg_.recorder != nullptr) {
      cfg_.recorder->record(obs::FlightEvent::kMigrate, id,
                            obs::monotonic_seconds(),
                            static_cast<double>(target),
                            static_cast<std::uint32_t>(source));
    }
    --migrations_in_flight_;
    migration_cv_.notify_all();
  }
  // The source copy is now a shadow. We run on its strand, so it
  // retires once this op returns.
  if (old != nullptr) {
    close_strand(shards_[static_cast<std::size_t>(source)], *old);
  }
}

void Cluster::abort_migration(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = routes_.find(id);
  if (it != routes_.end()) it->second.migrating = false;
  if (migration_failures_ != nullptr) migration_failures_->inc();
  --migrations_in_flight_;
  migration_cv_.notify_all();
}

void Cluster::rebuild_ring_locked() {
  std::vector<int> removed;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i].in_ring) removed.push_back(static_cast<int>(i));
  }
  ring_ = build_ring(static_cast<int>(shards_.size()), removed);
}

int Cluster::evacuate(int shard) {
  if (shard < 0 || shard >= static_cast<int>(shards_.size())) {
    throw std::invalid_argument("evacuate: shard " + std::to_string(shard) +
                                " out of range");
  }
  Shard& victim = shards_[static_cast<std::size_t>(shard)];
  std::vector<std::pair<SessionId, int>> moves;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return 0;
    if (victim.in_ring) {
      int in_ring = 0;
      for (const Shard& s : shards_) in_ring += s.in_ring ? 1 : 0;
      if (in_ring <= 1) {
        throw std::invalid_argument(
            "evacuate: cannot remove the last in-ring shard");
      }
      victim.in_ring = false;
      rebuild_ring_locked();
    }
    for (const auto& [sid, r] : routes_) {
      if (r.shard == shard && !r.migrating) {
        // Consistent hashing: only this shard's keys remap, each to its
        // new ring position.
        moves.emplace_back(sid, ring_lookup(ring_, r.key));
      }
    }
  }
  for (const auto& [sid, target] : moves) {
    try {
      (void)migrate(sid, target);
    } catch (const std::exception&) {
      // Shrinking ring raced us; the session stays put.
    }
  }
  std::size_t remaining = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    migration_cv_.wait(lock,
                       [this] { return migrations_in_flight_ == 0; });
    for (const auto& [sid, r] : routes_) {
      if (r.shard == shard) ++remaining;
    }
  }
  // Sessions that could not move (already finished) keep the pool
  // running. Otherwise no route points at the shard and it is out of
  // the ring, so nothing new reaches its pool: the draining shutdown
  // waits for the migrated shadows to retire, then joins the workers.
  if (remaining == 0) victim.pool.shutdown();
  return static_cast<int>(moves.size() - remaining);
}

void Cluster::drain() {
  {
    // A second drain (the destructor after an explicit call) is fine:
    // the pool shutdown below is idempotent.
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  // No new submit can enqueue past this point; every accepted op either
  // already holds a pool task or sits in a queue a running strand will
  // drain. The draining shutdown therefore covers everything.
  for (Shard& s : shards_) s.pool.shutdown();
  std::unordered_map<SessionId, Route> routes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    routes.swap(routes_);
    for (Shard& s : shards_) {
      s.strands = 0;
      if (s.sessions_active != nullptr) s.sessions_active->set(0.0);
    }
    if (sessions_gauge_ != nullptr) sessions_gauge_->set(0.0);
  }
  routes.clear();  // the sessions die here, outside the lock
  // The pools are quiet: the graceful-shutdown dump is deterministic over
  // whatever the run recorded. Idempotent like the drain itself (a second
  // call rewrites the same file).
  if (cfg_.recorder != nullptr) {
    cfg_.recorder->record(obs::FlightEvent::kNote, 0,
                          obs::monotonic_seconds());
    cfg_.recorder->dump_to_file("drain");
  }
}

int Cluster::shards() const { return static_cast<int>(shards_.size()); }

std::size_t Cluster::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return routes_.size();
}

std::size_t Cluster::session_count(int shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [sid, r] : routes_) {
    if (r.shard == shard) ++n;
  }
  return n;
}

int Cluster::shard_of(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = routes_.find(id);
  return it == routes_.end() ? -1 : it->second.shard;
}

bool Cluster::shard_in_ring(int shard) const {
  if (shard < 0 || shard >= static_cast<int>(shards_.size())) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[static_cast<std::size_t>(shard)].in_ring;
}

obs::MetricsSnapshot Cluster::merged_snapshot() const {
  obs::MetricsSnapshot out;
  if (cfg_.metrics != nullptr) out = cfg_.metrics->snapshot();
  obs::MetricsRegistry aggregate;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].metrics == nullptr) continue;
    obs::MetricsSnapshot snap = shards_[i].metrics->snapshot();
    aggregate.merge(snap);
    const std::string prefix = "serve.shard" + std::to_string(i) + ".";
    for (obs::MetricSample& s : snap.samples) {
      // "serve.requests" -> "serve.shard0.requests";
      // "engine.completions" -> "serve.shard0.engine.completions".
      const std::string_view plain =
          s.name.rfind("serve.", 0) == 0
              ? std::string_view(s.name).substr(6)
              : std::string_view(s.name);
      s.name = prefix + std::string(plain);
      out.samples.push_back(std::move(s));
    }
  }
  obs::MetricsSnapshot agg = aggregate.snapshot();
  for (obs::MetricSample& s : agg.samples) {
    out.samples.push_back(std::move(s));
  }
  std::sort(out.samples.begin(), out.samples.end(),
            [](const obs::MetricSample& a, const obs::MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace parsched::serve
