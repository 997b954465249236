#include "serve/server.hpp"

#include <utility>

#include "check/contract.hpp"
#include "obs/flight_recorder.hpp"

namespace parsched::serve {

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

Server::Server(Config cfg)
    : cfg_(cfg),
      pool_(exec::ThreadPool::Config{cfg.threads, cfg.metrics}) {
  if (cfg_.metrics != nullptr) {
    requests_ = &cfg_.metrics->counter("serve.requests");
    op_errors_ = &cfg_.metrics->counter("serve.op_errors");
    request_timer_ = &cfg_.metrics->timer("serve.request");
    latency_ms_ = &cfg_.metrics->histogram("serve.request.latency_ms",
                                           latency_bounds_ms());
    queue_depth_ = &cfg_.metrics->gauge("serve.queue.depth");
    sessions_active_ = &cfg_.metrics->gauge("serve.sessions.active");
    sessions_opened_ = &cfg_.metrics->counter("serve.sessions.opened");
    sessions_closed_ = &cfg_.metrics->counter("serve.sessions.closed");
    reject_draining_ = &cfg_.metrics->counter("serve.reject.draining");
    reject_session_cap_ = &cfg_.metrics->counter("serve.reject.session_cap");
    reject_unknown_ = &cfg_.metrics->counter("serve.reject.unknown_session");
    reject_queue_full_ = &cfg_.metrics->counter("serve.reject.queue_full");
  }
}

Server::~Server() { drain(); }

void Server::queue_depth_delta(std::int64_t delta) {
  if (queue_depth_ == nullptr) return;
  std::lock_guard<std::mutex> lock(depth_mu_);
  queued_ops_ += delta;
  queue_depth_->set(static_cast<double>(queued_ops_));
}

Submit Server::open(const Session::Config& scfg, SessionId& id_out) {
  Session::Config with_metrics = scfg;
  if (with_metrics.metrics == nullptr) {
    with_metrics.metrics = cfg_.metrics;
  }
  if (with_metrics.recorder == nullptr) {
    with_metrics.recorder = cfg_.recorder;
  }
  // Construct outside the lock: make_scheduler may throw (caller error)
  // and session construction is not cheap enough to serialize.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      if (reject_draining_ != nullptr) reject_draining_->inc();
      return Submit::kDraining;
    }
    if (sessions_.size() >= cfg_.max_sessions) {
      if (reject_session_cap_ != nullptr) reject_session_cap_->inc();
      return Submit::kSessionCap;
    }
  }
  return install(std::make_unique<Session>(std::move(with_metrics)), id_out);
}

Submit Server::adopt(std::unique_ptr<Session> session, SessionId& id_out) {
  PARSCHED_CHECK(session != nullptr, "adopting a null session");
  return install(std::move(session), id_out);
}

Submit Server::install(std::unique_ptr<Session> session, SessionId& id_out) {
  auto entry = std::make_shared<Entry>();
  entry->session = std::move(session);
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    if (reject_draining_ != nullptr) reject_draining_->inc();
    return Submit::kDraining;
  }
  if (sessions_.size() >= cfg_.max_sessions) {
    if (reject_session_cap_ != nullptr) reject_session_cap_->inc();
    return Submit::kSessionCap;
  }
  const SessionId id = next_id_++;
  sessions_.emplace(id, std::move(entry));
  if (sessions_opened_ != nullptr) {
    sessions_opened_->inc();
    sessions_active_->set(static_cast<double>(sessions_.size()));
  }
  id_out = id;
  return Submit::kAccepted;
}

Submit Server::submit(SessionId id, std::function<void(Session&)> op) {
  const Submit verdict = submit_impl(id, std::move(op));
  if (cfg_.recorder != nullptr) {
    cfg_.recorder->record(obs::FlightEvent::kSubmit, id,
                          obs::monotonic_seconds(),
                          static_cast<double>(verdict));
  }
  return verdict;
}

Submit Server::submit_impl(SessionId id, std::function<void(Session&)> op) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      if (reject_draining_ != nullptr) reject_draining_->inc();
      return Submit::kDraining;
    }
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      if (reject_unknown_ != nullptr) reject_unknown_->inc();
      return Submit::kUnknownSession;
    }
    entry = it->second;
  }

  bool start = false;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->closing) {
      if (reject_draining_ != nullptr) reject_draining_->inc();
      return Submit::kDraining;
    }
    if (entry->queue.size() >= cfg_.max_queue) {
      if (reject_queue_full_ != nullptr) reject_queue_full_->inc();
      return Submit::kQueueFull;
    }
    entry->queue.push_back(std::move(op));
    if (!entry->running) {
      entry->running = true;
      start = true;
    }
  }
  queue_depth_delta(1);
  if (start) {
    // The strand task: drains the session's queue, then retires. The
    // future is intentionally dropped — op exceptions are handled inside
    // run_strand, and drain() synchronizes via pool_.wait_idle().
    pool_.submit([this, id, entry] { run_strand(id, entry); });
  }
  return Submit::kAccepted;
}

void Server::run_strand(SessionId id, const std::shared_ptr<Entry>& entry) {
  for (;;) {
    std::function<void(Session&)> op;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      if (entry->queue.empty()) {
        entry->running = false;
        if (!entry->closing) return;
        if (entry->removed) return;
        entry->removed = true;
        // fall through to remove_entry below, outside entry->mu
      } else {
        op = std::move(entry->queue.front());
        entry->queue.pop_front();
      }
    }
    if (!op) {
      remove_entry(id, entry);
      return;
    }
    queue_depth_delta(-1);
    if (cfg_.recorder != nullptr) {
      cfg_.recorder->record(obs::FlightEvent::kDispatch, id,
                            obs::monotonic_seconds());
    }
    if (cfg_.metrics != nullptr) {
      requests_->inc();
      const double t0 = obs::monotonic_seconds();
      try {
        op(*entry->session);
      } catch (...) {
        op_errors_->inc();
      }
      const double dt = obs::monotonic_seconds() - t0;
      request_timer_->add(dt);
      latency_ms_->observe(dt * 1000.0);
    } else {
      try {
        op(*entry->session);
      } catch (...) {
        // Protocol callers report their own errors; an op that leaks an
        // exception must not kill the strand.
      }
    }
  }
}

void Server::remove_entry(SessionId id,
                          const std::shared_ptr<Entry>& entry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.erase(id);
    if (sessions_closed_ != nullptr) {
      sessions_closed_->inc();
      sessions_active_->set(static_cast<double>(sessions_.size()));
    }
  }
  // The Session dies here, outside both locks.
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->session.reset();
}

Submit Server::close(SessionId id) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      if (reject_unknown_ != nullptr) reject_unknown_->inc();
      return Submit::kUnknownSession;
    }
    entry = it->second;
  }
  bool remove_now = false;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->closing) return Submit::kAccepted;  // idempotent
    entry->closing = true;
    if (!entry->running && entry->queue.empty() && !entry->removed) {
      entry->removed = true;
      remove_now = true;
    }
    // Otherwise the strand retires the session when its queue empties.
  }
  if (remove_now) remove_entry(id, entry);
  return Submit::kAccepted;
}

void Server::drain() {
  {
    // A second drain (the destructor after an explicit call) is fine:
    // the pool wait below is idempotent.
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  // No new submits can enqueue past this point; every accepted op either
  // already holds a pool task or sits in a queue a running strand will
  // drain. wait_idle() therefore covers everything.
  pool_.wait_idle();
  pool_.shutdown(true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.clear();
    if (sessions_active_ != nullptr) sessions_active_->set(0.0);
  }
  // The pool is quiet: the graceful-shutdown dump is deterministic over
  // whatever the run recorded. Idempotent like the drain itself (a second
  // call rewrites the same file).
  if (cfg_.recorder != nullptr) {
    cfg_.recorder->record(obs::FlightEvent::kNote, 0,
                          obs::monotonic_seconds());
    cfg_.recorder->dump_to_file("drain");
  }
}

std::size_t Server::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace parsched::serve
