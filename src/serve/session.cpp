#include "serve/session.hpp"

#include <stdexcept>
#include <utility>

#include "check/contract.hpp"
#include "sched/registry.hpp"
#include "serve/snapshot.hpp"

namespace parsched::serve {

namespace {

EngineConfig engine_config(const Session::Config& cfg) {
  EngineConfig ec;
  ec.speed = cfg.speed;
  ec.metrics = cfg.metrics;
  ec.recorder = cfg.recorder;
  return ec;
}

}  // namespace

Session::Session(Config cfg)
    : cfg_(std::move(cfg)), sched_(make_scheduler(cfg_.policy)) {
  policy_name_ = sched_->name();
  engine_ = std::make_unique<Engine>(cfg_.machines, engine_config(cfg_));
  engine_->begin(*sched_);
}

Session::Session(RestoreTag, SessionSnapshot snap,
                 obs::MetricsRegistry* metrics,
                 obs::FlightRecorder* recorder) {
  cfg_.policy = snap.policy;
  cfg_.machines = snap.engine.machines;
  cfg_.speed = snap.engine.config.speed;
  cfg_.metrics = metrics;
  cfg_.recorder = recorder;
  sched_ = make_scheduler(snap.policy);
  policy_name_ = sched_->name();
  sched_->reset();
  sched_->load_state(snap.scheduler_state);
  EngineConfig ec = snap.engine.config;
  ec.metrics = metrics;
  ec.recorder = recorder;  // observability plumbing, never in the blob
  ec.collect_stats = false;  // profiling does not continue across a restore
  engine_ = std::make_unique<Engine>(snap.engine.machines, ec);
  engine_->import_state(snap.engine, *sched_);
}

std::unique_ptr<Session> Session::restore(const std::string& blob,
                                          obs::MetricsRegistry* metrics,
                                          obs::FlightRecorder* recorder) {
  return restore(decode_snapshot(blob), metrics, recorder);
}

std::unique_ptr<Session> Session::restore(SessionSnapshot snap,
                                          obs::MetricsRegistry* metrics,
                                          obs::FlightRecorder* recorder) {
  return std::unique_ptr<Session>(
      new Session(RestoreTag{}, std::move(snap), metrics, recorder));
}

void Session::admit(const Job& job) {
  if (finished()) {
    throw std::invalid_argument("session already finished");
  }
  engine_->admit(job);
}

void Session::advance(double to_time) {
  if (finished()) {
    throw std::invalid_argument("session already finished");
  }
  engine_->advance_to(to_time);
}

void Session::finish() {
  if (finished()) return;
  final_ = engine_->finish();
}

const SimResult& Session::result() const {
  PARSCHED_CHECK(final_.has_value(), "Session::result() before finish()");
  return *final_;
}

const SimResult& Session::partial() const {
  return final_.has_value() ? *final_ : engine_->partial();
}

double Session::frontier() const {
  return final_.has_value() ? engine_->time() : engine_->frontier();
}

std::string Session::snapshot() const {
  if (finished()) {
    throw std::invalid_argument("cannot snapshot a finished session");
  }
  SessionSnapshot snap;
  snap.policy = cfg_.policy;
  snap.scheduler_state = sched_->save_state();
  snap.engine = engine_->export_state();
  return encode_snapshot(snap);
}

}  // namespace parsched::serve
