// parsched — one online scheduling session.
//
// A Session wraps a live simcore::Engine in streaming mode together with
// the policy it runs: jobs are admitted incrementally (admit), simulated
// time is advanced in increments (advance), intermediate results can be
// queried at any point (query), and the arrival stream is closed with
// finish(), which returns the final SimResult — identical, double for
// double, to a batch Engine::run() over the same jobs.
//
// The clock driving advance() belongs to the caller: a replay client
// advances along the releases of a recorded arrival log, a wall-clock
// client maps real time onto simulated time. The session itself is
// clock-agnostic (and reads no clock — determinism is the point).
//
// snapshot() serializes the whole session (policy spec + policy state +
// engine state) into a versioned blob; restore() reconstructs it in any
// process, and the continuation is bit-identical to the donor's
// (tests/test_serve.cpp holds both properties).
//
// Sessions are NOT thread-safe; the serve::Cluster runs each session on
// a strand (at most one queued operation executing at a time), which is
// the concurrency contract.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "simcore/engine.hpp"

namespace parsched::obs {
class MetricsRegistry;
class FlightRecorder;
}  // namespace parsched::obs

namespace parsched::serve {

struct SessionSnapshot;  // serve/snapshot.hpp

class Session {
 public:
  struct Config {
    std::string policy = "equi";  ///< sched/registry.hpp spec
    int machines = 1;
    double speed = 1.0;  ///< resource augmentation (EngineConfig::speed)
    /// Borrowed registry for engine run totals; must outlive the session.
    obs::MetricsRegistry* metrics = nullptr;
    /// Borrowed flight recorder handed to the engine (admissions,
    /// decision steps, completions, stalls land in the ring). Must
    /// outlive the session. Not carried in a snapshot — the recorder is
    /// observability plumbing, not session state; restore() takes one.
    obs::FlightRecorder* recorder = nullptr;
  };

  /// Opens the session: constructs the policy (throws
  /// std::invalid_argument on an unknown spec) and begins a streaming
  /// run.
  explicit Session(Config cfg);

  /// Admit one job. Requires job.release >= frontier(); throws
  /// std::invalid_argument otherwise. Rejected admissions leave the
  /// session unchanged.
  void admit(const Job& job);

  /// Simulate up to time t (monotone; earlier times are a no-op).
  void advance(double to_time);

  /// Close the arrival stream, run to completion, and latch the final
  /// result (available via result() afterwards). Idempotent.
  void finish();

  [[nodiscard]] bool finished() const { return final_.has_value(); }
  /// Final result; only valid after finish().
  [[nodiscard]] const SimResult& result() const;
  /// Results accumulated so far (final result once finished).
  [[nodiscard]] const SimResult& partial() const;

  [[nodiscard]] double time() const { return engine_->time(); }
  [[nodiscard]] double frontier() const;
  [[nodiscard]] std::size_t alive_count() const {
    return engine_->alive_count();
  }
  [[nodiscard]] std::size_t pending_count() const {
    return engine_->pending_count();
  }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const std::string& policy_name() const {
    return policy_name_;
  }

  /// Serialize the full session state (versioned binary blob). Only
  /// valid before finish().
  [[nodiscard]] std::string snapshot() const;

  /// Reconstruct a session from a snapshot() blob; `metrics` and
  /// `recorder` are attached to the restored engine (the blob carries
  /// neither). Throws std::invalid_argument on a corrupt or
  /// wrong-version blob.
  static std::unique_ptr<Session> restore(
      const std::string& blob, obs::MetricsRegistry* metrics = nullptr,
      obs::FlightRecorder* recorder = nullptr);

  /// Same, from an already-decoded snapshot (the file restore path).
  static std::unique_ptr<Session> restore(
      SessionSnapshot snap, obs::MetricsRegistry* metrics = nullptr,
      obs::FlightRecorder* recorder = nullptr);

 private:
  struct RestoreTag {};
  Session(RestoreTag, SessionSnapshot snap, obs::MetricsRegistry* metrics,
          obs::FlightRecorder* recorder);

  Config cfg_;
  std::string policy_name_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<Engine> engine_;
  std::optional<SimResult> final_;
};

}  // namespace parsched::serve
