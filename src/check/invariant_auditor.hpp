// parsched — InvariantAuditor: an Observer that audits a simulation run
// against the paper's model invariants.
//
// Attach one to an Engine (or pass it to simulate()) and it validates, at
// every decision point and event:
//
//   * allocation feasibility — Σ shares ≤ m (within tolerance), every
//     share ≥ 0, one share per alive job;
//   * the Γ-rate model — between consecutive decision points each job's
//     remaining work decreases *exactly* at rate Γ_j(x_j) · speed (the
//     engine advances with exact event times, so the predicted and
//     observed remaining work must agree to rounding error), and is
//     monotonically nonincreasing;
//   * event-time monotonicity across all callbacks;
//   * completions — completion time ≥ release, near-zero remaining work
//     at completion, no duplicate completion, no completion of a job
//     that never arrived;
//   * optional policy-specific structure lints (see PolicyLint): SRPT
//     ordering for Sequential-SRPT, equal splits for EQUI, and the
//     two-regime share structure of Intermediate-SRPT (Sequential-SRPT
//     when overloaded, equipartition when underloaded).
//
// Violations are recorded (bounded), counted, and optionally escalated:
// with AuditConfig::fail_fast the first violation throws AuditFailure.
// Harnesses that run to completion call ok() / report() afterwards.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "simcore/observer.hpp"

namespace parsched {

/// Policy-specific structural lints. kAuto derives the lint from the
/// scheduler name (see policy_lint_for); kNone disables structure checks.
enum class PolicyLint {
  kNone,
  kAuto,
  kSequentialSrpt,    ///< 0/1 shares, min(n, m) served, SRPT order
  kEqui,              ///< every alive job holds exactly m/n
  kIntermediateSrpt,  ///< Sequential-SRPT when n ≥ m, EQUI when n < m
};

/// Map a Scheduler::name() string to its structural lint; kNone for
/// policies without a closed-form share structure.
[[nodiscard]] PolicyLint policy_lint_for(const std::string& scheduler_name);

struct AuditConfig {
  /// Engine speed multiplier (EngineConfig::speed) used in the rate model.
  double speed = 1.0;
  /// Tolerance for share feasibility and structure comparisons.
  double share_tol = 1e-9;
  /// Tolerance on predicted vs observed remaining work (scaled by
  /// max(1, size, rate·t) to absorb accumulated rounding).
  double work_tol = 1e-7;
  /// Tolerance for event-time monotonicity and completion ≥ release.
  double time_tol = 1e-9;
  /// Structural lint to apply at decision points.
  PolicyLint policy = PolicyLint::kNone;
  /// Scheduler name used when policy == kAuto (and in messages).
  std::string policy_name;
  /// Throw AuditFailure on the first violation instead of recording.
  bool fail_fast = false;
  /// Keep at most this many violation messages (counts are exact).
  std::size_t max_recorded = 64;
};

/// Thrown by fail_fast audits (and by require_clean()).
class AuditFailure : public std::runtime_error {
 public:
  explicit AuditFailure(const std::string& what) : std::runtime_error(what) {}
};

class InvariantAuditor final : public Observer {
 public:
  /// One recorded invariant violation.
  struct Violation {
    double time = 0.0;
    std::string message;
  };

  explicit InvariantAuditor(int machines, AuditConfig config = {});

  void on_arrival(double t, const Job& job) override;
  void on_decision(double t, std::span<const AliveJob> alive,
                   std::span<const double> shares) override;
  void on_completion(double t, const Job& job) override;
  void on_done(double t) override;

  /// Re-arm for another run. An auditor audits one Engine::run at a time;
  /// reuse without reset() reports stale-state violations by design.
  void reset();

  [[nodiscard]] bool ok() const { return count_ == 0; }
  /// First max_recorded violations (parallel to the exact total count).
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  /// Human-readable summary: "clean" or the recorded violations.
  [[nodiscard]] std::string report() const;
  /// Throw AuditFailure with report() unless ok().
  void require_clean() const;

  [[nodiscard]] std::uint64_t decisions_audited() const {
    return decisions_;
  }

 private:
  struct JobState {
    double release = 0.0;
    double size = 0.0;
    double prev_remaining = 0.0;  ///< at the last decision point
    double rate = 0.0;            ///< in force since the last decision
    bool has_prediction = false;
    bool completed = false;
  };

  void record(double t, std::string message);
  void observe_time(double t, const char* where);
  void check_structure(double t, std::span<const AliveJob> alive,
                       std::span<const double> shares);

  int m_;
  AuditConfig cfg_;
  double last_event_ = 0.0;
  double last_decision_ = 0.0;
  bool any_event_ = false;
  std::uint64_t count_ = 0;
  std::uint64_t decisions_ = 0;
  std::vector<Violation> violations_;
  std::unordered_map<JobId, JobState> jobs_;
};

}  // namespace parsched
