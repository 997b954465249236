// parsched — the Section-4 adaptive lower-bound adversary.
//
// For a fixed alpha in [0, 1), let eps = 1 - alpha, r = (1 - 2^{-eps})/2,
// L = log_{1/r}(P) / 2. The input has two parts.
//
// Part 1 — at most L phases. Phase i (0-based) has length p_i = P * r^i
// and starts at s_i = sum_{j<i} p_j. At s_i the adversary releases m/2
// "long" jobs of size p_i; at each integer offset j = 0 .. floor(p_i/2)-1
// it releases m "short" jobs of size 1... (the paper releases m jobs of
// length 1 at times s_i + j). At the midpoint d_i = s_i + p_i/2 the
// adversary inspects the online algorithm: if the remaining work from the
// phase-i short jobs is at least m * log_{1/r}(P), it jumps to part 2 at
// T = d_i ("case 1"); otherwise it continues with phase i+1, or — after
// the last phase — starts part 2 at T = s_{L-1} + p_{L-1} ("case 2").
//
// Part 2 — a stream of m unit jobs at times T + k for k = 0 .. X-1
// (paper: X = P^2).
//
// Either way the online algorithm carries Omega(m log P) unfinished jobs
// through the whole stream while the paper's explicit "standard schedule"
// (implemented in adversary_standard_plan) achieves O(m P^2) total flow —
// hence the Omega(log P) competitive lower bound of Theorem 2.
//
// The adversary is realized as an adaptive ArrivalSource: it decides at
// run time, based on the observed engine state, which branch to take —
// exactly the power the lower-bound proof grants it.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sched/opt/plan.hpp"
#include "simcore/instance.hpp"
#include "simcore/source.hpp"

namespace parsched {

struct AdversaryConfig {
  int machines = 16;   ///< m; must be even (m/2 long jobs per phase)
  double P = 64.0;     ///< longest job length; sizes lie in [1, P]
  double alpha = 0.5;  ///< parallelizability exponent of every job
  /// Part-2 stream length; negative = the paper's P^2. Large P sweeps may
  /// cap this for tractability (benches print the cap when applied).
  double stream_time = -1.0;
};

/// Derived parameters of the construction.
struct AdversaryParams {
  double epsilon = 0.5;   ///< 1 - alpha
  double r = 0.25;        ///< phase-length reduction factor
  double kappa = 0.0;     ///< (2^eps - 1)/(2^eps + 1)
  int num_phases = 0;     ///< L = floor(log_{1/r}(P) / 2), >= 1
  double threshold = 0.0; ///< m * log_{1/r}(P), the midpoint trigger
  double X = 0.0;         ///< realized stream length
  /// The paper's technical side condition log^2_{1/r}(P) < kappa*sqrt(P)/4
  /// (guarantees the case-2 counting argument). The construction runs
  /// either way; benches report this flag.
  bool proof_condition = false;
};

[[nodiscard]] AdversaryParams adversary_params(const AdversaryConfig& cfg);

/// What the adversary ended up doing (available after the run).
struct AdversaryOutcome {
  bool case1 = false;      ///< triggered at a midpoint
  int decision_phase = 0;  ///< the phase at whose midpoint/end part 2 began
  double T = 0.0;          ///< start of part 2
  std::vector<double> phase_start;   ///< realized s_i
  std::vector<double> phase_length;  ///< realized p_i
};

/// The adaptive arrival source. Use with Engine::run; after the run query
/// outcome() and build the OPT upper-bound plan with
/// adversary_standard_plan().
class AdversarySource final : public ArrivalSource {
 public:
  explicit AdversarySource(const AdversaryConfig& cfg);

  [[nodiscard]] double next_time(const EngineView& view) override;
  std::span<const Job> take(double t, const EngineView& view) override;
  void reset() override;

  [[nodiscard]] const AdversaryParams& params() const { return params_; }
  [[nodiscard]] const AdversaryOutcome& outcome() const { return outcome_; }

 private:
  void schedule_phase(int i);
  void start_part2(double T, int phase, bool case1);

  AdversaryConfig cfg_;
  AdversaryParams params_;
  AdversaryOutcome outcome_;

  // Pending scheduled arrivals for the current phase (time-sorted).
  std::deque<Job> pending_;
  std::vector<Job> batch_;  // the jobs the last take() released
  double decision_time_ = 0.0;  ///< next midpoint; kInf once in part 2
  int current_phase_ = 0;
  bool part2_ = false;
  bool done_ = false;
  JobId next_id_ = 0;
  // Lazily generated part-2 stream.
  double stream_start_ = 0.0;
  std::int64_t stream_next_ = 0;
  std::int64_t stream_total_ = 0;
};

/// The paper's explicit feasible schedule for the *realized* instance
/// (standard schedules for full phases; in case 1 the decision phase's
/// shorts run immediately and its longs run on two machines each after the
/// stream). Its flow is O(m P^2) and upper-bounds OPT.
[[nodiscard]] Plan adversary_standard_plan(const Instance& realized,
                                           const AdversaryConfig& cfg,
                                           const AdversaryOutcome& outcome);

}  // namespace parsched
