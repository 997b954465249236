// parsched — jobs and their metadata.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "speedup/curve.hpp"

namespace parsched {

using JobId = std::uint32_t;
inline constexpr JobId kInvalidJob = static_cast<JobId>(-1);

/// Workload metadata attached to a job by the generators and consumed by
/// the adversaries, handcrafted schedules and per-class analysis. Plays no
/// role in the engine or in any online policy (policies are tag-blind).
struct JobTag {
  enum class Class : std::uint8_t {
    kNone = 0,
    kLong,    ///< a "long" job of an adversarial phase
    kShort,   ///< a unit job of an adversarial phase
    kStream,  ///< part-2 stream job (Section 4) / final stream (Section 3)
  };

  int phase = -1;        ///< adversarial phase index, -1 when not applicable
  Class cls = Class::kNone;
  std::int64_t index = -1;  ///< ordinal within its (phase, class) group

  friend bool operator==(const JobTag&, const JobTag&) = default;
};

[[nodiscard]] std::string to_string(JobTag::Class c);

/// One phase of a multi-phase job: `work` units processed at rate
/// `curve.rate(x)` while the phase is active. This is the job model of
/// the related work ([Edmonds, Scheduling in the dark], [Edmonds–Pruhs]):
/// a job is a sequence of phases with arbitrary speedup curves, and a
/// non-clairvoyant scheduler cannot see where the phase boundaries are.
struct JobPhase {
  double work = 0.0;
  SpeedupCurve curve;

  friend bool operator==(const JobPhase&, const JobPhase&) = default;
};

/// A task: released at `release`, carrying `size` units of work, processed
/// at rate `curve.rate(x)` when holding x processors.
///
/// When `phases` is non-empty the job is *multi-phase*: `size` is the sum
/// of the phase works (Instance construction enforces this) and `curve`
/// describes the first phase; the engine switches curves as phases
/// complete. Single-phase jobs leave `phases` empty.
struct Job {
  JobId id = kInvalidJob;
  double release = 0.0;
  double size = 1.0;
  /// Importance for the *weighted* flow-time objective sum w_j (C_j - r_j).
  /// 1.0 recovers the paper's unweighted objective.
  double weight = 1.0;
  SpeedupCurve curve;
  JobTag tag;
  std::vector<JobPhase> phases;

  /// Normalize: derive `size` and `curve` from `phases` (no-op when
  /// single-phase). Throws std::invalid_argument on empty/nonpositive
  /// phase work.
  void normalize_phases();

  friend bool operator==(const Job&, const Job&) = default;
};

/// The admission check every job passes before it can reach an engine
/// (Instance construction, streaming Engine::admit and the engine's own
/// admission of every released job share it): release, size and weight
/// must be finite, release >= 0 and size > 0, and a multi-phase job must
/// be normalized (normalize_phases() would change nothing). Written so
/// that NaN fails every comparison; throws std::invalid_argument.
void check_job(const Job& job);

/// Convenience constructor for multi-phase jobs.
[[nodiscard]] Job make_phased_job(JobId id, double release,
                                  std::vector<JobPhase> phases);

}  // namespace parsched
