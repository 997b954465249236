// parsched — arrival sources.
//
// The engine pulls arrivals from an ArrivalSource. A JobQueue releases a
// fixed Instance or a streaming run's admissions; an adaptive source
// (e.g. the Section-4 adversary in
// src/workload/adversary.*) may decide what to release next as a function
// of the observed engine state, which is exactly the power the paper's
// lower-bound adversary has.
#pragma once

#include <deque>
#include <span>
#include <vector>

#include "simcore/job.hpp"

namespace parsched {

/// Read-only view of the running engine, offered to adaptive sources.
/// (Defined by the engine; sources only see the interface.)
class EngineView {
 public:
  virtual ~EngineView() = default;

  [[nodiscard]] virtual double time() const = 0;
  [[nodiscard]] virtual int machines() const = 0;
  [[nodiscard]] virtual std::size_t alive_count() const = 0;

  /// Total remaining work of alive jobs with the given tag class and phase
  /// (phase = -1 matches any phase).
  [[nodiscard]] virtual double remaining_tagged(JobTag::Class cls,
                                                int phase) const = 0;

  /// True once the job has been completed by the running schedule. Used
  /// by precedence-constrained sources to release successors.
  [[nodiscard]] virtual bool is_completed(JobId id) const = 0;
};

/// Stream of job arrivals, possibly adaptive.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  /// Time of the next arrival or decision point, or kInf when exhausted.
  /// Must be >= the engine's current time.
  [[nodiscard]] virtual double next_time(const EngineView& view) = 0;

  /// Release the jobs arriving at exactly time t (which equals the last
  /// next_time()), normalized (Job::normalize_phases), as a view valid
  /// until the next call on the source. A source may release them in
  /// parts: next_time() then returns t again until the last part. May be
  /// empty (pure decision point), but then the subsequent next_time()
  /// must be strictly greater than t.
  virtual std::span<const Job> take(double t, const EngineView& view) = 0;

  /// Restart from the beginning (for reuse across runs).
  virtual void reset() = 0;
};

/// Jobs queued in release order and handed out once each: a fixed
/// instance's (simulate) or a streaming run's admissions. take() moves
/// the due jobs out of the queue into a reused buffer, at most kPart at a
/// time (the rest follow at the next take()), so a large release frees
/// the queue's blocks as it goes and never needs a second buffer of its
/// size.
class JobQueue final : public ArrivalSource {
 public:
  static constexpr std::size_t kPart = 4096;

  /// Queue `job` behind every queued job released at or before it: O(1)
  /// in release order, a binary search and a deque insert otherwise.
  void push(Job job);
  /// The jobs not yet taken, in release order.
  [[nodiscard]] const std::deque<Job>& jobs() const { return jobs_; }

  [[nodiscard]] double next_time(const EngineView& view) override;
  std::span<const Job> take(double t, const EngineView& view) override;
  void reset() override {}  // the jobs taken are gone: nothing to replay

 private:
  std::deque<Job> jobs_;   // sorted by release, stable among equals
  std::vector<Job> part_;  // the last take()'s jobs
};

}  // namespace parsched
