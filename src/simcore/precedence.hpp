// parsched — precedence-constrained scheduling ([17] in the paper's
// related work: Robert & Schabanel, non-clairvoyant scheduling with
// precedence constraints).
//
// A DagInstance is a set of tasks plus dependency edges; a task becomes
// available (is released to the scheduler) at
//   max(its own release time, completion of all its predecessors).
// The release rule is realized by a PrecedenceSource: an adaptive
// ArrivalSource that watches the engine's completions — successors of
// slow-running tasks arrive later under a bad policy, exactly as in the
// precedence-constrained model.
#pragma once

#include <unordered_map>
#include <vector>

#include "simcore/engine.hpp"
#include "simcore/instance.hpp"
#include "simcore/result.hpp"
#include "simcore/scheduler.hpp"
#include "simcore/source.hpp"

namespace parsched {

struct DagNode {
  Job job;
  std::vector<JobId> deps;  ///< must complete before `job` is released
};

/// Validated precedence instance: unique ids, existing deps, acyclic.
class DagInstance {
 public:
  DagInstance(int machines, std::vector<DagNode> nodes);

  [[nodiscard]] int machines() const { return m_; }
  [[nodiscard]] const std::vector<DagNode>& nodes() const { return nodes_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Earliest possible completion time per task, ignoring machine limits
  /// but honoring precedence and the saturated per-task rate Γ_j(m):
  /// a valid per-task lower bound for ANY schedule on m machines.
  [[nodiscard]] std::unordered_map<JobId, double> earliest_completions()
      const;

  /// Sum over tasks of (earliest completion − release): a provable lower
  /// bound on the total flow time of any schedule.
  [[nodiscard]] double flow_lower_bound() const;

  /// Critical-path length (max earliest completion): a lower bound on the
  /// makespan of any schedule.
  [[nodiscard]] double critical_path() const;

 private:
  int m_;
  std::vector<DagNode> nodes_;        // in topological order
  std::unordered_map<JobId, std::size_t> index_;
};

/// Releases each task once its release time has passed and all its
/// dependencies have completed in the observed schedule.
class PrecedenceSource final : public ArrivalSource {
 public:
  explicit PrecedenceSource(const DagInstance& dag);

  [[nodiscard]] double next_time(const EngineView& view) override;
  std::span<const Job> take(double t, const EngineView& view) override;
  void reset() override;

 private:
  [[nodiscard]] bool ready(const DagNode& node,
                           const EngineView& view) const;

  const DagInstance* dag_;
  std::vector<bool> released_;
  std::vector<Job> batch_;  // the jobs the last take() released
};

/// Convenience: run a policy on a precedence instance.
SimResult simulate_dag(const DagInstance& dag, Scheduler& sched,
                       const EngineConfig& config = {},
                       const std::vector<Observer*>& observers = {});

}  // namespace parsched
