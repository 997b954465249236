// parsched — the natural Greedy hybrid of Section 3.
//
// "At all times allocate processors to jobs in such a way as to maximize
//  the instantaneous rate at which the fractional number of unfinished
//  jobs would be decreased, if it was the case that the original work of
//  each job was its remaining unprocessed work."
//
// For concave curves this is implemented exactly as in the paper: whole
// processors are handed out one at a time, each to the job j maximizing
// the marginal gain (Γ_j(k_j + 1) − Γ_j(k_j)) / p_j(t), where k_j
// processors were already assigned to j.
//
// Lemma 10: despite being the "obvious" generalization of Parallel-SRPT
// and Sequential-SRPT, this policy is Ω(max{P, n^{1/3}})-competitive —
// exponentially worse than Intermediate-SRPT's O(log P).
//
// Between arrivals/completions the marginal priorities drift as remaining
// works decrease, so the policy reports a reconsideration horizon: the
// earliest future instant at which an unassigned (or differently assigned)
// job's marginal priority would overtake a currently granted one. All
// priorities are of the form c / p_j(t) with p_j(t) linear in t, so each
// pairwise crossing has a closed form and the trajectory stays exact.
#pragma once

#include <vector>

#include "simcore/scheduler.hpp"
#include "util/mathx.hpp"

namespace parsched {

class GreedyHybrid final : public Scheduler {
 public:
  using Scheduler::allocate;
  /// `max_quantum`: optional upper bound on the reconsideration interval
  /// (kInf = rely purely on exact crossing detection).
  explicit GreedyHybrid(double max_quantum = kInf);

  [[nodiscard]] std::string name() const override { return "Greedy-Hybrid"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override;

 private:
  /// Priority of granting job `idx` its (k+1)-th processor.
  struct Candidate {
    double priority;   // marginal(k) / remaining
    double remaining;  // tie-break: prefer shorter jobs
    std::size_t idx;
    int k;  // processors already granted

    bool operator<(const Candidate& other) const {
      // The heap algorithms build a max-heap on operator<.
      if (priority != other.priority) return priority < other.priority;
      if (remaining != other.remaining) return remaining > other.remaining;
      return idx > other.idx;
    }
  };

  double max_quantum_;
  // Per-decision scratch (resized each call, capacity reused so the hot
  // path allocates nothing): the candidate heap, granted whole processors
  // per job, and current rates and next marginals for the crossing-time
  // horizon.
  std::vector<Candidate> heap_;
  std::vector<int> granted_;
  std::vector<double> rate_;
  std::vector<double> next_marginal_;
};

}  // namespace parsched
