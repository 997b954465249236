// parsched — the online scheduling policy interface.
//
// A policy is invoked at every decision point (arrival, completion, or a
// time the policy itself requested) and returns a fractional processor
// allocation over the currently alive jobs. Between decision points all
// rates are constant, which is what lets the engine advance with exact
// event times instead of a fixed timestep.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/job.hpp"
#include "util/mathx.hpp"

namespace parsched {

/// One alive job as seen by a policy. Policies are non-clairvoyant about
/// the future but clairvoyant about remaining work, matching the paper's
/// SRPT-style algorithms (`original size` is also visible; the natural
/// greedy of Section 3 uses remaining work only).
struct AliveJob {
  JobId id = kInvalidJob;
  double release = 0.0;
  double size = 0.0;       ///< original work p_j
  double remaining = 0.0;  ///< unprocessed work p_j(t), across all phases
  double weight = 1.0;     ///< weight w_j of the weighted-flow objective
  /// Speedup curve of the *current* phase (the whole curve for
  /// single-phase jobs). This is what the job responds to right now.
  SpeedupCurve curve;
  std::int64_t arrival_seq = 0;  ///< global arrival ordinal (0-based)
  JobTag tag;  ///< workload metadata; online policies must not read this

  // Multi-phase bookkeeping (engine-internal; non-clairvoyant policies
  // must not read these — they reveal the future phase structure).
  std::vector<JobPhase> phases;
  std::size_t phase = 0;
  double phase_remaining = 0.0;
};

class IncrementalOrders;

/// What a policy sees at a decision point.
///
/// The ordering helpers read the engine's persistent IncrementalOrders
/// heaps (simcore/incremental.hpp), which also own the per-decision memo
/// behind the returned spans: building a context starts a new decision
/// on `orders`, and every span a helper returns stays valid until the
/// next context is built on the same orders. Repeated or narrower
/// queries within one decision are O(1); both orders are strict total
/// orders (ties broken by job id), so every k-prefix is unique and a
/// wider query never changes an earlier answer.
class SchedulerContext {
 public:
  /// `orders` must index exactly `alive` (the engine keeps its heaps in
  /// step; a hand-built context calls orders.rebuild(alive) first).
  SchedulerContext(double time, int machines, std::span<const AliveJob> alive,
                   IncrementalOrders& orders);

  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] int machines() const { return machines_; }
  [[nodiscard]] std::span<const AliveJob> alive() const { return alive_; }

  /// Indices into alive() sorted by (remaining, release, id): SRPT order.
  [[nodiscard]] std::span<const std::size_t> by_remaining() const;

  /// Indices of the k jobs with least remaining work (SRPT order among
  /// them) — the first k entries of by_remaining() without paying for the
  /// full sort: O(k log k) from the SRPT heap.
  [[nodiscard]] std::span<const std::size_t> smallest_remaining(
      std::size_t k) const;

  /// Index of the single job with least remaining work (the heap root).
  [[nodiscard]] std::size_t min_remaining() const;

  /// Indices into alive() sorted by (release, id) descending: latest first
  /// (used by LAPS).
  [[nodiscard]] std::span<const std::size_t> by_latest_arrival() const;

  /// Indices of the k latest-arriving jobs. O(k log k).
  [[nodiscard]] std::span<const std::size_t> latest_arrivals(
      std::size_t k) const;

 private:
  double time_;
  int machines_;
  std::span<const AliveJob> alive_;
  IncrementalOrders& orders_;
};

/// A policy's answer: `shares[i]` processors for `ctx.alive()[i]`
/// (fractional, nonnegative, summing to at most m), plus an optional
/// absolute time by which the policy wants to be re-invoked even if no
/// arrival/completion happens (e.g. Greedy's priority-crossing times).
struct Allocation {
  std::vector<double> shares;
  double reconsider_at = kInf;

  /// Start a fresh decision over n jobs: zero shares, no reconsideration.
  /// Reuses the vector's capacity — every policy calls this first on the
  /// engine-owned output buffer, so steady-state decisions allocate
  /// nothing.
  void reset(std::size_t n) {
    shares.assign(n, 0.0);
    reconsider_at = kInf;
  }
};

/// Online scheduling policy. Implementations must be deterministic
/// functions of the context (plus internal state updated at decision
/// points) so simulations are reproducible.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Fill `out` with this decision's allocation. `out` is an engine-owned
  /// buffer reused across decisions; implementations MUST begin with
  /// out.reset(ctx.alive().size()) (or assign every field) — its previous
  /// contents are the last decision's answer, not zeros.
  virtual void allocate(const SchedulerContext& ctx, Allocation& out) = 0;

  /// Convenience for callers without a reusable buffer (tests, one-shot
  /// probes): returns a fresh Allocation.
  [[nodiscard]] Allocation allocate(const SchedulerContext& ctx) {
    Allocation out;
    allocate(ctx, out);
    return out;
  }

  /// Called once before a simulation run; default resets nothing.
  virtual void reset() {}

  /// Serialize the policy's mutable decision state for serve/ session
  /// snapshots. Stateless policies (everything except quantized-equi)
  /// return "". load_state() must accept exactly what save_state()
  /// produced and restore bit-identical future decisions; it throws
  /// std::invalid_argument on a blob it does not recognize.
  [[nodiscard]] virtual std::string save_state() const { return {}; }
  virtual void load_state(const std::string& state) {
    if (!state.empty()) {
      throw std::invalid_argument("policy " + name() +
                                  " carries no state to restore");
    }
  }
};

}  // namespace parsched
