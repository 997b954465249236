// parsched — the online scheduling policy interface.
//
// A policy is invoked at every decision point (arrival, completion, or a
// time the policy itself requested) and returns a fractional processor
// allocation over the currently alive jobs. Between decision points all
// rates are constant, which is what lets the engine advance with exact
// event times instead of a fixed timestep.
#pragma once

#include <algorithm>
#include <bit>
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

/// A policy's answer: `shares()[i]` processors for `ctx.alive()[i]`
/// (fractional, nonnegative, summing to at most m), plus an optional
/// absolute time by which the policy wants to be re-invoked even if no
/// arrival/completion happens (e.g. Greedy's priority-crossing times).
///
/// The allocation also carries its *support*: the indices that received
/// a share. Policies write shares only through grant() or fill(), so a
/// share whose bits are not +0.0 is always in the support, and the engine
/// spends per-decision work on the support rather than on every alive
/// job. A fill() support is the whole range [0, n) and is kept as a flag,
/// not as a list of n indices. The dense share vector stays materialised
/// for observers and snapshots.
class Allocation {
 public:
  double reconsider_at = kInf;

  /// Start a fresh decision over n jobs: zero shares, empty support, no
  /// reconsideration. Zeroes only the previous support (all of it after a
  /// fill()) and reuses every buffer's capacity — every policy calls this
  /// first on the engine-owned output buffer, so steady-state decisions
  /// allocate nothing.
  void reset(std::size_t n) {
    if (dense_) {
      std::fill(shares_.begin(), shares_.end(), 0.0);
    } else {
      for (const std::size_t i : support_) shares_[i] = 0.0;
    }
    shares_.resize(n, 0.0);
    support_.clear();
    if (support_.capacity() < n) {
      support_.reserve(std::max(n, 2 * support_.capacity()));
    }
    dense_ = false;
    reconsider_at = kInf;
  }

  /// Set job i's share to s (overwriting an earlier grant).
  void grant(std::size_t i, double s) {
    if (!dense_ && is_pos_zero(shares_[i]) && !is_pos_zero(s)) {
      support_.push_back(i);
    }
    shares_[i] = s;
  }

  /// Give every job the same share s (equipartition). The support becomes
  /// the contiguous range [0, n).
  void fill(double s) {
    std::fill(shares_.begin(), shares_.end(), s);
    support_.clear();
    dense_ = true;
  }

  /// Adopt a dense share vector (snapshot restore) and rebuild the
  /// support from its entries whose bits are not +0.0, ascending.
  void assign(std::vector<double> shares);

  /// Sort the support ascending and drop duplicate entries (an index
  /// granted nonzero, then +0.0, then nonzero again is listed twice) — or,
  /// when it covers at least 1/8 of the jobs, widen it to the dense range.
  /// The engine calls this once per decision, before reading support().
  void sort_support();

  [[nodiscard]] std::span<const double> shares() const { return shares_; }
  [[nodiscard]] std::size_t size() const { return shares_.size(); }
  /// True after fill(), or after sort_support() widened a large support:
  /// the support is all of [0, size()).
  [[nodiscard]] bool dense() const { return dense_; }
  /// The granted indices (empty when dense()); ascending and unique once
  /// sort_support() has run.
  [[nodiscard]] std::span<const std::size_t> support() const {
    return support_;
  }

 private:
  static bool is_pos_zero(double x) {
    return std::bit_cast<std::uint64_t>(x) == 0;
  }

  std::vector<double> shares_;
  std::vector<std::size_t> support_;
  bool dense_ = false;
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
