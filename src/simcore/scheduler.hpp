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

#include "simcore/alive_set.hpp"
#include "util/mathx.hpp"

namespace parsched {

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
  /// `orders` must index exactly `alive` or be stale: the engine keeps
  /// its heaps in step, and each heap is built from `alive` on its first
  /// query, so a hand-built context passes a fresh IncrementalOrders.
  SchedulerContext(double time, int machines, AliveView alive,
                   IncrementalOrders& orders);

  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] int machines() const { return machines_; }
  /// The alive jobs, read through accessors (see AliveView).
  [[nodiscard]] AliveView alive() const { return alive_; }

  /// Indices of the k jobs with least remaining work, in SRPT order
  /// (remaining, release, id) — the first k entries of that order without
  /// paying for the full sort: O(k log k) from the SRPT heap.
  [[nodiscard]] std::span<const std::size_t> smallest_remaining(
      std::size_t k) const;

  /// Index of the single job with least remaining work:
  /// smallest_remaining(1)[0]. Requires a nonempty alive set.
  [[nodiscard]] std::size_t min_remaining() const;

  /// Indices of the k latest-arriving jobs, sorted by (release, id)
  /// descending: latest first (used by LAPS). O(k log k).
  [[nodiscard]] std::span<const std::size_t> latest_arrivals(
      std::size_t k) const;

 private:
  double time_;
  int machines_;
  AliveView alive_;
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
/// not as a list of n indices. A fill() also marks the allocation
/// uniform: every share is the one value uniform_share(), which the
/// engine then reads instead of the n shares (grant(), reset() and
/// assign() clear the mark). A fill() records n and s only: the n shares
/// are written the first time they are read (shares(), a grant() after
/// the fill, or a copy's shares()), into capacity the fill() reserved,
/// so a uniform decision nobody observes writes no share at all, and the
/// later write allocates nothing. That first shares() is a write: threads
/// that share one const Allocation must not make it concurrently.
class Allocation {
 public:
  double reconsider_at = kInf;

  /// Start a fresh decision over n jobs: zero shares, empty support, no
  /// reconsideration. Zeroes only the previous support (all of it after a
  /// fill()) and reuses every buffer's capacity — every policy starts a
  /// decision on the engine-owned output buffer with this or fill(), so
  /// steady-state decisions allocate nothing.
  void reset(std::size_t n) {
    if (dense_) {
      shares_.assign(n, 0.0);
    } else {
      for (const std::size_t i : support_) shares_[i] = 0.0;
      shares_.resize(n, 0.0);
    }
    size_ = n;
    unwritten_ = false;
    support_.clear();
    reserve_geometric(support_, n);
    dense_ = false;
    uniform_ = false;
    reconsider_at = kInf;
  }

  /// Set job i's share to s (overwriting an earlier grant).
  void grant(std::size_t i, double s) {
    write_shares();
    if (!dense_ && is_pos_zero(shares_[i]) && !is_pos_zero(s)) {
      support_.push_back(i);
    }
    shares_[i] = s;
    uniform_ = false;
  }

  /// Start a fresh decision that gives each of n jobs the same share s
  /// (equipartition): size n, every share s, the support the contiguous
  /// range [0, n), uniform, no reconsideration. Writes no share (see the
  /// class comment) — a policy calls this instead of reset(), not after
  /// it.
  void fill(std::size_t n, double s) {
    // The later write cannot allocate, nor a reset(n) after this fill.
    reserve_geometric(shares_, n);
    reserve_geometric(support_, n);
    size_ = n;
    unwritten_ = true;
    support_.clear();
    dense_ = true;
    uniform_ = true;
    uniform_share_ = s;
    reconsider_at = kInf;
  }

  /// Adopt a dense share vector (snapshot restore) and rebuild the
  /// support from its entries whose bits are not +0.0, ascending.
  void assign(std::vector<double> shares);

  /// Sort the support ascending and drop duplicate entries (an index
  /// granted nonzero, then +0.0, then nonzero again is listed twice) — or,
  /// when it covers at least 1/8 of the jobs, widen it to the dense range.
  /// The engine calls this once per decision, before reading support().
  void sort_support();

  /// The n shares, written first if a fill() left them unwritten.
  [[nodiscard]] std::span<const double> shares() const {
    write_shares();
    return shares_;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// True after fill(), or after sort_support() widened a large support:
  /// the support is all of [0, size()).
  [[nodiscard]] bool dense() const { return dense_; }
  /// True after fill() until the next grant(), reset() or assign(): every
  /// share is uniform_share(), bit for bit (so the allocation is dense).
  [[nodiscard]] bool uniform() const { return uniform_; }
  /// The share of every job when uniform(); meaningless otherwise.
  [[nodiscard]] double uniform_share() const { return uniform_share_; }
  /// The granted indices (empty when dense()); ascending and unique once
  /// sort_support() has run.
  [[nodiscard]] std::span<const std::size_t> support() const {
    return support_;
  }

 private:
  static bool is_pos_zero(double x) {
    return std::bit_cast<std::uint64_t>(x) == 0;
  }

  /// After a fill(): write its n shares into the capacity fill() reserved.
  void write_shares() const {
    if (!unwritten_) return;
    shares_.assign(size_, uniform_share_);
    unwritten_ = false;
  }

  /// Holds the size() shares unless unwritten_; then its contents are
  /// stale and every share is uniform_share_.
  mutable std::vector<double> shares_;
  mutable bool unwritten_ = false;
  std::size_t size_ = 0;
  std::vector<std::size_t> support_;
  bool dense_ = false;
  bool uniform_ = false;
  double uniform_share_ = 0.0;
};

/// Online scheduling policy. Implementations must be deterministic
/// functions of the context (plus internal state updated at decision
/// points) so simulations are reproducible.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Fill `out` with this decision's allocation. `out` is an engine-owned
  /// buffer reused across decisions; implementations MUST start the
  /// decision with out.reset(ctx.alive().size()) or
  /// out.fill(ctx.alive().size(), s) — its previous contents are the last
  /// decision's answer, not zeros.
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
