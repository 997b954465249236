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
/// The ordering helpers read the engine's IncrementalOrders
/// (simcore/incremental.hpp): SRPT order from one persistent heap, the
/// latest-arrival order partial-sorted per decision. Both own the
/// per-decision memo behind the returned spans: building a context
/// starts a new decision on `orders`, and every span a helper returns
/// stays valid until the next context is built on the same orders.
/// Repeated or narrower queries within one decision are O(1); both
/// orders are strict total orders (ties broken by job id), so every
/// k-prefix is unique and a wider query never changes an earlier answer.
class SchedulerContext {
 public:
  /// `orders` must index exactly `alive` or be stale: the engine keeps
  /// its SRPT heap in step, and the heap is built from `alive` on its
  /// first query, so a hand-built context passes a fresh
  /// IncrementalOrders.
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
  /// descending: latest first (used by LAPS). O(n + k log k): a partial
  /// sort of the alive set, once per decision and width.
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
/// assign() clear the mark).
///
/// Neither reset() nor fill() writes a share. A fill() records n and s;
/// after a reset() the grants are kept as a list of (index, share) in
/// grant order, the last grant of an index winning. The n shares are
/// written the first time they are read (shares(), a grant() after a
/// fill(), a widening to the dense range in sort_support(), or a copy's
/// shares()), into capacity reset() or fill() reserved, so a decision
/// nobody observes writes n shares only when it is dense, and the later
/// write allocates nothing. That first shares() is a write: threads that
/// share one const Allocation must not make it concurrently.
class Allocation {
 public:
  double reconsider_at = kInf;

  /// Start a fresh decision over n jobs: zero shares, empty support, no
  /// reconsideration. Writes no share (see the class comment) and reuses
  /// every buffer's capacity — every policy starts a decision on the
  /// engine-owned output buffer with this or fill(), so steady-state
  /// decisions allocate nothing.
  void reset(std::size_t n) {
    // Stale shares are never copied when the buffer grows.
    shares_.clear();
    reserve_geometric(shares_, n);
    size_ = n;
    unwritten_ = true;
    support_.clear();
    granted_.clear();
    reserve_geometric(support_, n);
    reserve_list(n);
    dense_ = false;
    uniform_ = false;
    reconsider_at = kInf;
  }

  /// Set job i's share to s (overwriting an earlier grant).
  void grant(std::size_t i, double s) {
    // A list of n/8 grants would be written by sort_support() anyway, so
    // the grants after it go on on written shares.
    if (listing() && support_.size() * 8 < size_) {
      support_.push_back(i);
      granted_.push_back(s);
      return;
    }
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
    reserve_list(n);
    size_ = n;
    unwritten_ = true;
    support_.clear();
    granted_.clear();
    dense_ = true;
    uniform_ = true;
    uniform_share_ = s;
    reconsider_at = kInf;
  }

  /// Adopt a dense share vector (snapshot restore) and rebuild the
  /// support from its entries whose bits are not +0.0, ascending.
  void assign(std::vector<double> shares);

  /// Make the support the ascending indices whose share is not +0.0 (an
  /// index granted twice is listed twice before, one granted +0.0 maybe
  /// once) — or, when the grants that turned a +0.0 share into another
  /// number at least 1/8 of the jobs, widen it to the dense range
  /// (writing the shares). The engine calls this once per decision,
  /// before reading support() and granted().
  void sort_support();

  /// The n shares, written first if reset() or fill() left them
  /// unwritten.
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
  /// sort_support() has run. Before that it may list an index more than
  /// once, or one whose share is +0.0.
  [[nodiscard]] std::span<const std::size_t> support() const {
    return support_;
  }
  /// The share of each support() entry, aligned with it: the sparse
  /// decision's shares without the n-sized vector. Valid after
  /// sort_support() on a sparse allocation, until the next grant().
  [[nodiscard]] std::span<const double> granted() const { return granted_; }

 private:
  /// One listed grant, as sort_support() orders the list.
  struct Grant {
    std::size_t index;
    std::size_t seq;  ///< position in grant order: the last one wins
    double share;
  };

  static bool is_pos_zero(double x) {
    return std::bit_cast<std::uint64_t>(x) == 0;
  }

  /// After a reset(): the grants are a list, the shares unwritten.
  [[nodiscard]] bool listing() const { return unwritten_ && !dense_; }

  /// Capacity for the longest list over n jobs (grant() writes the
  /// shares once it holds n/8 grants), and for the support sort_support()
  /// aligns granted() with, which is shorter when it does not widen.
  void reserve_list(std::size_t n) {
    reserve_geometric(granted_, n / 8 + 1);
    reserve_geometric(order_, n / 8 + 1);
  }

  /// Write the shares a fill() or a reset() left unwritten: n copies of
  /// the fill's share, or the listed grants over zeros in grant order. Of
  /// the list it keeps the support grant() lists on written shares: each
  /// grant that turned a +0.0 share into another (a sorted list keeps
  /// every entry).
  void write_shares() const {
    if (!unwritten_) return;
    if (dense_) {
      shares_.assign(size_, uniform_share_);
    } else {
      shares_.assign(size_, 0.0);
      std::size_t kept = 0;
      for (std::size_t j = 0; j < support_.size(); ++j) {
        const std::size_t i = support_[j];
        const double s = granted_[j];
        if (is_pos_zero(shares_[i]) && !is_pos_zero(s)) {
          support_[kept] = i;
          granted_[kept] = s;
          ++kept;
        }
        shares_[i] = s;
      }
      support_.resize(kept);
      granted_.resize(kept);
    }
    unwritten_ = false;
  }

  /// sort_support() of a list shorter than n/8: sorted, unique, each
  /// index with its last grant's share, the shares still unwritten.
  void sort_list();

  /// Holds the size() shares unless unwritten_; then its contents are
  /// stale, and the shares are uniform_share_ (dense_) or the list.
  mutable std::vector<double> shares_;
  mutable bool unwritten_ = false;
  std::size_t size_ = 0;
  // Mutable with the shares: writing a list keeps only part of it.
  mutable std::vector<std::size_t> support_;
  /// Aligned with support_: each listed grant's share while listing();
  /// each support entry's share after sort_support().
  mutable std::vector<double> granted_;
  /// sort_support()'s scratch for a listed support.
  std::vector<Grant> order_;
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
