// parsched — persistent-across-events ordering indexes.
//
// Every decision step needs (prefixes of) two strict total orders over
// the alive set: SRPT order (remaining, release, id) and latest-arrival
// order (release, id descending). Rebuilding them per decision costs
// O(n log n) per step, which caps dense-alive runs (n = 10⁵–10⁶) well
// below the rate the serve layer generates. OrderHeap keeps one order
// *across* decisions as an intrusive binary heap, so the per-event
// maintenance cost is O(log n); IncrementalOrders holds one OrderHeap
// per order.
//
// A heap is built on its first query: it starts stale, and the first
// query gathers the alive set's *head* — the jobs whose key is below a
// threshold key T — and heapifies it. A policy reads at most a few
// prefix entries (ISRPT reads m of n), so T is picked from a strided
// sample of the keys' first field such that the head holds a few
// thousand jobs (kHeadJobs) and at least the query's width; the other
// jobs form a tail that is never gathered. With
// n at most 4·kHeadJobs, or a query of at least n/16 jobs, T = +∞ and
// the head is the whole alive set. While fresh the heap is kept in step
// with the alive set:
//
//   admit       → one sift-up when the new key is below T
//   complete    → one heap-delete of a head job (mirroring the engine's
//                 swap-remove of alive_, so entry indexes track alive
//                 indexes exactly)
//   advance     → one sift per job whose remaining work changed (SRPT
//                 only; latest-arrival keys never change; a tail job
//                 whose key falls below T joins the head) — or, when a
//                 step changes most keys at once (an EQUI-style
//                 allocation runs every job), the engine marks the SRPT
//                 heap stale again, since an O(n) regather at the next
//                 query is cheaper than n sift-downs.
//
// Every head key is below every tail key, so the head's own k-prefix is
// the order's k-prefix while the head holds k jobs; a query wider than
// the head (completions drain it) gathers it again with a larger T.
// A stale heap skips all upkeep but its position map's entry per
// admitted job, so a policy that never asks for an order pays 4 B per
// job for it: ISRPT, EQUI and Greedy never gather the latest-arrival
// heap, and EQUI and LAPS never gather the SRPT one.
// Queries never mutate keys: a k-prefix is produced by a bounded
// traversal of the heap (a candidate min-heap over heap slots,
// O(k log k) after the O(1) root), and a prefix as wide as the head (the
// full order, when T = +∞) by sorting a compact copy of the head. Each
// heap also owns its part of the per-decision memo behind
// SchedulerContext's helpers: an order buffer plus its valid prefix
// length, reset by begin_decision(). The test-side oracle
// (tests/test_incremental.cpp) re-derives every helper answer with plain
// per-call sorts and checks them decision by decision.
//
// The position map (alive index -> heap slot) is per-job state from
// admission on: it holds one entry per alive job, stale or fresh, so its
// pages are committed as jobs are admitted, alongside the alive columns
// (its buffer comes from HugePageAllocator: a couple of huge-page faults
// where the kernel grants huge pages, not ~1,000 small ones at n = 10^6).
// Only head entries are meaningful: job i is in the head iff its entry
// names a slot of the heap whose entry is job i's, so a tail job needs no
// mark and a gather writes the head's entries alone.
//
// Allocation discipline: reserve(n) pre-sizes every internal buffer with
// geometric growth; the engine calls it at admission, after which every
// query and update — including a gather — is allocation-free and safe
// inside the engine's AllocGuard fences. Reserved capacity a small head
// never touches costs no page faults. A bounded SRPT gather reads the
// alive set's remaining-work floors (one per 64 jobs, RemainingFloors)
// instead of every key, lists the blocks whose floor is not above T, and
// reads those blocks' remaining work with the next ones prefetched;
// unknown floors (after a dense step or a restore) are rebuilt by that
// gather's scan of every key. So the first gather after a large release
// touches the floors, the near blocks and the head, not n entries.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simcore/alive_set.hpp"
#include "util/huge_pages.hpp"

namespace parsched {

/// An order's position map: alive index -> heap slot. A tail job's entry
/// holds no meaning; OrderHeap tells head from tail against the heap.
using PositionMap =
    std::vector<std::uint32_t, HugePageAllocator<std::uint32_t>>;

/// Flat heap entries: compact (24/16 bytes) and carrying the alive index
/// the queries scatter out. `of` gathers job i's key from the alive set.
struct SrptKey {
  double remaining;
  double release;
  JobId id;
  std::uint32_t idx;
  static SrptKey of(AliveView alive, std::size_t i) {
    return {alive.remaining(i), alive.release(i), alive.id(i),
            static_cast<std::uint32_t>(i)};
  }
  bool operator==(const SrptKey&) const = default;
};
struct LatestKey {
  double release;
  JobId id;
  std::uint32_t idx;
  static LatestKey of(AliveView alive, std::size_t i) {
    return {alive.release(i), alive.id(i), static_cast<std::uint32_t>(i)};
  }
  bool operator==(const LatestKey&) const = default;
};

/// The single definition of both tie-break orders. The key structs carry
/// the job id, making both orders strict total orders with unique
/// k-prefixes.
/// Each also gives a key's first field (`first`, of alive job i or of a
/// key) and that field's strict order (`first_less`): a gather samples
/// the first field alone to pick T, and its scan skips a job whose first
/// field orders after T's reading one array.
struct SrptKeyLess {
  bool operator()(const SrptKey& a, const SrptKey& b) const {
    if (a.remaining != b.remaining) return a.remaining < b.remaining;
    if (a.release != b.release) return a.release < b.release;
    return a.id < b.id;
  }
  static double first(AliveView alive, std::size_t i) {
    return alive.remaining(i);
  }
  static double first(const SrptKey& k) { return k.remaining; }
  static bool first_less(double a, double b) { return a < b; }
  /// A gather reads the alive set's remaining-work floors
  /// (RemainingFloors) instead of every key.
  static constexpr bool kFloored = true;
};

struct LatestKeyLess {
  bool operator()(const LatestKey& a, const LatestKey& b) const {
    if (a.release != b.release) return a.release > b.release;
    return a.id > b.id;
  }
  static double first(AliveView alive, std::size_t i) {
    return alive.release(i);
  }
  static double first(const LatestKey& k) { return k.release; }
  static bool first_less(double a, double b) { return a > b; }
  static constexpr bool kFloored = false;
};

/// One order over the alive set: a min-heap in Less order over the jobs
/// whose key is below a threshold T (the head; T = +∞ holds every job),
/// built on its first query and kept in step with the alive set while
/// fresh.
template <class Key, class Less>
class OrderHeap {
 public:
  /// The head size a gather aims at when T can be finite.
  static constexpr std::size_t kHeadJobs = 2048;

  /// Forget every entry: the next query regathers every key from the
  /// alive set. Keeps buffer capacity and the position map's length.
  void mark_stale() {
    stale_ = true;
    memo_ = 0;
  }
  [[nodiscard]] bool stale() const { return stale_; }

  /// A new run or a restored state over `n` alive jobs: stale, with a
  /// position map of n entries (within reserve(n)'s capacity).
  void clear(std::size_t n) {
    mark_stale();
    pos_.resize(n);
  }

  /// Pre-size every internal buffer for up to `n` alive jobs (geometric
  /// growth, amortized O(1) per admission).
  void reserve(std::size_t n);

  /// Admit: alive jobs [first, alive.size()) were just appended (first
  /// == the previous size), and each joins the head, in index order,
  /// when its key is below T. O(log n) per job; while stale, only the
  /// position map grows by the jobs' entries, in one write.
  void insert(AliveView alive, std::size_t first);

  /// Job `idx`'s key changed in the alive set: re-read it and restore
  /// the heap order (the job joins or leaves the head as its key moves
  /// across T). O(log n); a no-op while stale.
  void refresh(AliveView alive, std::size_t idx);

  /// Complete: mirror of the engine's swap-remove. The job at alive
  /// index `idx` is gone and the job previously at index `last` (the
  /// back of the alive array before the removal) now lives at `idx`;
  /// idx == last removes the back element. O(log n); while stale, only
  /// the position map shrinks to the new alive count.
  void remove_swap(std::size_t idx, std::size_t last);

  /// Start a new decision: forget the cached order prefix (keys may have
  /// moved since the last one).
  void begin_decision() { memo_ = 0; }

  /// The first min(k, size) alive indexes of the order. Cached per
  /// decision: a query no wider than an earlier one is O(1), and a wider
  /// one rewrites the buffer without changing the earlier prefix, so
  /// every span returned since begin_decision() stays valid. A stale
  /// heap, or one whose head holds fewer than min(k, size) jobs, is
  /// gathered from `alive` first.
  [[nodiscard]] std::span<const std::size_t> prefix(AliveView alive,
                                                    std::size_t k);

  /// Jobs in the head: the alive set's size when T = +∞.
  [[nodiscard]] std::size_t head_size() const { return heap_.size(); }

  /// Audit (PARSCHED_AUDIT): stale or not, the position map holds one
  /// entry per alive job, and for the SRPT order each known
  /// remaining-work floor is at most the remaining work of every job in
  /// its block; of a fresh heap, every entry matches the alive set and
  /// its map entry, the heap property holds, and a job is in the head
  /// (by its map entry) iff its key is below T. Trips a PARSCHED_CHECK on
  /// any violation. O(n).
  void audit(AliveView alive) const;

 private:
  /// Whether alive job i is in the head: its map entry names a heap slot
  /// that holds job i (a tail job's entry is whatever it last was).
  [[nodiscard]] bool in_head(std::size_t i) const {
    const std::uint32_t s = pos_[i];
    return s < heap_.size() && heap_[s].idx == i;
  }
  [[nodiscard]] bool below_bound(const Key& k) const {
    return !bounded_ || Less{}(k, bound_);
  }
  /// Pick T for a head of at least `want` jobs and gather it.
  void gather(AliveView alive, std::size_t want);
  /// A bounded gather's scan: the jobs whose key is below T, in index
  /// order, into the heap and their position-map entries.
  void scan_head(AliveView alive);

  /// One sampled job: its key's first field and its alive index.
  struct Sample {
    double first;
    std::uint32_t idx;
  };

  std::vector<Key> heap_;  ///< the head
  PositionMap pos_;        ///< alive index -> heap slot (head jobs only)
  // The top-k traversal's heap-slot heap; a bounded gather lists its near
  // blocks here.
  std::vector<std::uint32_t> cand_;
  // A query as wide as the head sorts a compact copy of it (the heap
  // must keep its shape — queries never mutate keys).
  std::vector<Key> scratch_;
  std::vector<Sample> sample_;  ///< a bounded gather's sample
  // Per-decision memo: the order buffer behind the returned spans and
  // the length of its valid prefix (0 after begin_decision()).
  std::vector<std::size_t> order_;
  std::size_t memo_ = 0;
  Key bound_{};           ///< T, when bounded_
  bool bounded_ = false;  ///< false: T = +∞, the head is every job
  bool stale_ = true;     ///< gathered from the alive set at the next query
};

/// The two orders the policies read, each kept by its own OrderHeap.
/// The engine forwards every admission and completion to both (a stale
/// heap ignores them) and marks the SRPT heap stale on a dense step.
class IncrementalOrders {
 public:
  OrderHeap<SrptKey, SrptKeyLess> srpt;
  OrderHeap<LatestKey, LatestKeyLess> latest;

  /// A new run or a restored state over `n` alive jobs: both orders
  /// regather at their first query. Call after reserve(n).
  void clear(std::size_t n) {
    srpt.clear(n);
    latest.clear(n);
  }

  /// Must be called with the new alive count before insert() so the heap
  /// push lands in reserved storage — the engine does this outside its
  /// AllocGuard fences.
  void reserve(std::size_t n) {
    srpt.reserve(n);
    latest.reserve(n);
  }

  void insert(AliveView alive, std::size_t first) {
    srpt.insert(alive, first);
    latest.insert(alive, first);
  }

  void remove_swap(std::size_t idx, std::size_t last) {
    srpt.remove_swap(idx, last);
    latest.remove_swap(idx, last);
  }

  /// SchedulerContext calls this.
  void begin_decision() {
    srpt.begin_decision();
    latest.begin_decision();
  }

  void audit(AliveView alive) const {
    srpt.audit(alive);
    latest.audit(alive);
  }
};

}  // namespace parsched
