// parsched — persistent-across-events ordering indexes.
//
// Every decision step needs (prefixes of) two strict total orders over
// the alive set: SRPT order (remaining, release, id) and latest-arrival
// order (release, id descending). Rebuilding them per decision costs
// O(n log n) per step, which caps dense-alive runs (n = 10⁵–10⁶) well
// below the rate the serve layer generates. This class keeps both orders
// *across* decisions as a pair of intrusive binary heaps, so the
// per-event maintenance cost is O(log n):
//
//   admit       → one sift-up per heap
//   complete    → one heap-delete per heap (mirroring the engine's
//                 swap-remove of alive_, so entry indexes track alive
//                 indexes exactly)
//   advance     → one sift per job whose remaining work changed — or,
//                 when a step changes most keys at once (an EQUI-style
//                 allocation runs every job), one lazy-decay epoch: the
//                 SRPT heap is marked stale and rebuilt in O(n) at the
//                 next query, which is cheaper than n sift-downs and
//                 free for policies that never ask for SRPT order.
//
// The latest-arrival keys are immutable after admission, so that heap is
// never stale. Queries never mutate keys: a k-prefix is produced by a
// bounded traversal of the heap (a candidate min-heap over heap slots,
// O(k log k) after the O(1) root), and a full order by sorting a compact
// copy of the key array. The class also owns the per-decision memo
// behind SchedulerContext's helpers: one order buffer per ordering plus
// its valid prefix length, reset by begin_decision(). The test-side
// oracle (tests/test_incremental.cpp) re-derives every helper answer
// with plain per-call sorts and checks them decision by decision.
//
// Allocation discipline: reserve(n) pre-sizes every internal buffer with
// geometric growth; the engine calls it at admission, after which every
// query and update — including a stale rebuild — is allocation-free and
// safe inside the engine's AllocGuard fences.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simcore/scheduler.hpp"

namespace parsched {

/// Flat heap entries: compact (24/16 bytes) and carrying the alive index
/// the queries scatter out.
struct SrptKey {
  double remaining;
  double release;
  JobId id;
  std::uint32_t idx;
};
struct LatestKey {
  double release;
  JobId id;
  std::uint32_t idx;
};

/// The single definition of both tie-break orders. The key structs carry
/// the job id, making both orders strict total orders with unique
/// k-prefixes.
struct SrptKeyLess {
  bool operator()(const SrptKey& a, const SrptKey& b) const {
    if (a.remaining != b.remaining) return a.remaining < b.remaining;
    if (a.release != b.release) return a.release < b.release;
    return a.id < b.id;
  }
};

struct LatestKeyLess {
  bool operator()(const LatestKey& a, const LatestKey& b) const {
    if (a.release != b.release) return a.release > b.release;
    return a.id > b.id;
  }
};

class IncrementalOrders {
 public:
  /// Drop every entry (a new run is starting). Keeps buffer capacity.
  void clear();

  /// Pre-size every internal buffer for up to `n` alive jobs (geometric
  /// growth, amortized O(1) per admission). Must be called with the new
  /// alive count before insert() so the heap push lands in reserved
  /// storage — the engine does this outside its AllocGuard fences.
  void reserve(std::size_t n);

  /// Rebuild both heaps from scratch over `alive` (snapshot restore).
  /// The SRPT side is left stale — it is regathered lazily at the first
  /// query, exactly like a decay epoch.
  void rebuild(AliveView alive);

  /// Admit: alive job `idx` (== previous size) was just appended.
  /// O(log n) per heap.
  void insert(AliveView alive, std::size_t idx);

  /// The job at alive index `idx` now has `remaining` unprocessed work.
  /// O(log n); a no-op while the SRPT heap is stale (the pending rebuild
  /// re-reads every key from the alive set anyway).
  void update_remaining(std::size_t idx, double remaining);

  /// Complete: mirror of the engine's swap-remove. The job at alive
  /// index `idx` is gone and the job previously at index `last` (the
  /// back of the alive array before the removal) now lives at `idx`;
  /// idx == last removes the back element. O(log n) per heap.
  void remove_swap(std::size_t idx, std::size_t last);

  /// Lazy-decay epoch: most remaining-work keys just changed at once, so
  /// per-key sifts would cost more than a rebuild. Marks the SRPT heap
  /// stale; the next SRPT query regathers keys from the alive set and
  /// re-heapifies in O(n). Policies that never query SRPT order (EQUI,
  /// LAPS) never pay the rebuild.
  void decay_epoch() {
    srpt_stale_ = true;
    ++decay_epochs_;
  }

  [[nodiscard]] std::size_t size() const { return latest_.size(); }
  [[nodiscard]] bool srpt_stale() const { return srpt_stale_; }
  /// Telemetry: decay epochs declared since clear() (stale-rebuild cap).
  [[nodiscard]] std::uint64_t decay_epochs() const { return decay_epochs_; }

  /// Alive index of the SRPT-least job (heap root). Requires size() > 0.
  [[nodiscard]] std::size_t min_srpt(AliveView alive);

  /// Start a new decision: forget the cached order prefixes (keys may
  /// have moved since the last one). SchedulerContext calls this.
  void begin_decision() {
    srpt_memo_ = 0;
    latest_memo_ = 0;
  }

  /// The first min(k, size) alive indexes of the SRPT order. Cached
  /// per decision: a query no wider than an earlier one is O(1), and a
  /// wider one rewrites the buffer without changing the earlier prefix,
  /// so every span returned since begin_decision() stays valid.
  [[nodiscard]] std::span<const std::size_t> srpt_prefix(AliveView alive,
                                                        std::size_t k);

  /// Same for the latest-arrival order. Never triggers a rebuild: the
  /// keys are immutable after admission.
  [[nodiscard]] std::span<const std::size_t> latest_prefix(std::size_t k);

  /// Audit (PARSCHED_AUDIT): every heap entry matches the alive set, the
  /// position maps are mutually consistent, and both heap properties
  /// hold. Trips a PARSCHED_CHECK on any violation. O(n).
  void audit(AliveView alive) const;

 private:
  void ensure_srpt_fresh(AliveView alive);

  // Min-heaps in Less order, entry idx -> slot tracked in the pos maps.
  std::vector<SrptKey> srpt_;
  std::vector<LatestKey> latest_;
  std::vector<std::uint32_t> srpt_pos_;
  std::vector<std::uint32_t> latest_pos_;
  std::vector<std::uint32_t> cand_;  ///< top-k traversal: heap-slot heap
  // Full-order queries sort a compact copy (the live arrays must keep
  // their heap shape — queries never mutate keys).
  std::vector<SrptKey> srpt_scratch_;
  std::vector<LatestKey> latest_scratch_;
  // Per-decision memo: the order buffers behind the returned spans and
  // the length of their valid prefixes (0 after begin_decision()).
  std::vector<std::size_t> srpt_order_;
  std::vector<std::size_t> latest_order_;
  std::size_t srpt_memo_ = 0;
  std::size_t latest_memo_ = 0;
  bool srpt_stale_ = true;  ///< rebuilt lazily at the next SRPT query
  std::uint64_t decay_epochs_ = 0;
};

}  // namespace parsched
