#include "simcore/incremental.hpp"

#include <algorithm>

#include "check/contract.hpp"

namespace parsched {

namespace {

// Intrusive sift helpers: every entry move mirrors into the position map
// (alive index -> heap slot), which is what lets remove_swap() find an
// arbitrary job's slot in O(1). Min-heaps in Less order: the root is the
// Less-least entry, parents precede children.

template <class E, class Less>
std::size_t sift_up(std::vector<E>& heap, std::vector<std::uint32_t>& pos,
                    std::size_t s, Less less) {
  const E e = heap[s];
  while (s > 0) {
    const std::size_t p = (s - 1) / 2;
    if (!less(e, heap[p])) break;
    heap[s] = heap[p];
    pos[heap[s].idx] = static_cast<std::uint32_t>(s);
    s = p;
  }
  heap[s] = e;
  pos[e.idx] = static_cast<std::uint32_t>(s);
  return s;
}

template <class E, class Less>
void sift_down(std::vector<E>& heap, std::vector<std::uint32_t>& pos,
               std::size_t s, Less less) {
  const std::size_t n = heap.size();
  const E e = heap[s];
  for (;;) {
    std::size_t c = 2 * s + 1;
    if (c >= n) break;
    if (c + 1 < n && less(heap[c + 1], heap[c])) ++c;
    if (!less(heap[c], e)) break;
    heap[s] = heap[c];
    pos[heap[s].idx] = static_cast<std::uint32_t>(s);
    s = c;
  }
  heap[s] = e;
  pos[e.idx] = static_cast<std::uint32_t>(s);
}

/// Restore the heap property around a slot whose key changed either way.
template <class E, class Less>
void reheap(std::vector<E>& heap, std::vector<std::uint32_t>& pos,
            std::size_t s, Less less) {
  sift_down(heap, pos, sift_up(heap, pos, s, less), less);
}

/// Heap-delete by slot: move the back entry into the hole and re-sift.
template <class E, class Less>
void erase_slot(std::vector<E>& heap, std::vector<std::uint32_t>& pos,
                std::size_t s, Less less) {
  const E back = heap.back();
  heap.pop_back();
  if (s < heap.size()) {
    heap[s] = back;
    pos[back.idx] = static_cast<std::uint32_t>(s);
    reheap(heap, pos, s, less);
  }
}

/// Fill the initial position map and heapify in O(n). Entries must
/// already sit at slot i with pos[entry.idx] == i.
template <class E, class Less>
void heapify(std::vector<E>& heap, std::vector<std::uint32_t>& pos,
             Less less) {
  for (std::size_t i = heap.size() / 2; i-- > 0;) {
    sift_down(heap, pos, i, less);
  }
}

/// k-prefix of the total order without mutating the heap: a candidate
/// heap over *slots*, seeded with the root; popping the best candidate
/// admits its two children. At most want+1 candidates are live, so the
/// whole query is O(k log k) and touches only the top of the big heap.
/// std::push_heap/pop_heap build a max-heap in the given order, so the
/// slot order inverts Less: the "max" candidate is the Less-least entry.
template <class E, class Less>
void fill_topk(const std::vector<E>& heap, std::vector<std::uint32_t>& cand,
               std::size_t want, std::size_t* out, Less less) {
  const std::size_t n = heap.size();
  cand.clear();
  if (want == 0 || n == 0) return;
  cand.push_back(0);
  const auto slot_order = [&heap, less](std::uint32_t a, std::uint32_t b) {
    return less(heap[b], heap[a]);
  };
  for (std::size_t j = 0; j < want; ++j) {
    std::pop_heap(cand.begin(), cand.end(), slot_order);
    const std::uint32_t s = cand.back();
    cand.pop_back();
    out[j] = heap[s].idx;
    const std::size_t l = 2 * static_cast<std::size_t>(s) + 1;
    if (l < n) {
      cand.push_back(static_cast<std::uint32_t>(l));
      std::push_heap(cand.begin(), cand.end(), slot_order);
    }
    if (l + 1 < n) {
      cand.push_back(static_cast<std::uint32_t>(l + 1));
      std::push_heap(cand.begin(), cand.end(), slot_order);
    }
  }
}

}  // namespace

void IncrementalOrders::clear() {
  srpt_.clear();
  latest_.clear();
  srpt_pos_.clear();
  latest_pos_.clear();
  cand_.clear();
  begin_decision();
  srpt_stale_ = true;
  decay_epochs_ = 0;
}

void IncrementalOrders::reserve(std::size_t n) {
  reserve_geometric(srpt_, n);
  reserve_geometric(latest_, n);
  reserve_geometric(srpt_pos_, n);
  reserve_geometric(latest_pos_, n);
  // The top-k traversal holds at most want+1 live candidates.
  reserve_geometric(cand_, n + 1);
  reserve_geometric(srpt_scratch_, n);
  reserve_geometric(latest_scratch_, n);
  reserve_geometric(srpt_order_, n);
  reserve_geometric(latest_order_, n);
}

void IncrementalOrders::rebuild(AliveView alive) {
  const std::size_t n = alive.size();
  reserve(n);
  // Each entry is written once, into reserved capacity: a resize would
  // zero-fill what the gather then overwrites.
  latest_.clear();
  latest_pos_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    latest_.push_back(LatestKey{alive.release(i), alive.id(i),
                                static_cast<std::uint32_t>(i)});
    latest_pos_.push_back(static_cast<std::uint32_t>(i));
  }
  heapify(latest_, latest_pos_, LatestKeyLess{});
  srpt_.clear();
  srpt_pos_.clear();
  srpt_stale_ = true;  // regathered from the alive set at the next query
  begin_decision();
}

PARSCHED_HOT void IncrementalOrders::insert(AliveView alive,
                                            std::size_t idx) {
  PARSCHED_CHECK(idx == latest_.size(),
                 "IncrementalOrders::insert out of step with the alive set");
  latest_pos_.push_back(static_cast<std::uint32_t>(latest_.size()));
  latest_.push_back(
      LatestKey{alive.release(idx), alive.id(idx),
                static_cast<std::uint32_t>(idx)});
  sift_up(latest_, latest_pos_, latest_.size() - 1, LatestKeyLess{});
  if (!srpt_stale_) {
    srpt_pos_.push_back(static_cast<std::uint32_t>(srpt_.size()));
    srpt_.push_back(SrptKey{alive.remaining(idx), alive.release(idx),
                            alive.id(idx), static_cast<std::uint32_t>(idx)});
    sift_up(srpt_, srpt_pos_, srpt_.size() - 1, SrptKeyLess{});
  }
}

PARSCHED_HOT void IncrementalOrders::update_remaining(std::size_t idx,
                                                      double remaining) {
  if (srpt_stale_) return;  // the pending rebuild re-reads every key
  const std::size_t s = srpt_pos_[idx];
  srpt_[s].remaining = remaining;
  reheap(srpt_, srpt_pos_, s, SrptKeyLess{});
}

PARSCHED_HOT void IncrementalOrders::remove_swap(std::size_t idx,
                                                 std::size_t last) {
  erase_slot(latest_, latest_pos_, latest_pos_[idx], LatestKeyLess{});
  if (idx != last) {
    const std::uint32_t s = latest_pos_[last];
    latest_[s].idx = static_cast<std::uint32_t>(idx);
    latest_pos_[idx] = s;
  }
  latest_pos_.pop_back();
  if (!srpt_stale_) {
    erase_slot(srpt_, srpt_pos_, srpt_pos_[idx], SrptKeyLess{});
    if (idx != last) {
      const std::uint32_t s = srpt_pos_[last];
      srpt_[s].idx = static_cast<std::uint32_t>(idx);
      srpt_pos_[idx] = s;
    }
    srpt_pos_.pop_back();
  }
}

PARSCHED_HOT void IncrementalOrders::ensure_srpt_fresh(AliveView alive) {
  if (!srpt_stale_) return;
  const std::size_t n = alive.size();
  PARSCHED_CHECK(n == latest_.size(),
                 "IncrementalOrders out of step with the alive set");
  // Gathered into reserved capacity, each entry written once (as in
  // rebuild).
  srpt_.clear();
  srpt_pos_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    srpt_.push_back(SrptKey{alive.remaining(i), alive.release(i),
                            alive.id(i), static_cast<std::uint32_t>(i)});
    srpt_pos_.push_back(static_cast<std::uint32_t>(i));
  }
  heapify(srpt_, srpt_pos_, SrptKeyLess{});
  srpt_stale_ = false;
}

PARSCHED_HOT std::size_t IncrementalOrders::min_srpt(AliveView alive) {
  ensure_srpt_fresh(alive);
  PARSCHED_CHECK(!srpt_.empty(), "min_srpt over an empty alive set");
  return srpt_[0].idx;
}

PARSCHED_HOT std::span<const std::size_t> IncrementalOrders::srpt_prefix(
    AliveView alive, std::size_t k) {
  ensure_srpt_fresh(alive);
  const std::size_t n = srpt_.size();
  const std::size_t want = std::min(k, n);
  if (want > srpt_memo_) {
    srpt_order_.resize(want);  // only the k-prefix is written
    if (want < n) {
      fill_topk(srpt_, cand_, want, srpt_order_.data(), SrptKeyLess{});
    } else {
      // Full order: sort a compact copy of the keys (the heap itself
      // must keep its shape).
      srpt_scratch_.assign(srpt_.begin(), srpt_.end());
      std::sort(srpt_scratch_.begin(), srpt_scratch_.end(), SrptKeyLess{});
      for (std::size_t i = 0; i < n; ++i) {
        srpt_order_[i] = srpt_scratch_[i].idx;
      }
    }
    srpt_memo_ = want;
  }
  return {srpt_order_.data(), want};
}

PARSCHED_HOT std::span<const std::size_t> IncrementalOrders::latest_prefix(
    std::size_t k) {
  const std::size_t n = latest_.size();
  const std::size_t want = std::min(k, n);
  if (want > latest_memo_) {
    latest_order_.resize(want);
    if (want < n) {
      fill_topk(latest_, cand_, want, latest_order_.data(), LatestKeyLess{});
    } else {
      latest_scratch_.assign(latest_.begin(), latest_.end());
      std::sort(latest_scratch_.begin(), latest_scratch_.end(),
                LatestKeyLess{});
      for (std::size_t i = 0; i < n; ++i) {
        latest_order_[i] = latest_scratch_[i].idx;
      }
    }
    latest_memo_ = want;
  }
  return {latest_order_.data(), want};
}

void IncrementalOrders::audit(AliveView alive) const {
  const std::size_t n = alive.size();
  PARSCHED_CHECK(latest_.size() == n && latest_pos_.size() == n,
                 "incremental audit: latest heap size mismatch");
  const LatestKeyLess lless{};
  for (std::size_t s = 0; s < n; ++s) {
    const LatestKey& e = latest_[s];
    PARSCHED_CHECK(e.idx < n, "incremental audit: latest idx out of range");
    PARSCHED_CHECK(
        e.release == alive.release(e.idx) && e.id == alive.id(e.idx),
        "incremental audit: latest key diverged from alive job");
    PARSCHED_CHECK(latest_pos_[e.idx] == s,
                   "incremental audit: latest position map inconsistent");
    if (s > 0) {
      PARSCHED_CHECK(!lless(e, latest_[(s - 1) / 2]),
                     "incremental audit: latest heap property violated");
    }
  }
  if (srpt_stale_) return;  // keys pending a lazy regather carry no claim
  PARSCHED_CHECK(srpt_.size() == n && srpt_pos_.size() == n,
                 "incremental audit: srpt heap size mismatch");
  const SrptKeyLess sless{};
  for (std::size_t s = 0; s < n; ++s) {
    const SrptKey& e = srpt_[s];
    PARSCHED_CHECK(e.idx < n, "incremental audit: srpt idx out of range");
    PARSCHED_CHECK(e.remaining == alive.remaining(e.idx) &&
                       e.release == alive.release(e.idx) &&
                       e.id == alive.id(e.idx),
                   "incremental audit: srpt key diverged from alive job");
    PARSCHED_CHECK(srpt_pos_[e.idx] == s,
                   "incremental audit: srpt position map inconsistent");
    if (s > 0) {
      PARSCHED_CHECK(!sless(e, srpt_[(s - 1) / 2]),
                     "incremental audit: srpt heap property violated");
    }
  }
}

}  // namespace parsched
