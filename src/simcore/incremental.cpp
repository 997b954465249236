#include "simcore/incremental.hpp"

#include <algorithm>

#include "check/contract.hpp"

namespace parsched {

namespace {

/// Keys a gather samples to pick T: every (n/kSample)-th alive job's.
constexpr std::size_t kSample = 4096;

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

/// Heapify in O(n). Entries must already sit at slot i with
/// pos[entry.idx] == i.
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

template <class Key, class Less>
void OrderHeap<Key, Less>::reserve(std::size_t n) {
  reserve_geometric(heap_, n);
  reserve_geometric(pos_, n);
  // The top-k traversal holds at most want+1 live candidates.
  reserve_geometric(cand_, n + 1);
  reserve_geometric(scratch_, n);
  reserve_geometric(order_, n);
}

template <class Key, class Less>
PARSCHED_HOT void OrderHeap<Key, Less>::gather(AliveView alive,
                                               std::size_t want) {
  const std::size_t n = alive.size();
  // A no-op in the engine, which reserves at admission; a hand-built
  // context gets its buffers here, so the spans it hands out stay valid
  // as wider queries fill the order buffer.
  reserve(n);
  // A bounded gather has n > 4·target >= 4·kHeadJobs: every sampled
  // index and the rank r below are in range.
  static_assert(kSample <= 4 * kHeadJobs);
  const Less less{};
  // Aim at a head of `target` jobs. T is the sample key of rank r: the r
  // sampled keys below it are alive jobs, and about r·n/kSample keys lie
  // below it in all. A head short of `want` (a sample that misjudged the
  // keys' spread) is gathered again for a four times larger target; once
  // the target reaches n/4, T = +∞ and the head is every job.
  for (std::size_t target = std::max(kHeadJobs, 4 * want);; target *= 4) {
    bounded_ = 4 * target < n;
    // Each entry is written once, into reserved capacity: a resize would
    // zero-fill what the gather then overwrites.
    heap_.clear();
    pos_.clear();
    if (!bounded_) {
      // Every job is in the head, at its own index. (The scan below
      // costs a set of tens of jobs, regathered after each dense step,
      // more than it saves.)
      for (std::size_t i = 0; i < n; ++i) {
        heap_.push_back(Key::of(alive, i));
        pos_.push_back(static_cast<std::uint32_t>(i));
      }
      break;
    }
    scratch_.clear();
    for (std::size_t j = 0; j < kSample; ++j) {
      scratch_.push_back(Key::of(alive, j * n / kSample));
    }
    const std::size_t r = (target * kSample + n - 1) / n;
    std::nth_element(scratch_.begin(),
                     scratch_.begin() + static_cast<std::ptrdiff_t>(r),
                     scratch_.end(), less);
    bound_ = scratch_[r];
    // Every job starts in the tail; the scan moves the head's into the
    // heap. A block of 64 jobs whose first key field alone puts each
    // after T is passed over on that one array.
    pos_.assign(n, kTail);
    for (std::size_t b = 0; b < n; b += 64) {
      const std::size_t end = std::min(b + 64, n);
      bool near = false;
      for (std::size_t i = b; i < end && !near; ++i) {
        near = !Less::after_by_first(alive, i, bound_);
      }
      if (!near) continue;
      for (std::size_t i = b; i < end; ++i) {
        const Key k = Key::of(alive, i);
        if (less(k, bound_)) {
          pos_[i] = static_cast<std::uint32_t>(heap_.size());
          heap_.push_back(k);
        }
      }
    }
    if (heap_.size() >= want) break;
  }
  heapify(heap_, pos_, less);
  stale_ = false;
}

template <class Key, class Less>
PARSCHED_HOT void OrderHeap<Key, Less>::insert(AliveView alive,
                                               std::size_t idx) {
  if (stale_) return;  // the pending gather reads every key
  PARSCHED_CHECK(idx == pos_.size(),
                 "OrderHeap::insert out of step with the alive set");
  const Key k = Key::of(alive, idx);
  if (!below_bound(k)) {
    pos_.push_back(kTail);
    return;
  }
  pos_.push_back(static_cast<std::uint32_t>(heap_.size()));
  heap_.push_back(k);
  sift_up(heap_, pos_, heap_.size() - 1, Less{});
}

template <class Key, class Less>
PARSCHED_HOT void OrderHeap<Key, Less>::refresh(AliveView alive,
                                                std::size_t idx) {
  if (stale_) return;
  const Key k = Key::of(alive, idx);
  const std::uint32_t s = pos_[idx];
  if (s == kTail) {
    if (!below_bound(k)) return;
    pos_[idx] = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(k);
    sift_up(heap_, pos_, heap_.size() - 1, Less{});
  } else if (below_bound(k)) {
    heap_[s] = k;
    reheap(heap_, pos_, s, Less{});
  } else {
    erase_slot(heap_, pos_, s, Less{});
    pos_[idx] = kTail;
  }
}

template <class Key, class Less>
PARSCHED_HOT void OrderHeap<Key, Less>::remove_swap(std::size_t idx,
                                                    std::size_t last) {
  if (stale_) return;
  if (pos_[idx] != kTail) erase_slot(heap_, pos_, pos_[idx], Less{});
  if (idx != last) {
    const std::uint32_t s = pos_[last];
    if (s != kTail) heap_[s].idx = static_cast<std::uint32_t>(idx);
    pos_[idx] = s;
  }
  pos_.pop_back();
}

template <class Key, class Less>
PARSCHED_HOT std::span<const std::size_t> OrderHeap<Key, Less>::prefix(
    AliveView alive, std::size_t k) {
  const std::size_t n = alive.size();
  const std::size_t want = std::min(k, n);
  if (stale_ || heap_.size() < want) gather(alive, want);
  PARSCHED_CHECK(pos_.size() == n,
                 "OrderHeap out of step with the alive set");
  if (want > memo_) {
    order_.resize(want);  // only the k-prefix is written
    if (want < heap_.size()) {
      fill_topk(heap_, cand_, want, order_.data(), Less{});
    } else {
      // The whole head: sort a compact copy of it (the heap itself must
      // keep its shape).
      scratch_.assign(heap_.begin(), heap_.end());
      std::sort(scratch_.begin(), scratch_.end(), Less{});
      for (std::size_t i = 0; i < want; ++i) order_[i] = scratch_[i].idx;
    }
    memo_ = want;
  }
  return {order_.data(), want};
}

template <class Key, class Less>
void OrderHeap<Key, Less>::audit(AliveView alive) const {
  if (stale_) return;  // keys pending a gather carry no claim
  const std::size_t n = alive.size();
  const std::size_t head = heap_.size();
  PARSCHED_CHECK(pos_.size() == n && head <= n,
                 "incremental audit: heap out of step with the alive set");
  const Less less{};
  for (std::size_t s = 0; s < head; ++s) {
    const Key& e = heap_[s];
    PARSCHED_CHECK(e.idx < n, "incremental audit: heap idx out of range");
    PARSCHED_CHECK(e == Key::of(alive, e.idx),
                   "incremental audit: heap key diverged from alive job");
    PARSCHED_CHECK(pos_[e.idx] == s,
                   "incremental audit: position map inconsistent");
    if (s > 0) {
      PARSCHED_CHECK(!less(e, heap_[(s - 1) / 2]),
                     "incremental audit: heap property violated");
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    PARSCHED_CHECK((pos_[i] != kTail) == below_bound(Key::of(alive, i)),
                   "incremental audit: head is not the keys below T");
    PARSCHED_CHECK(pos_[i] == kTail || pos_[i] < head,
                   "incremental audit: position map out of the head");
  }
}

template class OrderHeap<SrptKey, SrptKeyLess>;
template class OrderHeap<LatestKey, LatestKeyLess>;

}  // namespace parsched
