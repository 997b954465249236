// parsched — an allocator that maps large buffers on huge pages.
//
// The first touch of a fresh buffer costs one minor page fault per 4 KiB
// page: ~1,000 for the 4 MB position map an SRPT order over 10^6 jobs
// writes at its first query, paid again by every engine. HugePageAllocator
// gives each buffer of kHugePage bytes or more a mapping of its own,
// aligned to kHugePage and hinted with MADV_HUGEPAGE, so that where the
// kernel runs transparent huge pages in `madvise` mode a 2 MB page takes
// one fault. Where it does not, the hint does nothing and the mapping is
// an ordinary one. The hint goes on such a mapping only, never on a
// malloc'd block: that would hand huge pages to the block's neighbours in
// the heap too, and raise the resident set. Smaller buffers come from
// ::operator new.
//
// Either way the buffer counts as an allocation for check_core's
// AllocGuard — a small one through the counting operator new, a mapped
// one through note_allocation() — so growing it inside an armed guard
// trips the guard.
#pragma once

#include <cstddef>
#include <memory>
#include <new>

namespace parsched {

namespace huge_pages {

/// The huge-page size the mappings are aligned to, and the smallest
/// buffer that gets a mapping of its own.
inline constexpr std::size_t kHugePage = std::size_t{2} << 20;

/// `bytes` of zeroed memory in a mapping of their own, rounded up to
/// whole huge pages, kHugePage-aligned and hinted for huge pages; counted
/// by note_allocation() first. Throws std::bad_alloc when the mapping
/// fails.
[[nodiscard]] void* map(std::size_t bytes);

/// Release a buffer map() returned for the same `bytes`.
void unmap(void* p, std::size_t bytes) noexcept;

}  // namespace huge_pages

/// A std allocator: huge_pages::map for a buffer of kHugePage bytes or
/// more, std::allocator below that. Stateless; all instances are equal.
template <class T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <class U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n >= huge_pages::kHugePage / sizeof(T)) {
      if (n > static_cast<std::size_t>(-1) / sizeof(T)) {
        throw std::bad_array_new_length();
      }
      return static_cast<T*>(huge_pages::map(n * sizeof(T)));
    }
    return std::allocator<T>{}.allocate(n);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n >= huge_pages::kHugePage / sizeof(T)) {
      huge_pages::unmap(p, n * sizeof(T));
    } else {
      std::allocator<T>{}.deallocate(p, n);
    }
  }

  friend bool operator==(const HugePageAllocator&,
                         const HugePageAllocator&) noexcept {
    return true;
  }
};

}  // namespace parsched
