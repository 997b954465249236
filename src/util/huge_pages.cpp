#include "util/huge_pages.hpp"

#include <sys/mman.h>

#include <cstdint>

#include "check/alloc_guard.hpp"

namespace parsched::huge_pages {

namespace {

std::size_t whole_pages(std::size_t bytes) {
  return (bytes + kHugePage - 1) / kHugePage * kHugePage;
}

}  // namespace

void* map(std::size_t bytes) {
  // Counted (and, inside an armed AllocGuard, refused) before anything
  // is mapped, as the counting operator new does.
  note_allocation(bytes);
  const std::size_t len = whole_pages(bytes);
  // One huge page more than the buffer, so that an aligned start lies
  // inside the mapping; the slack on either side is returned at once.
  void* raw = ::mmap(nullptr, len + kHugePage, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start = (base + kHugePage - 1) & ~(kHugePage - 1);
  if (start > base) ::munmap(raw, start - base);
  const std::uintptr_t end = base + len + kHugePage;
  if (end > start + len) {
    ::munmap(reinterpret_cast<void*>(start + len), end - (start + len));
  }
  void* p = reinterpret_cast<void*>(start);
#if defined(MADV_HUGEPAGE)
  // A hint: without transparent huge pages it fails, and the mapping
  // stays an ordinary one.
  (void)::madvise(p, len, MADV_HUGEPAGE);
#endif
  return p;
}

void unmap(void* p, std::size_t bytes) noexcept {
  ::munmap(p, whole_pages(bytes));
  note_deallocation();
}

}  // namespace parsched::huge_pages
