#include "check/alloc_guard.hpp"

#include <cstdlib>
#include <new>
#include <string>
#ifdef PARSCHED_ALLOC_TRACE
#include <execinfo.h>
#endif

#include "check/contract.hpp"

namespace parsched {
namespace {

/// All per-thread state in one trivially-destructible aggregate so the
/// hook stays safe during thread-local construction/teardown (operator
/// new can run arbitrarily early and late in a thread's life).
struct ThreadAllocState {
  std::uint64_t allocations = 0;
  std::uint64_t deallocations = 0;
  std::uint64_t bytes = 0;
  std::uint64_t scopes_entered = 0;
  const char* top_scope = nullptr;  ///< innermost armed guard's name
  int depth = 0;
  bool reporting = false;  ///< suppress recursion while building the message
};

ThreadAllocState& tstate() noexcept {
  static thread_local ThreadAllocState s;
  return s;
}

#if defined(PARSCHED_ALLOC_HOOK)

/// Restore `reporting` even when the contract policy throws.
struct ReportingScope {
  ThreadAllocState& s;
  explicit ReportingScope(ThreadAllocState& st) : s(st) { s.reporting = true; }
  ~ReportingScope() { s.reporting = false; }
  ReportingScope(const ReportingScope&) = delete;
  ReportingScope& operator=(const ReportingScope&) = delete;
};

void count_allocation(std::size_t bytes) {
  ThreadAllocState& s = tstate();
  ++s.allocations;
  s.bytes += bytes;
  if (s.depth > 0 && !s.reporting) {
    // Building the diagnostic itself allocates; `reporting` keeps those
    // allocations counted but un-tripped, and is restored even when the
    // policy throws — a caught ContractViolation leaves the guard armed
    // and functional for the next offense.
    ReportingScope rs(s);
#ifdef PARSCHED_ALLOC_TRACE
    // Opt-in diagnosis aid (compile with -DPARSCHED_ALLOC_TRACE): dump
    // the offending allocation's stack to stderr, since the exception
    // only names the guarded scope, not the call path that allocated.
    void* frames[32];
    const int nf = backtrace(frames, 32);
    backtrace_symbols_fd(frames, nf, 2);
#endif
    std::string detail = "heap allocation of ";
    detail += std::to_string(bytes);
    detail += " byte(s) inside AllocGuard(\"";
    detail += s.top_scope != nullptr ? s.top_scope : "<unnamed>";
    detail += "\")";
    check_detail::fail("PARSCHED_ALLOC_GUARD",
                       "allocation-free guarded scope", __FILE__, __LINE__,
                       detail, false);
  }
}

void count_deallocation() noexcept {
  ++tstate().deallocations;
}

[[nodiscard]] void* checked_malloc(std::size_t size) {
  // malloc(0) may return null without being an error; keep new's
  // contract of returning a unique pointer.
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[nodiscard]] void* checked_aligned(std::size_t size, std::size_t align) {
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded != 0 ? rounded : align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

#endif  // PARSCHED_ALLOC_HOOK

}  // namespace

bool alloc_hook_active() noexcept {
#if defined(PARSCHED_ALLOC_HOOK)
  return true;
#else
  return false;
#endif
}

AllocStats alloc_stats() noexcept {
  const ThreadAllocState& s = tstate();
  return AllocStats{s.allocations, s.deallocations, s.bytes};
}

void note_allocation(std::size_t bytes) {
#if defined(PARSCHED_ALLOC_HOOK)
  count_allocation(bytes);
#else
  (void)bytes;
#endif
}

void note_deallocation() noexcept {
#if defined(PARSCHED_ALLOC_HOOK)
  count_deallocation();
#endif
}

std::uint64_t alloc_guard_scopes_entered() noexcept {
  return tstate().scopes_entered;
}

AllocGuard::AllocGuard(const char* scope) noexcept
    : scope_(scope), prev_scope_(nullptr), start_allocs_(0) {
  ThreadAllocState& s = tstate();
  prev_scope_ = s.top_scope;
  s.top_scope = scope_;
  ++s.depth;
  ++s.scopes_entered;
  start_allocs_ = s.allocations;
}

AllocGuard::~AllocGuard() {
  ThreadAllocState& s = tstate();
  s.top_scope = prev_scope_;
  --s.depth;
}

std::uint64_t AllocGuard::observed() const noexcept {
  return tstate().allocations - start_allocs_;
}

int AllocGuard::depth() noexcept { return tstate().depth; }

}  // namespace parsched

#if defined(PARSCHED_ALLOC_HOOK)

// ---- Global operator new/delete replacement -------------------------------
//
// Every standard signature is replaced so no allocation path escapes the
// count ([new.delete] requires replacing the aligned and nothrow forms
// alongside the plain ones once any is replaced). All forms funnel into
// count_allocation/count_deallocation above. The hook is compiled out
// under ASan/TSan (see the top-level CMakeLists), whose interceptors
// own these symbols.

void* operator new(std::size_t size) {
  parsched::count_allocation(size);
  return parsched::checked_malloc(size);
}

void* operator new[](std::size_t size) {
  parsched::count_allocation(size);
  return parsched::checked_malloc(size);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    parsched::count_allocation(size);
    return std::malloc(size != 0 ? size : 1);
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    parsched::count_allocation(size);
    return std::malloc(size != 0 ? size : 1);
  } catch (...) {
    return nullptr;
  }
}

void* operator new(std::size_t size, std::align_val_t align) {
  parsched::count_allocation(size);
  return parsched::checked_aligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align) {
  parsched::count_allocation(size);
  return parsched::checked_aligned(size, static_cast<std::size_t>(align));
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    parsched::count_allocation(size);
    return parsched::checked_aligned(size, static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    parsched::count_allocation(size);
    return parsched::checked_aligned(size, static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept {
  parsched::count_deallocation();
  std::free(p);
}

void operator delete[](void* p) noexcept {
  parsched::count_deallocation();
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept {
  parsched::count_deallocation();
  std::free(p);
}

void operator delete[](void* p, std::size_t) noexcept {
  parsched::count_deallocation();
  std::free(p);
}

void operator delete(void* p, const std::nothrow_t&) noexcept {
  parsched::count_deallocation();
  std::free(p);
}

void operator delete[](void* p, const std::nothrow_t&) noexcept {
  parsched::count_deallocation();
  std::free(p);
}

void operator delete(void* p, std::align_val_t) noexcept {
  parsched::count_deallocation();
  std::free(p);
}

void operator delete[](void* p, std::align_val_t) noexcept {
  parsched::count_deallocation();
  std::free(p);
}

void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  parsched::count_deallocation();
  std::free(p);
}

void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  parsched::count_deallocation();
  std::free(p);
}

void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  parsched::count_deallocation();
  std::free(p);
}

void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  parsched::count_deallocation();
  std::free(p);
}

#endif  // PARSCHED_ALLOC_HOOK
