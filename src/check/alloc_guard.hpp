// parsched — dynamic hot-path allocation verifier.
//
// PR 5's headline guarantee — the engine's steady-state decision steps
// perform no heap allocation — was protected only by convention. This
// header is the dynamic half of the machine check (the static half is
// tools/parsched_analyze.py scanning PARSCHED_HOT functions):
//
//   * a counting replacement of the global operator new/delete family
//     (compiled into check/alloc_guard.cpp when PARSCHED_ALLOC_HOOK is
//     on — the default except under ASan/TSan, whose allocator
//     interceptors it would displace), maintaining per-thread monotone
//     counters of every allocation and deallocation; and
//
//   * AllocGuard, an RAII scope: while one is armed on a thread, ANY
//     heap allocation on that thread is a hard contract failure routed
//     through the PARSCHED_CHECK policy (throw ContractViolation by
//     default), naming the innermost guarded scope. Guards nest; each
//     thread's guards are independent (ThreadPool workers never trip a
//     guard armed on another thread).
//
// The engine arms guards around the warm decision-step sections under
// PARSCHED_AUDIT=1 (see Engine::decision_step), and
// tests/test_alloc_guard.cpp drives a dense-alive n=10k instance through
// >= 10k guarded decision steps as the regression proof.
//
// Like check/contract.hpp this header is dependency-free on purpose: it
// sits in the check_core layer at the bottom of the architecture DAG
// (tools/layers.toml), so every subsystem — including simcore — may use
// it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace parsched {

/// Per-thread allocation totals since thread start. Monotone; never
/// reset. All zeros when the counting hook is compiled out.
struct AllocStats {
  std::uint64_t allocations = 0;    ///< operator new/new[] calls
  std::uint64_t deallocations = 0;  ///< operator delete/delete[] calls
  std::uint64_t bytes = 0;          ///< total bytes requested
};

/// True when the counting operator new/delete replacement is compiled in
/// (PARSCHED_ALLOC_HOOK). When false, AllocGuard still tracks scope
/// depth but can neither count nor trip — callers that require the hook
/// (tests) should skip.
[[nodiscard]] bool alloc_hook_active() noexcept;

/// This thread's allocation counters.
[[nodiscard]] AllocStats alloc_stats() noexcept;

/// Count an allocation that does not go through operator new (a buffer
/// util/huge_pages.hpp maps itself) as the counting operator new counts
/// one: inside an armed AllocGuard it trips the guard. No-op when the
/// hook is compiled out.
void note_allocation(std::size_t bytes);

/// The matching deallocation count.
void note_deallocation() noexcept;

/// Total number of AllocGuard scopes ever armed on this thread. Lets a
/// harness assert that guarded code actually ran guarded (a guard that
/// never armed proves nothing).
[[nodiscard]] std::uint64_t alloc_guard_scopes_entered() noexcept;

/// RAII allocation fence. While alive, any heap allocation performed by
/// this thread fails a contract (PARSCHED_CHECK semantics: throw /
/// log / abort per the active ContractPolicy) with a message naming
/// `scope`. `scope` must outlive the guard (string literals only).
///
/// Guards nest: the innermost scope is named in the failure message and
/// an inner guard's destruction re-exposes the outer one. Counting is
/// per-thread, so a guard constrains only the constructing thread.
class AllocGuard {
 public:
  explicit AllocGuard(const char* scope = "AllocGuard") noexcept;
  ~AllocGuard();
  AllocGuard(const AllocGuard&) = delete;
  AllocGuard& operator=(const AllocGuard&) = delete;

  /// Allocations observed on this thread since the guard was armed
  /// (only ever nonzero under ContractPolicy::kLog, where a trip
  /// continues instead of throwing; or when the hook is compiled out,
  /// where it stays 0).
  [[nodiscard]] std::uint64_t observed() const noexcept;

  /// Number of guards currently armed on this thread.
  [[nodiscard]] static int depth() noexcept;

 private:
  const char* scope_;
  const char* prev_scope_;      ///< next-outer guard's name (restored on exit)
  std::uint64_t start_allocs_;  ///< thread allocation count at arming
};

}  // namespace parsched
