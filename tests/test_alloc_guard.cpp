// Tests for check/alloc_guard.hpp — the dynamic hot-path allocation
// verifier — and the engine's PARSCHED_AUDIT=1 fences around its decision
// steps.
//
// The final tests are the regression proof: a dense-alive n=10'000
// instance driven to completion with the audit fences armed performs
// zero heap allocations across >= 10'000 warm decision steps, for an
// SRPT-order consumer (ISRPT) and a latest-arrival consumer (LAPS). The
// runs also execute the engine-side heap audit (IncrementalOrders::audit)
// at every decision, so heap-vs-alive consistency is checked 10'000
// times per run.
//
// Every allocation-counting test skips itself when the counting operator
// new/delete replacement is compiled out (PARSCHED_ALLOC_HOOK=OFF, e.g.
// under ASan/TSan whose interceptors own the allocator symbols).

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "check/alloc_guard.hpp"
#include "check/contract.hpp"
#include "exec/thread_pool.hpp"
#include "sched/registry.hpp"
#include "simcore/engine.hpp"
#include "simcore/incremental.hpp"
#include "simcore/instance.hpp"
#include "util/huge_pages.hpp"

namespace parsched {
namespace {

#define SKIP_WITHOUT_HOOK()                                            \
  do {                                                                 \
    if (!alloc_hook_active()) {                                        \
      GTEST_SKIP() << "PARSCHED_ALLOC_HOOK compiled out (sanitizer "   \
                      "build); nothing to count";                      \
    }                                                                  \
  } while (false)

TEST(AllocGuard, CountsAllocationsWhenUnguarded) {
  SKIP_WITHOUT_HOOK();
  const AllocStats before = alloc_stats();
  {
    auto p = std::make_unique<std::uint64_t>(42);
    ASSERT_EQ(*p, 42u);
  }
  const AllocStats after = alloc_stats();
  EXPECT_GE(after.allocations, before.allocations + 1);
  EXPECT_GE(after.deallocations, before.deallocations + 1);
  EXPECT_GE(after.bytes, before.bytes + sizeof(std::uint64_t));
}

// NOTE on style in the trip tests below: while a guard is armed, even
// the *test harness* must not allocate — a gtest failure message or a
// std::string built from ex.what() would itself trip the guard. So the
// armed sections record plain bools (std::strstr, no allocation) and
// the assertions run after the guard scope closes. Trip attempts call
// ::operator new directly: a `new int` whose result is unused is an
// elidable new-expression the optimizer may delete, but direct operator
// new calls may not be elided.
TEST(AllocGuard, TripsOnAllocationInGuardedScope) {
  SKIP_WITHOUT_HOOK();
  bool tripped = false;
  bool names_scope = false;
  bool names_kind = false;
  bool still_armed_after_catch = false;
  bool trips_again = false;
  {
    AllocGuard guard("trip-test scope");
    try {
      std::ignore = ::operator new(16);  // lint: alloc-ok (deliberate trip)
    } catch (const ContractViolation& ex) {
      tripped = true;
      names_scope = std::strstr(ex.what(), "trip-test scope") != nullptr;
      names_kind = std::strstr(ex.what(), "PARSCHED_ALLOC_GUARD") != nullptr;
    }
    // A trip caught inside the guard's scope leaves it armed and
    // functional for the next offense.
    still_armed_after_catch = AllocGuard::depth() == 1;
    try {
      std::ignore = ::operator new(8);  // lint: alloc-ok (deliberate trip)
    } catch (const ContractViolation&) {
      trips_again = true;
    }
  }
  EXPECT_TRUE(tripped);
  EXPECT_TRUE(names_scope);
  EXPECT_TRUE(names_kind);
  EXPECT_TRUE(still_armed_after_catch);
  EXPECT_TRUE(trips_again);
  EXPECT_EQ(AllocGuard::depth(), 0);
}

// HugePageAllocator maps a buffer of 2 MB or more itself, past operator
// new, and hands smaller ones to operator new. Both still count through
// the hook: growing either inside an armed guard trips it (a mapped one
// before anything is mapped), and outside a guard a mapping counts as
// one allocation of its bytes and its release as one deallocation.
TEST(AllocGuard, TripsOnAHugePageBufferGrownInGuardedScope) {
  SKIP_WITHOUT_HOOK();
  using Buffer = std::vector<std::uint32_t, HugePageAllocator<std::uint32_t>>;
  constexpr std::size_t kWords = huge_pages::kHugePage;  // 8 MB of words
  Buffer big;
  Buffer small;
  bool big_tripped = false;
  bool names_scope = false;
  bool small_tripped = false;
  std::size_t capacity_after_trip = 1;
  {
    AllocGuard guard("huge-page scope");
    try {
      big.reserve(kWords);
    } catch (const ContractViolation& ex) {
      big_tripped = true;
      names_scope = std::strstr(ex.what(), "huge-page scope") != nullptr;
    }
    capacity_after_trip = big.capacity();
    try {
      small.reserve(16);
    } catch (const ContractViolation&) {
      small_tripped = true;
    }
  }
  EXPECT_TRUE(big_tripped);
  EXPECT_TRUE(names_scope);
  EXPECT_EQ(capacity_after_trip, 0u);
  EXPECT_TRUE(small_tripped);

  const AllocStats before = alloc_stats();
  big.reserve(kWords);
  const AllocStats mapped = alloc_stats();
  EXPECT_EQ(mapped.allocations, before.allocations + 1);
  EXPECT_EQ(mapped.bytes, before.bytes + kWords * sizeof(std::uint32_t));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) %
                huge_pages::kHugePage,
            0u);
  big.assign(kWords, 7u);  // within capacity: no allocation
  EXPECT_EQ(big[kWords - 1], 7u);
  EXPECT_EQ(alloc_stats().allocations, mapped.allocations);
  Buffer().swap(big);
  EXPECT_EQ(alloc_stats().deallocations, mapped.deallocations + 1);
}

TEST(AllocGuard, SilentOnAllocationFreePath) {
  SKIP_WITHOUT_HOOK();
  std::vector<double> scratch(1024, 1.0);  // preallocated outside the guard
  {
    AllocGuard guard("allocation-free scope");
    double acc = 0.0;
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      scratch[i] = scratch[i] * 0.5 + 1.0;
      acc += scratch[i];
    }
    ASSERT_GT(acc, 0.0);
    EXPECT_EQ(guard.observed(), 0u);
  }
  EXPECT_EQ(AllocGuard::depth(), 0);
}

TEST(AllocGuard, FirstSharesReadAfterResetIsAllocationFree) {
  // reset() writes no share but reserves the n shares' capacity, so the
  // first shares() after it — a write — allocates nothing, as in a warm
  // decision step.
  SKIP_WITHOUT_HOOK();
  Allocation a;
  a.reset(10'000);
  a.grant(17, 1.0);
  (void)a.shares();
  {
    AllocGuard guard("first shares() after reset");
    a.reset(10'000);
    a.grant(9'000, 1.0);
    a.grant(12, 0.5);
    a.sort_support();
    const std::span<const double> shares = a.shares();
    ASSERT_EQ(shares.size(), 10'000u);
    EXPECT_EQ(shares[9'000], 1.0);
    EXPECT_EQ(shares[17], 0.0);
    EXPECT_EQ(guard.observed(), 0u);
  }
}

/// ISRPT's allocation, with its SRPT query made inside an armed guard.
class GuardedGatherIsrpt final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "guarded-isrpt"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    std::array<std::size_t, 16> top{};
    std::size_t k = 0;
    {
      AllocGuard guard("first bounded SRPT gather");
      const std::span<const std::size_t> p = ctx.smallest_remaining(16);
      k = p.size();
      std::copy(p.begin(), p.end(), top.begin());
      observed += guard.observed();
    }
    out.reset(ctx.alive().size());
    for (std::size_t i = 0; i < k; ++i) out.grant(top[i], 1.0);
    ++calls;
  }
  std::uint64_t observed = 0;
  std::uint64_t calls = 0;
};

TEST(AllocGuard, FirstBoundedGatherOfAFreshEngineIsAllocationFree) {
  // Over more than 4·kHeadJobs alive jobs a 16-wide query gathers a head
  // below a sampled T: the sample, the near-block list and the candidates
  // all live in buffers admission reserved, and the position map's
  // entries were written at admission, so the fresh engine's first
  // decision gathers without allocating even where no fence is armed.
  SKIP_WITHOUT_HOOK();
  constexpr std::size_t n = 20'000;
  static_assert(n > 4 * OrderHeap<SrptKey, SrptKeyLess>::kHeadJobs);
  GuardedGatherIsrpt sched;
  Engine eng(16);
  eng.begin(sched);
  for (std::size_t i = 0; i < n; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.release = 0.0;
    j.size = 1.0 + static_cast<double>((i * 7919u) % 99991u) / 99991.0;
    eng.admit(j);
  }
  ASSERT_NO_THROW(eng.advance_to(0.5));
  EXPECT_GE(sched.calls, 1u);
  EXPECT_EQ(sched.observed, 0u);
}

TEST(AllocGuard, NestedGuardsNameTheInnermostScope) {
  SKIP_WITHOUT_HOOK();
  int depth_outer = -1;
  int depth_inner = -1;
  int depth_after_inner = -1;
  bool inner_named = false;
  bool outer_named = false;
  {
    AllocGuard outer("outer scope");
    depth_outer = AllocGuard::depth();
    {
      AllocGuard inner("inner scope");
      depth_inner = AllocGuard::depth();
      try {
        std::ignore = ::operator new(16);  // lint: alloc-ok (deliberate)
      } catch (const ContractViolation& ex) {
        inner_named = std::strstr(ex.what(), "inner scope") != nullptr;
      }
    }
    // The inner guard's exit re-exposes the outer one.
    depth_after_inner = AllocGuard::depth();
    try {
      std::ignore = ::operator new(16);  // lint: alloc-ok (deliberate)
    } catch (const ContractViolation& ex) {
      outer_named = std::strstr(ex.what(), "outer scope") != nullptr;
    }
  }
  EXPECT_EQ(depth_outer, 1);
  EXPECT_EQ(depth_inner, 2);
  EXPECT_EQ(depth_after_inner, 1);
  EXPECT_TRUE(inner_named);
  EXPECT_TRUE(outer_named);
  EXPECT_EQ(AllocGuard::depth(), 0);
}

TEST(AllocGuard, LogPolicyCountsInsteadOfThrowing) {
  SKIP_WITHOUT_HOOK();
  ScopedContractPolicy log_policy(ContractPolicy::kLog);
  AllocGuard guard("log-policy scope");
  auto p = std::make_unique<int>(7);  // counted, logged, not thrown
  ASSERT_EQ(*p, 7);
  EXPECT_GE(guard.observed(), 1u);
}

TEST(AllocGuard, ScopesEnteredCounterIsMonotone) {
  const std::uint64_t before = alloc_guard_scopes_entered();
  {
    AllocGuard a("one");
    AllocGuard b("two");
  }
  { AllocGuard c("three"); }
  EXPECT_EQ(alloc_guard_scopes_entered(), before + 3);
}

// A guard constrains only the thread that armed it: ThreadPool workers
// allocate freely under a main-thread guard, and a worker-armed guard
// trips on the worker without involving the main thread.
TEST(AllocGuard, GuardsAreThreadLocalUnderThreadPool) {
  SKIP_WITHOUT_HOOK();
  exec::ThreadPool pool(exec::ThreadPool::Config{2});
  std::atomic<bool> go{false};
  std::atomic<bool> worker_allocated{false};
  // Submitted before the guard arms: submit() itself allocates.
  auto free_worker = pool.submit([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < 64; ++i) {
      auto p = std::make_unique<int>(i);
      if (*p == 63) worker_allocated.store(true, std::memory_order_release);
    }
  });
  auto guarded_worker = pool.submit([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    AllocGuard worker_guard("worker-armed scope");
    try {
      std::ignore = ::operator new(16);  // lint: alloc-ok (deliberate)
      return false;                      // did not trip
    } catch (const ContractViolation&) {
      return true;
    }
  });
  {
    AllocGuard main_guard("main-thread scope");
    go.store(true, std::memory_order_release);
    // Busy-wait allocation-free while both workers run against the
    // armed main-thread guard.
    while (!worker_allocated.load(std::memory_order_acquire)) {
    }
    EXPECT_EQ(main_guard.observed(), 0u);
  }
  free_worker.get();
  EXPECT_TRUE(guarded_worker.get());
}

// ---------------------------------------------------------------------------
// Engine regression: the audited decision loop is allocation-free.

Instance dense_alive_instance(std::size_t n) {
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.release = 0.0;
    j.size = 1.0 + static_cast<double>((i * 7919u) % 99991u) / 99991.0;
    j.curve = SpeedupCurve::power_law(0.5);
    jobs.push_back(j);
  }
  return Instance(16, jobs);
}

struct AuditedRun {
  std::uint64_t decisions = 0;
  std::uint64_t scopes = 0;  ///< guarded scopes entered during the run
};

/// Drives the dense-alive instance to completion with the audit fences
/// armed; any allocation in a warm decision step throws ContractViolation
/// and fails the test.
AuditedRun run_audited(const char* policy) {
  setenv("PARSCHED_AUDIT", "1", 1);
  const std::uint64_t scopes_before = alloc_guard_scopes_entered();
  const Instance inst = dense_alive_instance(10'000);
  auto sched = make_scheduler(policy);
  const SimResult r = simulate(inst, *sched);
  unsetenv("PARSCHED_AUDIT");
  EXPECT_EQ(r.jobs(), 10'000u);
  const AuditedRun run{r.decisions,
                       alloc_guard_scopes_entered() - scopes_before};
  // All releases are at t = 0, so every decision but the first (which
  // warms the scratch at full n) runs fenced — two guarded scopes each
  // (allocate+rates, advance sweep).
  EXPECT_GE(run.scopes, 2 * (run.decisions - 1));
  EXPECT_GE(run.scopes, 10'000u);
  return run;
}

TEST(EngineAllocAudit, DenseAliveRunIsAllocationFreeWithIncrementalOrders) {
  SKIP_WITHOUT_HOOK();
  // Heap maintenance (insert / refresh / remove_swap / first-query
  // gathers) runs inside the fences: all of it must live in storage
  // pre-paid by IncrementalOrders::reserve at admission. Distinct sizes
  // make every ISRPT completion its own decision point.
  EXPECT_GE(run_audited("isrpt").decisions, 10'000u);
}

TEST(EngineAllocAudit, DenseAliveRunIsAllocationFreeWithContextCache) {
  SKIP_WITHOUT_HOOK();
  // The other half of the context's helpers: LAPS reads latest-arrival
  // prefixes through the per-decision memo every step, and its dense
  // allocation would mark a fresh SRPT heap stale at every sweep.
  (void)run_audited("laps:0.25");
}

TEST(EngineAllocAudit, DenseAliveRunIsAllocationFreeWithEqui) {
  SKIP_WITHOUT_HOOK();
  // EQUI fills m/n: a uniform decision (one rate for every job, nothing
  // written per job) while n >= 16, a dense one once fewer jobs are left.
  // Both arms and the one-rate advance sweep run inside the fences.
  EXPECT_GE(run_audited("equi").decisions, 10'000u);
}

}  // namespace
}  // namespace parsched
