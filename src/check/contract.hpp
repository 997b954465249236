// parsched — contract macros: runtime invariant checks that survive
// Release builds.
//
// The engine's correctness story (exact event times, feasible allocations,
// no discretization error) used to lean on raw `assert`s that vanish under
// NDEBUG — i.e. in the RelWithDebInfo builds every measurement runs in.
// These macros replace them:
//
//   PARSCHED_CHECK(cond)              always-on invariant; fires in every
//   PARSCHED_CHECK(cond, "message")   build type
//   PARSCHED_CHECK_NEAR(a, b, tol)    always-on tolerant float equality
//   PARSCHED_DCHECK(cond)             debug-only (hot paths); compiled out
//   PARSCHED_DCHECK(cond, "message")  under NDEBUG like assert
//
// A failed check routes through a configurable failure policy:
//
//   ContractPolicy::kThrow  (default)  throw ContractViolation
//   ContractPolicy::kLog               record + write to stderr, continue
//
// Every failure increments process-wide atomic counters (see
// contract_stats()) regardless of policy, so harnesses can assert "no
// contract fired" after a run. The header is intentionally free of
// project dependencies (it is included from util/mathx.hpp, the bottom of
// the dependency graph) and all state is lock-free atomics so the checks
// are safe under -fsanitize=thread.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

namespace parsched {

/// Thrown by a failed PARSCHED_CHECK under ContractPolicy::kThrow.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what) {}
};

/// What to do when a contract fails.
enum class ContractPolicy : int {
  kThrow = 0,  ///< throw ContractViolation (default)
  kLog = 1,    ///< count + log to stderr, then continue
};

namespace check_detail {

struct ContractStats {
  std::atomic<std::uint64_t> failed{0};        ///< all failed checks
  std::atomic<std::uint64_t> debug_failed{0};  ///< failed PARSCHED_DCHECKs
};

inline ContractStats& stats() {
  static ContractStats s;
  return s;
}

inline std::atomic<int>& policy_word() {
  static std::atomic<int> p{static_cast<int>(ContractPolicy::kThrow)};
  return p;
}

}  // namespace check_detail

/// Process-wide violation counters (monotone; never reset by the library).
inline std::uint64_t contract_failures() {
  return check_detail::stats().failed.load(std::memory_order_relaxed);
}

/// Current failure policy.
inline ContractPolicy contract_policy() {
  return static_cast<ContractPolicy>(
      check_detail::policy_word().load(std::memory_order_relaxed));
}

/// Set the failure policy; returns the previous one. Tests use the RAII
/// ScopedContractPolicy below instead of calling this directly.
inline ContractPolicy set_contract_policy(ContractPolicy p) {
  return static_cast<ContractPolicy>(check_detail::policy_word().exchange(
      static_cast<int>(p), std::memory_order_relaxed));
}

/// RAII guard: swap the failure policy for a scope (tests of the kLog
/// path, harnesses that prefer logging over exceptions).
class ScopedContractPolicy {
 public:
  explicit ScopedContractPolicy(ContractPolicy p)
      : previous_(set_contract_policy(p)) {}
  ~ScopedContractPolicy() { set_contract_policy(previous_); }
  ScopedContractPolicy(const ScopedContractPolicy&) = delete;
  ScopedContractPolicy& operator=(const ScopedContractPolicy&) = delete;

 private:
  ContractPolicy previous_;
};

namespace check_detail {

/// Slow path of a failed check. Not [[noreturn]]: kLog continues.
inline void fail(const char* kind, const char* expr, const char* file,
                 int line, const std::string& detail, bool debug_check) {
  stats().failed.fetch_add(1, std::memory_order_relaxed);
  if (debug_check) {
    stats().debug_failed.fetch_add(1, std::memory_order_relaxed);
  }
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ":" << line;
  if (!detail.empty()) os << " — " << detail;
  const std::string msg = os.str();
  switch (static_cast<ContractPolicy>(
      policy_word().load(std::memory_order_relaxed))) {
    case ContractPolicy::kThrow:
      throw ContractViolation(msg);
    case ContractPolicy::kLog:
      std::fprintf(stderr, "%s\n", msg.c_str());
      std::fflush(stderr);
      return;
  }
}

/// Mixed absolute/relative closeness, mirroring util/mathx.hpp's
/// approx_eq (re-implemented here: mathx includes this header).
inline bool near(double a, double b, double tol) {
  const double scale =
      std::fmax(1.0, std::fmax(std::fabs(a), std::fabs(b)));
  return std::fabs(a - b) <= tol * scale;
}

inline std::string near_detail(double a, double b, double tol) {
  std::ostringstream os;
  os.precision(17);
  os << "|" << a << " - " << b << "| > " << tol << " (scaled)";
  return os.str();
}

}  // namespace check_detail
}  // namespace parsched

/// Marks a function definition as engine-hot-path: it runs inside the
/// steady-state decision loop and must perform no heap allocation.
/// tools/parsched_analyze.py statically scans every PARSCHED_HOT body
/// for banned constructs (local container/string construction, `new`,
/// make_unique/make_shared, std::function creation); the dynamic twin is
/// check/alloc_guard.hpp, which the engine arms around these regions
/// under PARSCHED_AUDIT=1. A justified allocation (e.g. building the
/// message for an error throw) is suppressed with a trailing
/// `// lint: alloc-ok`, which the linter's suppression-audit mode keeps
/// visible. Expands to [[gnu::hot]] where supported, so the annotation
/// also feeds the optimizer's block placement.
#if defined(__GNUC__) || defined(__clang__)
#define PARSCHED_HOT [[gnu::hot]]
#else
#define PARSCHED_HOT
#endif

// Two-level dispatch so the macros accept an optional message argument.
#define PARSCHED_CHECK_IMPL_(kind, cond, detail, dbg)                       \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::parsched::check_detail::fail(kind, #cond, __FILE__, __LINE__,       \
                                     detail, dbg);                          \
    }                                                                       \
  } while (false)

#define PARSCHED_CHECK_PICK_(a, b, macro, ...) macro
#define PARSCHED_CHECK_1_(cond) \
  PARSCHED_CHECK_IMPL_("PARSCHED_CHECK", cond, std::string(), false)
#define PARSCHED_CHECK_2_(cond, msg) \
  PARSCHED_CHECK_IMPL_("PARSCHED_CHECK", cond, std::string(msg), false)

/// Always-on contract: fires in Debug, RelWithDebInfo and Release.
#define PARSCHED_CHECK(...)                                             \
  PARSCHED_CHECK_PICK_(__VA_ARGS__, PARSCHED_CHECK_2_,                  \
                       PARSCHED_CHECK_1_)(__VA_ARGS__)

/// Always-on tolerant float equality (mixed absolute/relative, like
/// approx_eq): |a - b| <= tol * max(1, |a|, |b|).
#define PARSCHED_CHECK_NEAR(a, b, tol)                                      \
  do {                                                                      \
    const double parsched_check_a_ = (a);                                   \
    const double parsched_check_b_ = (b);                                   \
    const double parsched_check_tol_ = (tol);                               \
    if (!::parsched::check_detail::near(                                    \
            parsched_check_a_, parsched_check_b_, parsched_check_tol_)) {   \
      ::parsched::check_detail::fail(                                       \
          "PARSCHED_CHECK_NEAR", #a " ≈ " #b, __FILE__, __LINE__,           \
          ::parsched::check_detail::near_detail(                            \
              parsched_check_a_, parsched_check_b_, parsched_check_tol_),   \
          false);                                                           \
    }                                                                       \
  } while (false)

#define PARSCHED_DCHECK_1_(cond) \
  PARSCHED_CHECK_IMPL_("PARSCHED_DCHECK", cond, std::string(), true)
#define PARSCHED_DCHECK_2_(cond, msg) \
  PARSCHED_CHECK_IMPL_("PARSCHED_DCHECK", cond, std::string(msg), true)

/// Debug-only contract for hot paths; compiled out under NDEBUG exactly
/// like assert (the condition is not evaluated).
#if defined(NDEBUG) && !defined(PARSCHED_FORCE_DCHECKS)
#define PARSCHED_DCHECK(...) \
  do {                       \
  } while (false)
#else
#define PARSCHED_DCHECK(...)                                             \
  PARSCHED_CHECK_PICK_(__VA_ARGS__, PARSCHED_DCHECK_2_,                  \
                       PARSCHED_DCHECK_1_)(__VA_ARGS__)
#endif
