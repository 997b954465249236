// Oracle proof of the engine's ordering path: the persistent SRPT heap,
// the per-decision latest-arrival sort and the memo behind the
// SchedulerContext helpers.
//
// The contract under test: every helper — SRPT prefixes served from a
// heap that replaces a per-decision O(n log n) ordering rebuild with
// O(log n) event maintenance, latest-arrival prefixes partial-sorted per
// decision, next to the engine's reusable scratch buffers, the idle
// flow-quotient arm and the sparse completion sweep — answers exactly as
// the original per-call sorts (refimpl:: below) would, at every decision
// of every registry policy, and checking it leaves the run unchanged.
//
// refimpl:: is the original iota + sort / nth_element code, kept here as
// the reference: no heaps, no memo, no state across calls. Each function
// fills a caller-owned buffer (reused capacity, so a warm caller performs
// no allocation and the oracle can run inside the engine's
// PARSCHED_AUDIT AllocGuard fences). OracleScheduler wraps any policy
// and, after the policy's own allocate(), re-asks every helper on the
// same context and compares each answer entry for entry with refimpl::
// over ctx.alive(). A policy's allocation is a function of its context,
// so a run in which every decision passes the check is the run a
// refimpl-backed engine would have produced.
//
// The spine is a property-based fuzzer: a seeded instance generator
// (mixed parallelizability, bursty arrivals, completion/time-tolerance
// edge sizes, zero-rate stretches) drives all registry policies under
// the oracle. On a mismatch the harness shrinks to a minimal failing
// job-count prefix, names the first divergent decision and helper, and
// (when PARSCHED_FUZZ_DUMP_DIR is set) dumps the run's flight record for
// the failing case. Depth scales with PARSCHED_FUZZ_ITERS (default 10
// seeds ≈ 1.2×10⁵ driven events — the PR-gate setting; the nightly CI
// leg raises it).
//
// Alongside the fuzzer: ~12 pinned seed-corpus regression cases for the
// heap edge cases (duplicate keys, completion bursts emptying the heap,
// admit-during-deferral, stale-heap regathers crossing the top-k
// boundary, ...), the E1/E5 experiment grids, direct helper and memo
// checks (up to 20000 jobs), tie-break pins at k == n and k < n/8, and
// the head cases: at 12000 jobs, where a narrow SRPT query heaps only the
// keys below a sampled threshold, every way across that boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "check/contract.hpp"
#include "obs/flight_recorder.hpp"
#include "sched/registry.hpp"
#include "simcore/engine.hpp"
#include "simcore/incremental.hpp"
#include "simcore/scheduler.hpp"
#include "util/env.hpp"
#include "workload/random.hpp"

namespace parsched {
namespace {

namespace refimpl {

/// (remaining, release, id) lexicographic SRPT order.
struct SrptLess {
  AliveView alive;
  bool operator()(std::size_t a, std::size_t b) const {
    if (alive.remaining(a) != alive.remaining(b)) {
      return alive.remaining(a) < alive.remaining(b);
    }
    if (alive.release(a) != alive.release(b)) {
      return alive.release(a) < alive.release(b);
    }
    return alive.id(a) < alive.id(b);
  }
};

/// (release, id) descending: latest arrival first.
struct LatestLess {
  AliveView alive;
  bool operator()(std::size_t a, std::size_t b) const {
    if (alive.release(a) != alive.release(b)) {
      return alive.release(a) > alive.release(b);
    }
    return alive.id(a) > alive.id(b);
  }
};

/// The first min(k, n) indices of `less`'s order over alive, via
/// nth_element + sort of the prefix (a full sort when k >= n).
template <class Less>
void sorted_prefix(AliveView alive, std::size_t k,
                   std::vector<std::size_t>& out) {
  out.resize(alive.size());
  std::iota(out.begin(), out.end(), std::size_t{0});
  if (k >= out.size()) {
    std::sort(out.begin(), out.end(), Less{alive});
    return;
  }
  std::nth_element(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(k),
                   out.end(), Less{alive});
  out.resize(k);
  std::sort(out.begin(), out.end(), Less{alive});
}

void smallest_remaining(AliveView alive, std::size_t k,
                        std::vector<std::size_t>& out) {
  sorted_prefix<SrptLess>(alive, k, out);
}

std::size_t min_remaining(AliveView alive) {
  PARSCHED_CHECK(!alive.empty(), "min_remaining over an empty context");
  std::size_t best = 0;
  const SrptLess less{alive};
  for (std::size_t i = 1; i < alive.size(); ++i) {
    if (less(i, best)) best = i;
  }
  return best;
}

void latest_arrivals(AliveView alive, std::size_t k,
                     std::vector<std::size_t>& out) {
  sorted_prefix<LatestLess>(alive, k, out);
}

}  // namespace refimpl

/// Checking wrapper: runs the inner policy, then compares
/// smallest_remaining(k) for k in {1, m, n/8, n}, min_remaining, and
/// latest_arrivals(k) for the same k against refimpl:: on ctx.alive().
/// The first disagreement is recorded (as plain fields, so recording
/// allocates nothing inside an AllocGuard fence) and described by
/// mismatch().
class OracleScheduler final : public Scheduler {
 public:
  explicit OracleScheduler(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    inner_->allocate(ctx, out);
    check(ctx);
    ++decisions_;
  }

  void reset() override {
    inner_->reset();
    decisions_ = 0;
    bad_ = Mismatch{};
  }
  [[nodiscard]] std::string save_state() const override {
    return inner_->save_state();
  }
  void load_state(const std::string& state) override {
    inner_->load_state(state);
  }

  /// Decisions checked since the last reset().
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }
  [[nodiscard]] bool ok() const { return bad_.helper == nullptr; }
  /// "" when every check passed; else the first divergent decision.
  [[nodiscard]] std::string mismatch() const {
    if (ok()) return {};
    return "decision " + std::to_string(bad_.decision) + ": " + bad_.helper +
           "(k=" + std::to_string(bad_.k) + ") over n=" +
           std::to_string(bad_.n) + " disagrees with refimpl at position " +
           std::to_string(bad_.position);
  }

 private:
  struct Mismatch {
    const char* helper = nullptr;
    std::uint64_t decision = 0;
    std::size_t k = 0;
    std::size_t n = 0;
    std::size_t position = 0;
  };

  void expect(const char* helper, std::size_t k, std::size_t n,
              std::span<const std::size_t> got) {
    if (!ok()) return;
    std::size_t pos = 0;
    while (pos < got.size() && pos < ref_.size() && got[pos] == ref_[pos]) {
      ++pos;
    }
    if (pos == got.size() && got.size() == ref_.size()) return;
    bad_ = Mismatch{helper, decisions_, k, n, pos};
  }

  void check(const SchedulerContext& ctx) {
    const AliveView alive = ctx.alive();
    const std::size_t n = alive.size();
    const std::size_t m = static_cast<std::size_t>(ctx.machines());
    // Ascending widths first, so narrow queries reach the heap traversal
    // before a full-order query fills the decision's memo.
    const std::size_t ks[] = {1, m, n / 8, n};
    for (const std::size_t k : ks) {
      refimpl::smallest_remaining(alive, k, ref_);
      expect("smallest_remaining", k, n, ctx.smallest_remaining(k));
    }
    if (n > 0 && ok() && ctx.min_remaining() != refimpl::min_remaining(alive)) {
      bad_ = Mismatch{"min_remaining", decisions_, 1, n, 0};
    }
    for (const std::size_t k : ks) {
      refimpl::latest_arrivals(alive, k, ref_);
      expect("latest_arrivals", k, n, ctx.latest_arrivals(k));
    }
  }

  std::unique_ptr<Scheduler> inner_;
  std::vector<std::size_t> ref_;  ///< refimpl answer under comparison
  std::uint64_t decisions_ = 0;
  Mismatch bad_;
};

// Every registry family, parameterized variants included, so each
// ordering helper is exercised by a policy that actually calls it:
// smallest_remaining (SRPT family), min_remaining (par-srpt),
// latest_arrivals (LAPS / oldest-equi / quantized-equi), and the
// no-helper policies (equi, greedy, mlf, wisrpt, setf) that still drive
// heap maintenance.
const char* const kAllPolicies[] = {
    "isrpt",         "seq-srpt",        "par-srpt",
    "greedy",        "equi",            "isrpt-boost",
    "mlf",           "wisrpt",          "laps:0.25",
    "laps:0.5",      "oldest-equi:0.5", "setf:0.2",
    "isrpt-thresh:2.0", "quantized-equi:0.5",
};

std::uint64_t bit_pattern(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Per-decision witness: an FNV-1a hash over the exact bit patterns of
/// the decision time and every share. Double-for-double equality of two
/// runs' decisions implies equal hash streams; a diverging decision is
/// caught at its index, not smeared into the final totals.
class DecisionHasher : public Observer {
 public:
  void on_decision(double t, std::span<const AliveJob> alive,
                   std::span<const double> shares) override {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(bit_pattern(t));
    mix(static_cast<std::uint64_t>(alive.size()));
    for (const double s : shares) mix(bit_pattern(s));
    hashes.push_back(h);
  }

  std::vector<std::uint64_t> hashes;
};

struct CheckedRun {
  SimResult result;
  std::vector<std::uint64_t> hashes;
  std::string mismatch;  ///< "" when every decision matched refimpl::
  std::uint64_t checked = 0;  ///< decisions the oracle checked
};

/// One batch run with the decision stream hashed.
CheckedRun run_hashed(const Instance& inst, Scheduler& sched,
                      obs::FlightRecorder* recorder = nullptr) {
  EngineConfig cfg;
  cfg.recorder = recorder;
  DecisionHasher hasher;
  CheckedRun out;
  out.result = simulate(inst, sched, cfg, {&hasher});
  out.hashes = std::move(hasher.hashes);
  return out;
}

CheckedRun run_plain(const Instance& inst, const std::string& policy) {
  auto sched = make_scheduler(policy);
  return run_hashed(inst, *sched);
}

/// One batch run of `policy` under the oracle.
CheckedRun run_checked(const Instance& inst, const std::string& policy,
                       obs::FlightRecorder* recorder = nullptr) {
  OracleScheduler oracle(make_scheduler(policy));
  CheckedRun out = run_hashed(inst, oracle, recorder);
  out.mismatch = oracle.mismatch();
  out.checked = oracle.decisions();
  return out;
}

/// Streams `inst` into a fresh engine with ragged advances (many of
/// which stop short of the next event and park a deferred decision).
CheckedRun run_streamed(const Instance& inst, const std::string& policy) {
  OracleScheduler oracle(make_scheduler(policy));
  Engine eng(inst.machines());
  DecisionHasher hasher;
  eng.add_observer(&hasher);
  eng.begin(oracle);
  double t = 0.0;
  for (const Job& j : inst.jobs()) {
    eng.admit(j);
    if ((j.id % 3) == 0) {
      t = std::max(t, j.release * 0.75);
      eng.advance_to(t);
    }
  }
  CheckedRun out;
  out.result = eng.finish();
  out.hashes = std::move(hasher.hashes);
  out.mismatch = oracle.mismatch();
  out.checked = oracle.decisions();
  return out;
}

/// First difference between two runs' decision streams and results;
/// "" when they agree double for double.
std::string compare_runs(const CheckedRun& a, const CheckedRun& b) {
  const std::size_t n = std::min(a.hashes.size(), b.hashes.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a.hashes[i] != b.hashes[i]) {
      return "first divergent decision at index " + std::to_string(i) +
             " of " + std::to_string(n);
    }
  }
  if (a.hashes.size() != b.hashes.size()) {
    return "decision counts differ: " + std::to_string(a.hashes.size()) +
           " vs " + std::to_string(b.hashes.size());
  }
  const SimResult& x = a.result;
  const SimResult& y = b.result;
  if (x.total_flow != y.total_flow) return "total_flow differs";
  if (x.weighted_flow != y.weighted_flow) return "weighted_flow differs";
  if (x.fractional_flow != y.fractional_flow) {
    return "fractional_flow differs";
  }
  if (x.makespan != y.makespan) return "makespan differs";
  if (x.decisions != y.decisions) return "decision totals differ";
  if (x.events != y.events) return "event totals differ";
  if (x.records.size() != y.records.size()) {
    return "completion record counts differ";
  }
  for (std::size_t i = 0; i < x.records.size(); ++i) {
    if (x.records[i].job.id != y.records[i].job.id ||
        x.records[i].completion != y.records[i].completion) {
      return "completion record " + std::to_string(i) + " differs";
    }
  }
  return {};
}

/// The oracle check as a test assertion: every decision passes, and the
/// checked run equals the unwrapped one (the oracle's extra, wider
/// queries must not perturb the policy's own answers).
CheckedRun expect_checked(const Instance& inst, const std::string& policy,
                          const std::string& what = "") {
  CheckedRun run = run_checked(inst, policy);
  EXPECT_TRUE(run.mismatch.empty()) << what << policy << ": " << run.mismatch;
  EXPECT_EQ(run.checked, run.result.decisions) << what << policy;
  const std::string diff = compare_runs(run, run_plain(inst, policy));
  EXPECT_TRUE(diff.empty()) << what << policy << " vs unwrapped: " << diff;
  return run;
}

// ---- Fuzz harness -------------------------------------------------------

/// Seeded random instance: bursty arrivals (clusters share one release),
/// mixed parallelizability (sequential / power-law alpha sweep / fully
/// parallel), completion-tolerance-edge sizes (jobs whose whole work is
/// within completion_tol, finishing with zero processing), time-tol-edge
/// near-ties, and far more jobs than machines so SRPT-style allocations
/// leave long zero-rate stretches.
Instance fuzz_instance(std::uint64_t seed, std::size_t jobs = 0) {
  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const int machines = 2 + static_cast<int>(rng() % 29);
  if (jobs == 0) jobs = 360 + rng() % 121;
  std::vector<Job> out;
  out.reserve(jobs);
  double t = 0.0;
  std::exponential_distribution<double> gap(1.5);
  for (std::size_t i = 0; i < jobs; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    if (i == 0 || u(rng) >= 0.4) t += gap(rng);  // else: burst at the same t
    j.release = t;
    if (u(rng) < 0.05) {
      // Sub-nanosecond sneak: release a hair after the burst, within
      // the engine's time_tol, so "simultaneous" handling is exercised.
      j.release = t + 1e-12;
    }
    const double v = u(rng);
    if (v < 0.05) {
      // Whole job inside completion_tol * max(1, size): completes with
      // (nearly) zero processing, often in a dt = 0 step.
      j.size = 1e-10 + 8e-10 * u(rng);
    } else if (v < 0.12) {
      // Near-identical sizes: completions land within time_tol of each
      // other, driving simultaneous-completion bursts.
      j.size = 1.0 + 1e-10 * u(rng);
    } else {
      j.size = std::exp(u(rng) * std::log(64.0));  // log-uniform [1, 64]
    }
    const double c = u(rng);
    if (c < 0.25) {
      j.curve = SpeedupCurve::sequential();
    } else if (c < 0.45) {
      j.curve = SpeedupCurve::fully_parallel();
    } else {
      j.curve = SpeedupCurve::power_law(0.05 + 0.9 * u(rng));
    }
    if (u(rng) < 0.3) j.weight = 1.0 + 3.0 * u(rng);
    out.push_back(std::move(j));
  }
  return Instance(machines, std::move(out));
}

std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& ch : out) {
    if (ch == ':' || ch == '.' || ch == '/') ch = '_';
  }
  return out;
}

/// Artifact hook for CI: when PARSCHED_FUZZ_DUMP_DIR is set, replay a
/// failing case with a flight recorder armed and dump its ring for
/// upload next to the failing seed.
void dump_failing_case(const Instance& inst, const std::string& policy,
                       const std::string& label) {
  const std::string dir = env::get_string("PARSCHED_FUZZ_DUMP_DIR");
  if (dir.empty()) return;
  obs::FlightRecorder recorder(8192);
  recorder.set_dump_path(dir + "/fuzz_" + sanitize(label) + "_" +
                         sanitize(policy) + ".jsonl");
  (void)run_checked(inst, policy, &recorder);
  recorder.dump_to_file("fuzz_mismatch");
}

/// Shrinking-style minimizer: bisect the failing instance to the
/// smallest job-count prefix that still diverges (the classic QuickCheck
/// shrink heuristic — not guaranteed globally minimal, but it routinely
/// turns a 400-job counterexample into a handful of jobs).
std::size_t shrink_min_prefix(const Instance& inst, const std::string& policy) {
  const std::vector<Job>& jobs = inst.jobs();
  const auto fails = [&](std::size_t count) {
    const Instance sub(
        inst.machines(),
        std::vector<Job>(jobs.begin(),
                         jobs.begin() + static_cast<std::ptrdiff_t>(count)));
    return !run_checked(sub, policy).mismatch.empty();
  };
  std::size_t lo = 1;
  std::size_t hi = jobs.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fails(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Run the oracle check; on mismatch emit the minimal-seed report (seed
/// label, policy, shrunken prefix, first divergence) and a flight-record
/// artifact. Returns the number of events the run drove, for the depth
/// accounting.
std::uint64_t check_instance(const Instance& inst, const std::string& policy,
                             const std::string& label) {
  const CheckedRun run = run_checked(inst, policy);
  if (!run.mismatch.empty()) {
    const std::size_t min_jobs = shrink_min_prefix(inst, policy);
    dump_failing_case(inst, policy, label);
    ADD_FAILURE() << "oracle mismatch [" << label << "] policy=" << policy
                  << ": " << run.mismatch << "\n  minimal failing prefix: "
                  << "first " << min_jobs << " of " << inst.jobs().size()
                  << " jobs (machines=" << inst.machines() << ")"
                  << "\n  reproduce: fuzz label " << label
                  << ", shrink with the first " << min_jobs << " jobs";
    return 0;
  }
  return run.result.events;
}

TEST(IncrementalFuzz, OracleAgreesOverRandomEventSchedules) {
  // Short default for the PR gate (~10⁵ driven events in seconds); the
  // nightly CI leg raises PARSCHED_FUZZ_ITERS for depth.
  const long iters = env::get_int("PARSCHED_FUZZ_ITERS", 10, 1, 1000000);
  std::uint64_t total_events = 0;
  for (long it = 0; it < iters; ++it) {
    const std::uint64_t seed = 0xC0FFEEull + static_cast<std::uint64_t>(it);
    const Instance inst = fuzz_instance(seed);
    const std::string label = "seed=" + std::to_string(seed);
    for (const char* policy : kAllPolicies) {
      total_events += check_instance(inst, policy, label);
      if (HasFailure()) return;  // the shrunken report is already emitted
    }
  }
  std::printf("oracle fuzz: %llu driven events across %ld seeds\n",
              static_cast<unsigned long long>(total_events), iters);
  // Depth floor: every seed must drive >= 10^4 events through the oracle
  // in single runs (14 policies x 2 events/job x >= 360 jobs).
  EXPECT_GE(total_events, static_cast<std::uint64_t>(iters) * 10000ull);
}

// ---- Seed corpus: pinned heap edge cases --------------------------------
//
// Reproducible without the fuzzer: each case pins a generator seed (or a
// hand-built shape the generator reaches only occasionally) that lands
// on a specific heap edge, and runs the oracle check as its own ctest
// case.

/// PARSCHED_AUDIT scope: arms the engine-side heap-vs-alive audit (and
/// the AllocGuard fences, which the warm oracle stays inside) for every
/// engine constructed inside it, then restores the caller's setting (the
/// nightly leg runs the whole binary audited).
class AuditScope {
 public:
  AuditScope() : was_(env::get_string("PARSCHED_AUDIT")) {
    setenv("PARSCHED_AUDIT", "1", 1);
  }
  ~AuditScope() {
    if (was_.empty()) {
      unsetenv("PARSCHED_AUDIT");
    } else {
      setenv("PARSCHED_AUDIT", was_.c_str(), 1);
    }
  }

 private:
  std::string was_;
};

TEST(IncrementalSeedCorpus, DuplicateRemainingKeysTieStorm) {
  // Every job identical in (size, release): both orders are decided
  // purely by id tie-breaks, and the SRPT heap is all-duplicate keys.
  std::vector<Job> jobs;
  for (int i = 0; i < 96; ++i) {
    Job j;
    j.id = static_cast<JobId>(200 - i);  // ids descending vs index
    j.release = static_cast<double>(i / 24);  // four equal-release bursts
    j.size = 2.0;
    j.curve = SpeedupCurve::power_law(0.5);
    jobs.push_back(j);
  }
  const Instance inst(8, jobs);
  for (const char* policy : {"isrpt", "seq-srpt", "mlf", "laps:0.5"}) {
    expect_checked(inst, policy);
  }
}

TEST(IncrementalSeedCorpus, CompletionBurstEmptiesHeap) {
  // Identical fully-parallel jobs under EQUI complete simultaneously:
  // one sweep removes every heap entry (the swap-remove mirror's
  // hardest case), then a second wave refills from empty.
  AuditScope audit;
  std::vector<Job> jobs;
  for (int wave = 0; wave < 2; ++wave) {
    for (int i = 0; i < 40; ++i) {
      Job j;
      j.id = static_cast<JobId>(wave * 100 + i);
      j.release = wave * 50.0;
      j.size = 4.0;
      j.curve = SpeedupCurve::fully_parallel();
      jobs.push_back(j);
    }
  }
  const Instance inst(16, jobs);
  for (const char* policy : {"equi", "isrpt", "greedy"}) {
    expect_checked(inst, policy);
  }
}

TEST(IncrementalSeedCorpus, AdmitDuringDeferredDecision) {
  // Streaming: advances that stop short of the next event defer the
  // decision; admissions landing while deferred must enter the orders
  // only when released. The streamed run must pass the oracle and match
  // the batch run double for double.
  const Instance inst = fuzz_instance(0xDEFE77ull, 160);
  for (const char* policy : {"isrpt", "laps:0.25", "quantized-equi:0.5"}) {
    const CheckedRun streamed = run_streamed(inst, policy);
    EXPECT_TRUE(streamed.mismatch.empty()) << policy << ": "
                                           << streamed.mismatch;
    const std::string diff = compare_runs(streamed, run_checked(inst, policy));
    EXPECT_TRUE(diff.empty()) << policy << " streamed vs batch: " << diff;
  }
}

TEST(IncrementalSeedCorpus, DecayCrossingTopKBoundary) {
  // m = 16 machines, 220 equal-release jobs: ISRPT's m nonzero rates sit
  // under the n/8 mass-update threshold while n > 128 (eager per-key
  // sifts) and above it once completions shrink n below 128 (the SRPT
  // heap goes stale and is regathered at the next query). The run
  // crosses the boundary, and the policy's smallest_remaining(m) top-k
  // straddles it.
  AuditScope audit;
  std::vector<Job> jobs;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> u(1.0, 9.0);
  for (int i = 0; i < 220; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.release = 0.0;
    j.size = u(rng);
    j.curve = SpeedupCurve::power_law(0.6);
    jobs.push_back(j);
  }
  const Instance inst(16, jobs);
  for (const char* policy : {"isrpt", "isrpt-boost", "par-srpt"}) {
    expect_checked(inst, policy);
  }
}

TEST(IncrementalSeedCorpus, CompletionToleranceEdgeSizes) {
  // Jobs whose entire work sits inside completion_tol complete with zero
  // processing — heap entries that die in dt = 0 steps, interleaved with
  // normal-sized work.
  std::vector<Job> jobs;
  for (int i = 0; i < 60; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.release = 0.25 * (i / 4);
    j.size = (i % 4 == 0) ? 5e-10 : 1.0 + 0.125 * i;
    j.curve = (i % 2) != 0 ? SpeedupCurve::sequential()
                           : SpeedupCurve::power_law(0.4);
    jobs.push_back(j);
  }
  const Instance inst(4, jobs);
  for (const char* policy : {"isrpt", "seq-srpt", "setf:0.2"}) {
    expect_checked(inst, policy);
  }
}

TEST(IncrementalSeedCorpus, TimeToleranceEdgeArrivals) {
  // Releases separated by less than time_tol are handled as simultaneous
  // — the latest-arrival order must break those "ties" by id exactly as
  // the flat sort does.
  std::vector<Job> jobs;
  for (int i = 0; i < 48; ++i) {
    Job j;
    j.id = static_cast<JobId>(97 - 2 * i);
    j.release = 1.0 + 1e-12 * (i % 5);
    j.size = 1.0 + 0.5 * (i % 7);
    j.curve = SpeedupCurve::power_law(0.7);
    jobs.push_back(j);
  }
  const Instance inst(6, jobs);
  for (const char* policy : {"laps:0.25", "oldest-equi:0.5",
                             "quantized-equi:0.5"}) {
    expect_checked(inst, policy);
  }
}

TEST(IncrementalSeedCorpus, ZeroRateStretchesSequentialGlut) {
  // 240 sequential jobs on 4 machines: under SRPT-style policies all but
  // four jobs idle at rate 0 for long stretches — remaining-work keys
  // must stay bit-stable across hundreds of decisions without updates.
  std::vector<Job> jobs;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.5, 4.0);
  for (int i = 0; i < 240; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.release = 0.01 * i;
    j.size = u(rng);
    j.curve = SpeedupCurve::sequential();
    jobs.push_back(j);
  }
  const Instance inst(4, jobs);
  for (const char* policy : {"seq-srpt", "isrpt"}) {
    expect_checked(inst, policy);
  }
}

TEST(IncrementalSeedCorpus, HeapEmptiesBetweenWaves) {
  // Two widely separated waves: the alive set (and the heap) drain to
  // empty mid-run, then rebuild through admissions alone.
  std::vector<Job> jobs;
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 20; ++i) {
      Job j;
      j.id = static_cast<JobId>(wave * 1000 + i);
      j.release = wave * 500.0;
      j.size = 1.0 + 0.1 * i;
      j.curve = SpeedupCurve::power_law(0.5);
      jobs.push_back(j);
    }
  }
  const Instance inst(8, jobs);
  for (const char* policy : {"isrpt", "equi", "wisrpt"}) {
    expect_checked(inst, policy);
  }
}

TEST(IncrementalSeedCorpus, SnapshotRestoreRebuildsHeaps) {
  // Export mid-run, import into a fresh engine, and the continuation
  // must pass the oracle and equal the donor's — proving the
  // lazily rebuilt orders reproduce the donor's orderings bit for bit.
  const Instance inst = fuzz_instance(0x5EED5ull, 140);
  for (const char* policy : {"isrpt", "laps:0.5", "quantized-equi:0.5"}) {
    // Donor: run straight through.
    auto donor_sched = make_scheduler(policy);
    Engine donor(inst.machines());
    donor.begin(*donor_sched);
    for (const Job& j : inst.jobs()) donor.admit(j);
    const double t_cut = inst.jobs()[inst.jobs().size() / 2].release;
    donor.advance_to(t_cut);
    const EngineState snap = donor.export_state();
    const std::string sched_state = donor_sched->save_state();
    const SimResult donor_result = donor.finish();

    // Continuation: restore and finish.
    OracleScheduler cont_sched(make_scheduler(policy));
    cont_sched.load_state(sched_state);
    Engine cont(inst.machines());
    cont.import_state(snap, cont_sched);
    const SimResult cont_result = cont.finish();
    EXPECT_TRUE(cont_sched.ok()) << policy << ": " << cont_sched.mismatch();

    EXPECT_EQ(donor_result.total_flow, cont_result.total_flow) << policy;
    EXPECT_EQ(donor_result.fractional_flow, cont_result.fractional_flow)
        << policy;
    EXPECT_EQ(donor_result.decisions, cont_result.decisions) << policy;
    ASSERT_EQ(donor_result.records.size(), cont_result.records.size())
        << policy;
    for (std::size_t i = 0; i < donor_result.records.size(); ++i) {
      EXPECT_EQ(donor_result.records[i].completion,
                cont_result.records[i].completion)
          << policy << " record " << i;
    }
  }
}

TEST(IncrementalSeedCorpus, MassDecayUnderDenseAllocations) {
  // EQUI-family allocations run every alive job: every sweep crosses the
  // n/8 threshold, where a fresh SRPT heap would be marked stale.
  // oldest-equi also queries latest_arrivals(n) (that heap is built at
  // its first query and stays fresh); equi queries nothing, so neither
  // heap is ever built — both must still pass the oracle (which builds
  // them on its own queries), under the full engine-side heap audit.
  AuditScope audit;
  const Instance inst = fuzz_instance(0xDECA1ull, 150);
  for (const char* policy : {"equi", "oldest-equi:0.5", "greedy"}) {
    expect_checked(inst, policy);
  }
}

TEST(IncrementalSeedCorpus, PinnedGeneratorSeedsFastPolicies) {
  // A dozen pinned generator seeds through the SRPT-family policies —
  // the cases most sensitive to remaining-work key maintenance.
  for (const std::uint64_t seed :
       {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull, 29ull,
        31ull, 37ull}) {
    const Instance inst = fuzz_instance(seed, 120);
    for (const char* policy : {"isrpt", "seq-srpt", "par-srpt"}) {
      expect_checked(inst, policy,
                     "pinned seed " + std::to_string(seed) + " ");
    }
  }
}

TEST(IncrementalSeedCorpus, PinnedGeneratorSeedsOrderingConsumers) {
  // Same pinned seeds through the latest-arrival / full-order consumers.
  for (const std::uint64_t seed :
       {2ull, 7ull, 13ull, 19ull, 29ull, 37ull}) {
    const Instance inst = fuzz_instance(seed, 120);
    for (const char* policy :
         {"laps:0.25", "oldest-equi:0.5", "quantized-equi:0.5", "mlf"}) {
      expect_checked(inst, policy,
                     "pinned seed " + std::to_string(seed) + " ");
    }
  }
}

// ---- Direct IncrementalOrders unit churn --------------------------------

/// Deliberately collision-heavy: remaining and release each drawn from
/// a handful of values, so ties are common and id tie-breaks decide.
std::vector<AliveJob> random_alive(std::mt19937_64& rng, std::size_t n,
                                   int max_remaining) {
  std::uniform_int_distribution<int> rem(1, max_remaining);
  std::uniform_int_distribution<int> rel(0, 3);
  std::vector<AliveJob> alive(n);
  std::vector<JobId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<JobId>(i);
  std::shuffle(ids.begin(), ids.end(), rng);
  for (std::size_t i = 0; i < n; ++i) {
    alive[i].id = ids[i];
    alive[i].remaining = static_cast<double>(rem(rng));
    alive[i].release = static_cast<double>(rel(rng));
    alive[i].size = alive[i].remaining + 1.0;
  }
  return alive;
}

/// The records as an AliveSet, the form contexts and heaps read.
AliveSet as_set(const std::vector<AliveJob>& records) {
  AliveSet set;
  set.assign(records);
  return set;
}

/// Both orders at several widths, each through a SchedulerContext of its
/// own (a cold query, not a memo hit), against refimpl::.
void expect_orders_match(IncrementalOrders& inc,
                         const std::vector<AliveJob>& records,
                         const std::string& what) {
  const AliveSet set = as_set(records);
  const AliveView alive = set.view();
  std::vector<std::size_t> srpt_ref;
  refimpl::smallest_remaining(alive, alive.size(), srpt_ref);
  std::vector<std::size_t> latest_ref;
  refimpl::latest_arrivals(alive, alive.size(), latest_ref);
  for (const std::size_t k :
       {std::size_t{1}, alive.size() / 8, alive.size() / 2, alive.size()}) {
    if (k == 0) continue;
    const SchedulerContext ctx(0.0, 1, alive, inc);
    const auto srpt = ctx.smallest_remaining(k);
    ASSERT_EQ(srpt.size(), k) << what;
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(srpt[i], srpt_ref[i]) << what << " srpt k=" << k << " @" << i;
    }
    const auto latest = ctx.latest_arrivals(k);
    ASSERT_EQ(latest.size(), k) << what;
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(latest[i], latest_ref[i])
          << what << " latest k=" << k << " @" << i;
    }
  }
  inc.srpt.audit(alive);
}

/// Counts of the churn operations a schedule applied.
struct ChurnCounts {
  int drops = 0;
  int removals = 0;
  int inserts = 0;
  int stale_marks = 0;
};

/// One random churn operation on `alive`, mirrored into `inc`.
void churn_once(std::mt19937_64& rng, int round, std::vector<AliveJob>& alive,
                IncrementalOrders& inc, ChurnCounts& counts) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double op = u(rng);
  if (op < 0.35 && !alive.empty()) {
    // Advance: shrink a few remaining-work keys.
    for (int k = 0; k < 3 && !alive.empty(); ++k) {
      const std::size_t i = rng() % alive.size();
      alive[i].remaining = std::max(0.125, alive[i].remaining * 0.75);
      inc.srpt.refresh(as_set(alive).view(), i);
      ++counts.drops;
    }
  } else if (op < 0.6 && alive.size() > 2) {
    // Complete: swap-remove, mirrored.
    const std::size_t i = rng() % alive.size();
    const std::size_t last = alive.size() - 1;
    inc.srpt.remove_swap(i, last);
    alive[i] = alive[last];
    alive.pop_back();
    ++counts.removals;
  } else if (op < 0.85) {
    // Admit.
    AliveJob j;
    j.id = static_cast<JobId>(1000 + round);
    j.remaining = 0.5 + 5.0 * u(rng);
    j.release = 4.0 + 0.01 * round;
    j.size = j.remaining;
    inc.reserve(alive.size() + 1);
    alive.push_back(j);
    inc.srpt.insert(as_set(alive).view(), alive.size() - 1);
    ++counts.inserts;
  } else {
    // Mass update + stale SRPT heap (the engine's dense-step path).
    for (std::size_t i = 0; i < alive.size(); ++i) {
      alive[i].remaining = std::max(0.125, alive[i].remaining * 0.9);
    }
    inc.srpt.mark_stale();
    ++counts.stale_marks;
  }
}

TEST(IncrementalOrdersUnit, RandomChurnMatchesRefimpl) {
  // Schedule 1 queries both orders from the start, so the churn runs as
  // upkeep on a fresh heap (and regathers after each stale mark).
  {
    std::mt19937_64 rng(20260808);
    std::vector<AliveJob> alive = random_alive(rng, 80, 6);
    IncrementalOrders inc;
    expect_orders_match(inc, alive, "initial");
    ChurnCounts counts;
    for (int round = 0; round < 400; ++round) {
      churn_once(rng, round, alive, inc, counts);
      if (round % 25 == 0) {
        expect_orders_match(inc, alive, "round " + std::to_string(round));
        if (HasFatalFailure()) return;
      }
    }
    expect_orders_match(inc, alive, "final");
    EXPECT_GT(counts.stale_marks, 0);
  }
  // Schedule 2 queries neither order until after inserts, swap-removes
  // and SRPT drops, so the heap is first built from a churned set and
  // then maintained from there.
  {
    std::mt19937_64 rng(20261019);
    std::vector<AliveJob> alive = random_alive(rng, 80, 6);
    IncrementalOrders inc;
    ChurnCounts counts;
    int round = 0;
    for (; round < 60; ++round) churn_once(rng, round, alive, inc, counts);
    ASSERT_GT(counts.inserts, 0);
    ASSERT_GT(counts.removals, 0);
    ASSERT_GT(counts.drops, 0);
    ASSERT_TRUE(inc.srpt.stale());
    expect_orders_match(inc, alive, "first query after churn");
    if (HasFatalFailure()) return;
    for (; round < 300; ++round) {
      churn_once(rng, round, alive, inc, counts);
      if (round % 25 == 0) {
        expect_orders_match(inc, alive,
                            "lazy round " + std::to_string(round));
        if (HasFatalFailure()) return;
      }
    }
    expect_orders_match(inc, alive, "lazy final");
  }
}

// ---- The head: a proper subset of the alive set --------------------------
//
// Over more than 4·kHeadJobs alive jobs a narrow query gathers only the
// jobs whose key is below a sampled threshold T (the head); the rest form
// the tail. Each case drives one way across the head's boundary on
// 12000 jobs and checks the prefixes against refimpl:: and the audit
// (head iff key below T) after every step.

constexpr std::size_t kHeadCaseJobs = 12000;

/// n jobs of distinct remaining work in [1, 1000), ids shuffled, releases
/// from a handful of values.
AliveSet head_case_set(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> work(1.0, 1000.0);
  std::vector<JobId> ids(n);
  std::iota(ids.begin(), ids.end(), JobId{0});
  std::shuffle(ids.begin(), ids.end(), rng);
  AliveSet set;
  set.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Job j;
    j.id = ids[i];
    j.release = static_cast<double>(rng() % 4);
    j.size = work(rng);
    set.append(j, static_cast<std::int64_t>(i));
  }
  return set;
}

/// The SRPT k-prefix (a cold query) equals refimpl's, and the heap
/// passes its audit.
void expect_srpt_prefix(IncrementalOrders& inc, const AliveSet& set,
                        std::size_t k, const std::string& what) {
  std::vector<std::size_t> ref;
  refimpl::smallest_remaining(set.view(), k, ref);
  inc.begin_decision();
  const auto got = inc.srpt.prefix(set.view(), k);
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got[i], ref[i]) << what << " k=" << k << " @" << i;
  }
  inc.srpt.audit(set.view());
}

/// Admit `j` to the set and the heap, as the engine does.
void admit(IncrementalOrders& inc, AliveSet& set, const Job& j) {
  inc.reserve(set.size() + 1);
  set.append(j, static_cast<std::int64_t>(set.size()));
  inc.srpt.insert(set.view(), set.size() - 1);
}

/// Complete alive job i: the engine's swap-remove, mirrored.
void complete(IncrementalOrders& inc, AliveSet& set, std::size_t i) {
  const std::size_t last = set.size() - 1;
  inc.srpt.remove_swap(i, last);
  if (i != last) set.relocate(last, i);
  set.resize(last);
}

/// Index of the job with the most remaining work: in the tail whenever
/// the head is a proper subset.
std::size_t largest_remaining(const AliveSet& set) {
  return static_cast<std::size_t>(
      std::max_element(set.remaining.begin(), set.remaining.end()) -
      set.remaining.begin());
}

TEST(IncrementalHead, NarrowQueryGathersAProperSubset) {
  std::mt19937_64 rng(31);
  const AliveSet set = head_case_set(rng, kHeadCaseJobs);
  IncrementalOrders inc;
  expect_srpt_prefix(inc, set, 16, "first query");
  EXPECT_GE(inc.srpt.head_size(), 16u);
  EXPECT_LT(inc.srpt.head_size(), kHeadCaseJobs / 2);
  // At most four heads' worth of jobs, the head is the whole set.
  const AliveSet small = head_case_set(rng, 4 * OrderHeap::kHeadJobs);
  IncrementalOrders whole;
  expect_srpt_prefix(whole, small, 16, "small set");
  EXPECT_EQ(whole.srpt.head_size(), small.size());
}

TEST(IncrementalHead, RefreshMovesATailJobIntoTheHead) {
  std::mt19937_64 rng(32);
  AliveSet set = head_case_set(rng, kHeadCaseJobs);
  IncrementalOrders inc;
  expect_srpt_prefix(inc, set, 16, "first query");
  const std::size_t head = inc.srpt.head_size();
  const std::size_t i = largest_remaining(set);
  set.set_remaining(i, 0.5);  // now the least remaining work of all
  inc.srpt.refresh(set.view(), i);
  EXPECT_EQ(inc.srpt.head_size(), head + 1);
  expect_srpt_prefix(inc, set, 16, "after the refresh");
  EXPECT_EQ(inc.srpt.prefix(set.view(), 1)[0], i);
  // A head job whose key drops stays in the head.
  const std::size_t h = inc.srpt.prefix(set.view(), 16)[15];
  set.set_remaining(h, 0.25);
  inc.srpt.refresh(set.view(), h);
  EXPECT_EQ(inc.srpt.head_size(), head + 1);
  expect_srpt_prefix(inc, set, 16, "after a head refresh");
}

TEST(IncrementalHead, AdmissionsBelowAndAboveTheThreshold) {
  std::mt19937_64 rng(33);
  AliveSet set = head_case_set(rng, kHeadCaseJobs);
  IncrementalOrders inc;
  expect_srpt_prefix(inc, set, 16, "first query");
  const std::size_t head = inc.srpt.head_size();
  Job below;
  below.id = 1'000'000;
  below.release = 5.0;
  below.size = 0.75;
  admit(inc, set, below);
  EXPECT_EQ(inc.srpt.head_size(), head + 1);
  expect_srpt_prefix(inc, set, 16, "after an admission below T");
  Job above = below;
  above.id = 1'000'001;
  above.size = 2000.0;
  admit(inc, set, above);
  EXPECT_EQ(inc.srpt.head_size(), head + 1);
  expect_srpt_prefix(inc, set, 16, "after an admission above T");
  expect_srpt_prefix(inc, set, set.size(), "full order");
}

TEST(IncrementalHead, CompletionsDrainTheHeadUntilAQueryRebuildsIt) {
  std::mt19937_64 rng(34);
  AliveSet set = head_case_set(rng, kHeadCaseJobs);
  IncrementalOrders inc;
  expect_srpt_prefix(inc, set, 16, "first query");
  // Complete the 16 least-remaining jobs at a time, highest index first
  // (each swap-remove then moves a job that is not completed yet).
  bool rebuilt = false;
  for (int round = 0; round < 1000 && !rebuilt; ++round) {
    inc.begin_decision();
    const auto top = inc.srpt.prefix(set.view(), 16);
    std::vector<std::size_t> done(top.begin(), top.end());
    std::sort(done.rbegin(), done.rend());
    const std::size_t before = inc.srpt.head_size();
    for (const std::size_t i : done) complete(inc, set, i);
    ASSERT_EQ(inc.srpt.head_size(), before - 16);
    const bool short_head = inc.srpt.head_size() < 16;
    expect_srpt_prefix(inc, set, 16, "round " + std::to_string(round));
    if (HasFatalFailure()) return;
    rebuilt = short_head;
    if (rebuilt) {
      EXPECT_GE(inc.srpt.head_size(), 16u);
    }
  }
  EXPECT_TRUE(rebuilt);
}

TEST(IncrementalHead, FullOrderQueryAfterAPartialHead) {
  std::mt19937_64 rng(35);
  const AliveSet set = head_case_set(rng, kHeadCaseJobs);
  IncrementalOrders inc;
  expect_srpt_prefix(inc, set, 16, "first query");
  ASSERT_LT(inc.srpt.head_size(), set.size());
  // Within one decision: the wider query keeps the earlier prefix.
  const auto narrow = inc.srpt.prefix(set.view(), 16);
  const std::vector<std::size_t> kept(narrow.begin(), narrow.end());
  const auto full = inc.srpt.prefix(set.view(), set.size());
  EXPECT_EQ(inc.srpt.head_size(), set.size());
  std::vector<std::size_t> ref;
  refimpl::smallest_remaining(set.view(), set.size(), ref);
  ASSERT_EQ(full.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(full[i], ref[i]);
  for (std::size_t i = 0; i < kept.size(); ++i) EXPECT_EQ(narrow[i], kept[i]);
  inc.srpt.audit(set.view());
}

TEST(IncrementalHead, RemoveSwapWhoseBackJobIsInTheTail) {
  std::mt19937_64 rng(36);
  AliveSet set = head_case_set(rng, kHeadCaseJobs);
  // The two back jobs have more remaining work than any other: both are
  // in the tail.
  const std::size_t n = set.size();
  set.remaining[n - 2] = set.sizes[n - 2] = 5000.0;
  set.remaining[n - 1] = set.sizes[n - 1] = 5001.0;
  IncrementalOrders inc;
  expect_srpt_prefix(inc, set, 16, "first query");
  const std::size_t head = inc.srpt.head_size();
  // A head job leaves; the tail job at the back takes its index.
  const std::size_t i = inc.srpt.prefix(set.view(), 1)[0];
  complete(inc, set, i);
  EXPECT_EQ(inc.srpt.head_size(), head - 1);
  ASSERT_EQ(set.remaining[i], 5001.0);
  expect_srpt_prefix(inc, set, 16, "head job removed");
  // That tail job leaves, with the other tail job at the back.
  complete(inc, set, i);
  ASSERT_EQ(set.remaining[i], 5000.0);
  EXPECT_EQ(inc.srpt.head_size(), head - 1);
  expect_srpt_prefix(inc, set, 16, "tail job removed");
  // A tail job that is the back job itself.
  const std::size_t t = largest_remaining(set);
  const double back = set.remaining[set.size() - 1];
  set.set_remaining(set.size() - 1, set.remaining[t]);
  set.set_remaining(t, back);
  std::swap(set.sizes[t], set.sizes[set.size() - 1]);
  inc.srpt.mark_stale();  // the swap moved keys behind the heap's back
  expect_srpt_prefix(inc, set, 16, "regathered");
  const std::size_t head2 = inc.srpt.head_size();
  complete(inc, set, set.size() - 1);
  EXPECT_EQ(inc.srpt.head_size(), head2);
  expect_srpt_prefix(inc, set, 16, "back tail job removed");
}

TEST(IncrementalHead, RegatherLeavesStaleSlotsOfTailJobsUnread) {
  // A gather writes only the head's position-map entries. After a dense
  // step that reverses the order, the old head is in the tail, and each
  // of its jobs' entries still names the slot it held — a slot of the
  // new heap, holding another job. Such a job must read as tail: a
  // refresh that keeps it above T leaves the heap alone, its completion
  // deletes no head job, and a refresh below T moves it into the head.
  std::mt19937_64 rng(38);
  AliveSet set = head_case_set(rng, kHeadCaseJobs);
  IncrementalOrders inc;
  expect_srpt_prefix(inc, set, 16, "first query");
  const std::size_t old_head = inc.srpt.head_size();
  inc.begin_decision();
  const auto top = inc.srpt.prefix(set.view(), 3);
  const std::vector<std::size_t> old_top(top.begin(), top.end());
  for (std::size_t i = 0; i < set.size(); ++i) {
    set.remaining[i] = 2000.0 - set.remaining[i];
  }
  set.floors.known = false;
  inc.srpt.mark_stale();
  expect_srpt_prefix(inc, set, 16, "regathered after a dense step");
  const std::size_t head = inc.srpt.head_size();
  // The old root's slot 0 is the new root's, and the old top is now at
  // the far end of the order.
  ASSERT_GT(std::min(old_head, head), 16u);
  std::vector<std::size_t> ref;
  refimpl::smallest_remaining(set.view(), set.size(), ref);
  for (const std::size_t i : old_top) {
    ASSERT_GE(std::find(ref.begin(), ref.end(), i) - ref.begin(),
              static_cast<std::ptrdiff_t>(head));
  }
  // Still above T: nothing moves.
  set.set_remaining(old_top[0], set.remaining[old_top[0]] - 1e-3);
  inc.srpt.refresh(set.view(), old_top[0]);
  EXPECT_EQ(inc.srpt.head_size(), head);
  expect_srpt_prefix(inc, set, 16, "a stale-slot tail job refreshed");
  // Its completion removes no head job. Complete the higher index first,
  // so the second is not moved by the first.
  std::size_t a = old_top[1];
  std::size_t b = old_top[2];
  if (a < b) std::swap(a, b);
  complete(inc, set, a);
  EXPECT_EQ(inc.srpt.head_size(), head);
  expect_srpt_prefix(inc, set, 16, "a stale-slot tail job completed");
  // Below T: the old root joins the head, ahead of everyone (it sits at
  // index a if it was the back job the completion moved).
  const std::size_t j = old_top[0] == set.size() ? a : old_top[0];
  set.set_remaining(j, 0.125);
  inc.srpt.refresh(set.view(), j);
  EXPECT_EQ(inc.srpt.head_size(), head + 1);
  expect_srpt_prefix(inc, set, 16, "a stale-slot tail job moved in");
  EXPECT_EQ(inc.srpt.prefix(set.view(), 1)[0], j);
  complete(inc, set, b);
  expect_srpt_prefix(inc, set, 16, "a second one completed");
}

TEST(IncrementalHead, StaleAdmissionsAndCompletionsKeepTheMapInStep) {
  // While stale, the heap keeps one position-map entry per alive job:
  // the audit checks the length, stale or not, and the first gather
  // writes into the map admission grew.
  std::mt19937_64 rng(39);
  const AliveSet source = head_case_set(rng, kHeadCaseJobs);
  AliveSet set;
  IncrementalOrders inc;
  std::vector<AliveJob> records;
  source.materialize(records);
  for (std::size_t i = 0; i < records.size(); ++i) {
    Job j;
    j.id = records[i].id;
    j.release = records[i].release;
    j.size = records[i].remaining;
    admit(inc, set, j);
    if (i % 97 == 96) complete(inc, set, rng() % set.size());
    if (i % 1000 == 0) inc.srpt.audit(set.view());
  }
  ASSERT_TRUE(inc.srpt.stale());
  inc.srpt.audit(set.view());
  expect_srpt_prefix(inc, set, 16, "first query after stale churn");
  EXPECT_LT(inc.srpt.head_size(), set.size() / 2);
  // Stale again (a dense step), then churn: the map follows.
  inc.srpt.mark_stale();
  for (int k = 0; k < 50; ++k) complete(inc, set, rng() % set.size());
  Job late;
  late.id = 9'000'000;
  late.release = 7.0;
  late.size = 0.5;
  admit(inc, set, late);
  inc.srpt.audit(set.view());
  expect_srpt_prefix(inc, set, 16, "regathered after stale churn");
  EXPECT_EQ(inc.srpt.prefix(set.view(), 1)[0], set.size() - 1);
}

TEST(IncrementalHead, ARestoreSizesTheMapForTheFirstGather) {
  // A restore replaces the alive set under orders that indexed another
  // one: clear(n) leaves the heap stale with n map entries, and the first
  // gather over the restored set is exact.
  std::mt19937_64 rng(40);
  const AliveSet donor = head_case_set(rng, kHeadCaseJobs);
  IncrementalOrders inc;
  expect_srpt_prefix(inc, donor, 16, "donor query");
  (void)SchedulerContext(0.0, 1, donor.view(), inc).latest_arrivals(16);
  std::vector<AliveJob> records;
  donor.materialize(records);
  records.resize(kHeadCaseJobs - 1500);
  std::reverse(records.begin(), records.end());
  AliveSet restored;
  restored.assign(records);
  inc.reserve(restored.size());
  inc.clear(restored.size());
  ASSERT_TRUE(inc.srpt.stale());
  inc.srpt.audit(restored.view());
  expect_srpt_prefix(inc, restored, 16, "first query after the restore");
  EXPECT_LT(inc.srpt.head_size(), restored.size() / 2);
  expect_orders_match(inc, records, "every width after the restore");
}

// ---- Remaining-work floors: the gather skips far blocks ------------------
//
// A bounded SRPT gather reads one floor per 64 alive jobs instead of every
// key. Over 12000 jobs whose work grows with the index, most blocks are
// far from T; a job whose key drops must lower its block's floor, or the
// next gather misses it.

/// n jobs whose work grows with the index (job i: 1 + i, then shuffled
/// within each 64-job block), ids shuffled.
AliveSet rising_set(std::mt19937_64& rng, std::size_t n) {
  std::vector<JobId> ids(n);
  std::iota(ids.begin(), ids.end(), JobId{0});
  std::shuffle(ids.begin(), ids.end(), rng);
  AliveSet set;
  set.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    Job j;
    j.id = ids[i];
    j.release = static_cast<double>(rng() % 4);
    j.size =
        1.0 + static_cast<double>(i) + 0.5 * static_cast<double>(rng() % 64);
    set.append(j, static_cast<std::int64_t>(i));
  }
  return set;
}

TEST(IncrementalFloors, GathersSkipFarBlocksAndKeepEveryHeadExact) {
  std::mt19937_64 rng(37);
  AliveSet set = rising_set(rng, kHeadCaseJobs);
  IncrementalOrders inc;
  ASSERT_TRUE(set.floors.known);
  expect_srpt_prefix(inc, set, 16, "first query, floors from admission");
  ASSERT_LT(inc.srpt.head_size(), set.size() / 2);
  // A tiny job at the back, then a far-block job completes: the
  // swap-remove moves the tiny key into the far block.
  Job tiny;
  tiny.id = 5'000'000;
  tiny.release = 9.0;
  tiny.size = 0.5;
  admit(inc, set, tiny);
  const std::size_t far = set.size() - 700;
  ASSERT_GT(set.remaining[far], 1000.0);
  complete(inc, set, far);
  ASSERT_EQ(set.remaining[far], 0.5);
  inc.srpt.audit(set.view());
  inc.srpt.mark_stale();
  expect_srpt_prefix(inc, set, 16, "regathered after the move-in");
  EXPECT_EQ(inc.srpt.prefix(set.view(), 1)[0], far);
  // Sparse steps: a far job's key drops through set_remaining.
  const std::size_t far2 = set.size() - 3000;
  set.set_remaining(far2, 0.25);
  inc.srpt.refresh(set.view(), far2);
  inc.srpt.mark_stale();
  expect_srpt_prefix(inc, set, 16, "regathered after a sparse drop");
  EXPECT_EQ(inc.srpt.prefix(set.view(), 1)[0], far2);
  // A dense step: every key drops, the floors are unknown, and the next
  // gather rebuilds them in its scan.
  for (std::size_t i = 0; i < set.size(); ++i) {
    set.remaining[i] = set.remaining[i] * (i % 2 == 0 ? 0.5 : 0.9);
  }
  set.floors.known = false;
  inc.srpt.mark_stale();
  expect_srpt_prefix(inc, set, 16, "after a dense step");
  EXPECT_TRUE(set.floors.known);
  // A snapshot restore: assign() leaves the floors unknown.
  std::vector<AliveJob> records;
  set.materialize(records);
  AliveSet restored;
  restored.assign(records);
  EXPECT_FALSE(restored.floors.known);
  IncrementalOrders fresh;
  expect_srpt_prefix(fresh, restored, 16, "after a restore");
  EXPECT_TRUE(restored.floors.known);
  expect_srpt_prefix(fresh, restored, 2100, "a wider query regathers");
}

TEST(IncrementalFloors, EngineDriveAgreesWithAFullSortAtEveryDecision) {
  // ISRPT over 12000 jobs, audited (every known floor checked after each
  // step, visits lowering them), with every helper checked against
  // refimpl:: at every decision; the run is snapshotted and restored
  // halfway, which leaves the restored floors unknown.
  const AuditScope audit;
  std::vector<Job> jobs;
  std::mt19937_64 rng(41);
  for (std::size_t i = 0; i < kHeadCaseJobs; ++i) {
    Job j;
    j.id = static_cast<JobId>(i);
    j.release = i < 10000 ? 0.0 : 0.25 * static_cast<double>(i % 7);
    j.size = 0.05 + 0.001 * static_cast<double>(i) +
             0.01 * static_cast<double>(rng() % 8);
    jobs.push_back(j);
  }
  OracleScheduler sched(make_scheduler("isrpt"));
  Engine eng(16);
  eng.begin(sched);
  for (const Job& j : jobs) eng.admit(j);
  eng.advance_to(1.0);
  EXPECT_TRUE(sched.ok()) << sched.mismatch();
  const EngineState snap = eng.export_state();
  OracleScheduler cont_sched(make_scheduler("isrpt"));
  Engine cont(16);
  cont.import_state(snap, cont_sched);
  cont.advance_to(2.0);
  EXPECT_TRUE(cont_sched.ok()) << cont_sched.mismatch();
}

// ---- Tie-break pinning on the orders -------------------------------------
//
// The heap must realize SRPT's strict total order for equal keys at
// k == n (heap-copy sort) and at k < n/8 (heap traversal), and the
// per-decision sort the latest-arrival order at both widths.

std::vector<AliveJob> tie_heavy_alive() {
  // 24 jobs; indices 17, 9, 5 share the smallest remaining. 17 and 9
  // also share the release, so the id decides; 5 releases later and
  // loses to both despite the smallest id.
  std::vector<AliveJob> alive(24);
  for (std::size_t i = 0; i < alive.size(); ++i) {
    alive[i].id = static_cast<JobId>(100 + i);
    alive[i].remaining = 10.0 + static_cast<double>(i);
    alive[i].release = 0.0;
    alive[i].size = alive[i].remaining;
  }
  alive[17].remaining = 1.0;
  alive[17].release = 1.0;
  alive[17].id = 117;
  alive[9].remaining = 1.0;
  alive[9].release = 1.0;
  alive[9].id = 190;
  alive[5].remaining = 1.0;
  alive[5].release = 2.0;
  alive[5].id = 105;
  return alive;
}

/// The heap built over `alive` by a first query, so later churn is
/// upkeep on a fresh heap.
IncrementalOrders build_inc(const std::vector<AliveJob>& alive) {
  const AliveSet set = as_set(alive);
  IncrementalOrders inc;
  (void)inc.srpt.prefix(set.view(), 1);
  return inc;
}

TEST(IncrementalTieBreaks, SrptOrderPinnedAtFullAndSmallK) {
  const std::vector<AliveJob> alive = tie_heavy_alive();
  const std::vector<std::size_t> want_prefix = {17, 9, 5};
  const AliveSet set = as_set(alive);
  std::vector<std::size_t> full_ref;
  refimpl::smallest_remaining(set.view(), set.view().size(), full_ref);
  IncrementalOrders inc = build_inc(alive);
  // k = 3 <= 24/8 (heap traversal) and k = n (heap-copy full sort).
  for (const std::size_t k : {std::size_t{3}, alive.size()}) {
    inc.begin_decision();
    const auto got = inc.srpt.prefix(set.view(), k);
    ASSERT_EQ(got.size(), k);
    for (std::size_t i = 0; i < want_prefix.size(); ++i) {
      EXPECT_EQ(got[i], want_prefix[i]) << "k=" << k << " position " << i;
    }
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(got[i], full_ref[i]) << "refimpl k=" << k << " @" << i;
    }
  }
}

TEST(IncrementalTieBreaks, LatestOrderPinnedAtFullAndSmallK) {
  // Indices 11, 3, 4 share the latest release 9.0; ids 131 > 130 > 104
  // decide the order (descending).
  std::vector<AliveJob> alive(24);
  for (std::size_t i = 0; i < alive.size(); ++i) {
    alive[i].id = static_cast<JobId>(100 + i);
    alive[i].release = static_cast<double>(i % 7);
    alive[i].remaining = 1.0 + static_cast<double>(i);
    alive[i].size = alive[i].remaining;
  }
  alive[3].release = 9.0;
  alive[3].id = 130;
  alive[11].release = 9.0;
  alive[11].id = 131;
  alive[4].release = 9.0;
  alive[4].id = 104;
  const std::vector<std::size_t> want_prefix = {11, 3, 4};
  const AliveSet set = as_set(alive);
  std::vector<std::size_t> full_ref;
  refimpl::latest_arrivals(set.view(), set.view().size(), full_ref);
  IncrementalOrders inc;
  for (const std::size_t k : {std::size_t{3}, alive.size()}) {
    const SchedulerContext ctx(0.0, 1, set.view(), inc);
    const auto got = ctx.latest_arrivals(k);
    ASSERT_EQ(got.size(), k);
    for (std::size_t i = 0; i < want_prefix.size(); ++i) {
      EXPECT_EQ(got[i], want_prefix[i]) << "k=" << k << " position " << i;
    }
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(got[i], full_ref[i]) << "refimpl k=" << k << " @" << i;
    }
  }
}

TEST(IncrementalTieBreaks, TieOrderSurvivesChurn) {
  // After updates drive fresh ties into existence and removals shuffle
  // slots, the heap must still break ties exactly like refimpl.
  std::vector<AliveJob> alive = tie_heavy_alive();
  IncrementalOrders inc = build_inc(alive);
  // Tie three more jobs at remaining = 1.0 (equal release, id decides).
  for (const std::size_t i : {std::size_t{0}, std::size_t{12},
                              std::size_t{20}}) {
    alive[i].remaining = 1.0;
    inc.srpt.refresh(as_set(alive).view(), i);
  }
  // Remove one of the original tied jobs via the swap-remove mirror.
  const std::size_t last = alive.size() - 1;
  inc.srpt.remove_swap(9, last);
  alive[9] = alive[last];
  alive.pop_back();
  const AliveSet set = as_set(alive);
  std::vector<std::size_t> ref;
  refimpl::smallest_remaining(set.view(), set.view().size(), ref);
  inc.begin_decision();
  const auto got = inc.srpt.prefix(set.view(), alive.size());
  ASSERT_EQ(got.size(), alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    EXPECT_EQ(got[i], ref[i]) << "position " << i;
  }
  inc.srpt.audit(set.view());
}

// ---- The E1/E5 grids, phased jobs and direct helper checks -----------

// E1-style grid: fixed alpha = 0.5, critically loaded.
RandomWorkloadConfig e1_config(std::uint64_t seed) {
  RandomWorkloadConfig cfg;
  cfg.machines = 8;
  cfg.jobs = 120;
  cfg.P = 64.0;
  cfg.load = 1.0;
  cfg.alpha_lo = cfg.alpha_hi = 0.5;
  cfg.seed = seed;
  return cfg;
}

// E5-style grid: heterogeneous parallelizability (sequential, power-law
// across the alpha range, and fully parallel jobs mixed together).
RandomWorkloadConfig e5_config(std::uint64_t seed) {
  RandomWorkloadConfig cfg;
  cfg.machines = 8;
  cfg.jobs = 100;
  cfg.P = 32.0;
  cfg.load = 0.9;
  cfg.alpha_law = AlphaLaw::kMixed;
  cfg.alpha_lo = 0.1;
  cfg.alpha_hi = 0.95;
  cfg.seed = seed;
  return cfg;
}

TEST(ContextCacheDifferential, AllPoliciesBitIdenticalOnE1Grid) {
  for (const std::uint64_t seed : {1u, 7u}) {
    const Instance inst = make_random_instance(e1_config(seed));
    for (const char* policy : kAllPolicies) {
      expect_checked(inst, policy, "seed=" + std::to_string(seed) + " ");
    }
  }
}

TEST(ContextCacheDifferential, AllPoliciesBitIdenticalOnE5Grid) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const Instance inst = make_random_instance(e5_config(seed));
    for (const char* policy : kAllPolicies) {
      expect_checked(inst, policy, "seed=" + std::to_string(seed) + " ");
    }
  }
}

// Both ways of driving the engine — the batch run() loop and the
// incremental admission sweep serve/ uses — on both experiment grids:
// for every policy the streamed run passes the oracle and equals the
// batch run double for double.
TEST(ContextCacheDifferential, IncrementalSweepAllArmsAgreeOnBothGrids) {
  for (const bool on_e1 : {true, false}) {
    const Instance inst = on_e1 ? make_random_instance(e1_config(21))
                                : make_random_instance(e5_config(22));
    for (const char* policy : kAllPolicies) {
      const std::string what = std::string(on_e1 ? "E1 " : "E5 ") + policy;
      const CheckedRun streamed = run_streamed(inst, policy);
      EXPECT_TRUE(streamed.mismatch.empty()) << what << ": "
                                             << streamed.mismatch;
      const std::string diff = compare_runs(streamed, run_plain(inst, policy));
      EXPECT_TRUE(diff.empty()) << what << " streamed vs batch: " << diff;
    }
  }
}

// The serve/-facing streaming path runs the same decision_step; the
// streamed run must equal the oracle-checked batch run.
TEST(ContextCacheDifferential, StreamingMatchesUncachedBatch) {
  const Instance inst = make_random_instance(e1_config(5));
  for (const char* policy : {"isrpt", "laps:0.5", "quantized-equi:0.5"}) {
    const CheckedRun batch = expect_checked(inst, policy);
    const CheckedRun streamed = run_streamed(inst, policy);
    EXPECT_TRUE(streamed.mismatch.empty()) << policy << ": "
                                           << streamed.mismatch;
    const std::string diff = compare_runs(streamed, batch);
    EXPECT_TRUE(diff.empty()) << policy << " streamed vs batch: " << diff;
  }
}

// Multi-phase jobs change curves mid-run (and exercise the phase-advance
// path next to the completion detection); the helpers must not notice.
TEST(ContextCacheDifferential, PhasedJobsBitIdentical) {
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(make_phased_job(
        i, 0.25 * i,
        {{1.0 + 0.1 * i, SpeedupCurve::power_law(0.3)},
         {0.5, SpeedupCurve::power_law(0.9)},
         {0.25, SpeedupCurve::sequential()}}));
  }
  const Instance inst(4, jobs);
  for (const char* policy : {"isrpt", "equi", "greedy"}) {
    expect_checked(inst, policy, "phased ");
  }
}

// ---- Direct helper-vs-refimpl comparisons ------------------------------

void expect_span_eq(std::span<const std::size_t> got,
                    const std::vector<std::size_t>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << " position " << i;
  }
}

TEST(ContextCacheHelpers, AllHelpersMatchRefimplAcrossKs) {
  std::mt19937_64 rng(1234);
  std::vector<std::size_t> ref;
  // The last set is above 4·kHeadJobs: its narrow SRPT queries gather a
  // proper head, and its latest-arrival queries run from a quarter of the
  // set (LAPS's widths) down to one job.
  constexpr std::size_t kLarge = 20'000;
  static_assert(kLarge > 4 * OrderHeap::kHeadJobs);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{40},
                              std::size_t{200}, kLarge}) {
    const AliveSet set = as_set(random_alive(rng, n, 5));
    const std::vector<std::size_t> ks =
        n == kLarge ? std::vector<std::size_t>{1, n / 32, n / 4, n}
                    : std::vector<std::size_t>{0,     1,     2,
                                               3,     n / 8, n / 2,
                                               n ? n - 1 : 0, n, n + 10};
    for (const std::size_t k : ks) {
      // Fresh orders per query so each k takes its cold path (heap
      // traversal for k below the head, sorted key copy for the whole
      // head; one partial sort of the latest-arrival order).
      IncrementalOrders orders;
      const SchedulerContext ctx(0.0, 4, set.view(), orders);
      const std::string what =
          "n=" + std::to_string(n) + " k=" + std::to_string(k);
      refimpl::smallest_remaining(set.view(), k, ref);
      expect_span_eq(ctx.smallest_remaining(k), ref,
                     "smallest_remaining " + what);
      refimpl::latest_arrivals(set.view(), k, ref);
      expect_span_eq(ctx.latest_arrivals(k), ref, "latest_arrivals " + what);
    }
    IncrementalOrders orders;
    const SchedulerContext ctx(0.0, 4, set.view(), orders);
    EXPECT_EQ(ctx.min_remaining(), refimpl::min_remaining(set.view()));
    // The same widths within one decision, narrowest first: each wider
    // query sorts on from where the last one stopped.
    for (const std::size_t k : ks) {
      const std::string what =
          "n=" + std::to_string(n) + " widening k=" + std::to_string(k);
      refimpl::smallest_remaining(set.view(), k, ref);
      expect_span_eq(ctx.smallest_remaining(k), ref,
                     "smallest_remaining " + what);
      refimpl::latest_arrivals(set.view(), k, ref);
      expect_span_eq(ctx.latest_arrivals(k), ref, "latest_arrivals " + what);
    }
  }
}

// Widening queries within one decision must extend the memo without
// changing previously returned prefixes: every span handed out earlier
// still reads the same entries after the wider (and finally full)
// queries rewrote the buffer behind it.
TEST(ContextCacheHelpers, PrefixUpgradesPreserveEarlierAnswers) {
  std::mt19937_64 rng(99);
  const std::size_t n = 160;
  const AliveSet set = as_set(random_alive(rng, n, 5));
  std::vector<std::size_t> ref;
  refimpl::smallest_remaining(set.view(), set.view().size(), ref);
  std::vector<std::size_t> lref;
  refimpl::latest_arrivals(set.view(), set.view().size(), lref);

  IncrementalOrders orders;
  const SchedulerContext ctx(0.0, 4, set.view(), orders);
  EXPECT_EQ(ctx.min_remaining(), ref[0]);
  std::vector<std::span<const std::size_t>> earlier;
  for (const std::size_t k : {std::size_t{2}, std::size_t{10},
                              std::size_t{n / 2}, std::size_t{5}, n}) {
    earlier.push_back(ctx.smallest_remaining(k));
    ASSERT_EQ(earlier.back().size(), std::min(k, n));
  }
  for (const auto span : earlier) {
    for (std::size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(span[i], ref[i]) << "k=" << span.size() << " position " << i;
    }
  }
  EXPECT_EQ(ctx.min_remaining(), ref[0]);

  // Same for the latest-arrival family.
  earlier.clear();
  for (const std::size_t k : {std::size_t{3}, std::size_t{40}, n}) {
    earlier.push_back(ctx.latest_arrivals(k));
    ASSERT_EQ(earlier.back().size(), std::min(k, n));
  }
  for (const auto span : earlier) {
    for (std::size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(span[i], lref[i])
          << "latest k=" << span.size() << " position " << i;
    }
  }
}

// ---- Tie-break pinning --------------------------------------------------
//
// The k-bounded selections are only interchangeable with the full sorts
// because the comparators are strict *total* orders: remaining ties break
// by release, then by id (SRPT), and release ties break by id descending
// (latest-arrival). Pin those orders on hand-built sets where every
// tie-break level is exercised, at several k.

TEST(ContextCacheTieBreaks, SmallestRemainingPinsSrptOrder) {
  const AliveSet set = as_set(tie_heavy_alive());
  const std::vector<std::size_t> want = {17, 9, 5};  // (rem, release, id) asc
  // Both k must agree with refimpl and start with the pinned prefix.
  std::vector<std::size_t> ref;
  for (const std::size_t k : {std::size_t{3}, std::size_t{5}}) {
    IncrementalOrders orders;
    const SchedulerContext ctx(0.0, 4, set.view(), orders);
    const auto got = ctx.smallest_remaining(k);
    ASSERT_EQ(got.size(), k);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "k=" << k << " position " << i;
    }
    refimpl::smallest_remaining(set.view(), k, ref);
    expect_span_eq(got, ref, "refimpl agreement k=" + std::to_string(k));
  }
}

TEST(ContextCacheTieBreaks, LatestArrivalsPinsReleaseIdDescOrder) {
  // Indices 11, 3, 4 share the latest release 9; ids 131 > 130 > 104
  // decide the order among them (descending).
  std::vector<AliveJob> alive(24);
  for (std::size_t i = 0; i < alive.size(); ++i) {
    alive[i].id = static_cast<JobId>(100 + i);
    alive[i].release = static_cast<double>(i % 7);
    alive[i].remaining = 1.0 + static_cast<double>(i);
    alive[i].size = alive[i].remaining;
  }
  alive[3].release = 9.0;
  alive[3].id = 130;
  alive[11].release = 9.0;
  alive[11].id = 131;
  alive[4].release = 9.0;
  alive[4].id = 104;
  const AliveSet set = as_set(alive);
  const std::vector<std::size_t> want = {11, 3, 4};
  std::vector<std::size_t> ref;
  for (const std::size_t k : {std::size_t{2}, std::size_t{3},
                              std::size_t{6}}) {
    IncrementalOrders orders;
    const SchedulerContext ctx(0.0, 4, set.view(), orders);
    const auto got = ctx.latest_arrivals(k);
    ASSERT_EQ(got.size(), k);
    for (std::size_t i = 0; i < std::min(k, want.size()); ++i) {
      EXPECT_EQ(got[i], want[i]) << "k=" << k << " position " << i;
    }
    refimpl::latest_arrivals(set.view(), k, ref);
    expect_span_eq(got, ref, "refimpl agreement k=" + std::to_string(k));
  }
}

}  // namespace
}  // namespace parsched
