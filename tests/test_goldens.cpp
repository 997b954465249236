// Bit-identity goldens for the engine's decision step.
//
// tests/golden/engine_bits.txt pins, as hex floats, every double of the
// SimResult (total, weighted and fractional flow, makespan, and each
// completion record folded into an FNV-1a digest), the decision and
// event counts, and a check::TrajectoryHasher digest of every observer
// callback (decision times, alive remaining work, shares). It covers
// every registry policy family on the E1 and E5 grids, on multi-phase
// jobs and on the completion-tolerance corpus, plus dense-step corpora
// of ~10^3 alive jobs (see "Dense decision steps" below), uniform
// decisions at their edges (see "Uniform decisions"), sparse steps
// over idle gaps of thousands of jobs (the "idle." corpus) and the sweep
// of a batch release's unswept tail (the "tail." corpus). A change to
// the decision step that claims to be bit-identical must reproduce the
// file exactly.
//
// Each line is `key decisions events total_flow weighted_flow
// fractional_flow makespan records_fnv trajectory_fnv`, or `key throws
// <message>` for a run whose allocation the engine rejects. A run cut by
// a snapshot also pins `key.psnp <fnv>`, the FNV-1a of the snapshot's
// PSNP bytes (serve::encode_snapshot). Running an
// EngineGoldens test with PARSCHED_WRITE_GOLDENS=<path> writes the whole
// file to <path> instead of comparing; regenerate it only for a change
// that declares a semantic difference.
//
// The named edge cases below pin the first-visit semantics of the
// advance sweep: a job is checked for phase advance and completion at
// the first step after its admission even when it holds no share, and a
// snapshot taken while a decision is deferred resumes bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/contract.hpp"
#include "check/determinism.hpp"
#include "sched/registry.hpp"
#include "serve/snapshot.hpp"
#include "simcore/engine.hpp"
#include "simcore/trajectory.hpp"
#include "util/env.hpp"
#include "util/fsio.hpp"
#include "workload/adversary.hpp"
#include "workload/phased.hpp"
#include "workload/random.hpp"

#ifndef PARSCHED_GOLDEN_DIR
#error "PARSCHED_GOLDEN_DIR must name the directory holding engine_bits.txt"
#endif

namespace parsched {
namespace {

const char* const kAllPolicies[] = {
    "isrpt",         "seq-srpt",        "par-srpt",
    "greedy",        "equi",            "isrpt-boost",
    "mlf",           "wisrpt",          "laps:0.25",
    "laps:0.5",      "oldest-equi:0.5", "setf:0.2",
    "isrpt-thresh:2.0", "quantized-equi:0.5",
};

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

std::string hexd(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string hexu(std::uint64_t x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, x);
  return buf;
}

/// FNV-1a over each completion record's id and completion time, in
/// completion order.
std::uint64_t records_digest(const SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const JobRecord& rec : r.records) {
    mix(static_cast<std::uint64_t>(rec.job.id));
    mix(bits(rec.completion));
  }
  return h;
}

/// One golden line's payload: decisions events total_flow weighted_flow
/// fractional_flow makespan records_digest trajectory_digest.
std::string fingerprint(const SimResult& r, std::uint64_t trajectory) {
  std::ostringstream os;
  os << r.decisions << ' ' << r.events << ' ' << hexd(r.total_flow) << ' '
     << hexd(r.weighted_flow) << ' ' << hexd(r.fractional_flow) << ' '
     << hexd(r.makespan) << ' ' << hexu(records_digest(r)) << ' '
     << hexu(trajectory);
  return os.str();
}

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

RandomWorkloadConfig e5_config(std::uint64_t seed) {
  RandomWorkloadConfig cfg;
  cfg.machines = 8;
  cfg.jobs = 100;
  cfg.P = 32.0;
  cfg.load = 0.9;
  cfg.alpha_law = AlphaLaw::kMixed;
  cfg.alpha_lo = 0.1;
  cfg.alpha_hi = 0.95;
  cfg.weight_law = WeightLaw::kUniform;
  cfg.seed = seed;
  return cfg;
}

Instance hand_phased_instance() {
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(make_phased_job(
        i, 0.25 * i,
        {{1.0 + 0.1 * i, SpeedupCurve::power_law(0.3)},
         {0.5, SpeedupCurve::power_law(0.9)},
         {0.25, SpeedupCurve::sequential()}}));
  }
  return Instance(4, jobs);
}

Instance generated_phased_instance() {
  PhasedWorkloadConfig cfg;
  cfg.machines = 8;
  cfg.jobs = 60;
  cfg.seed = 5;
  return make_phased_instance(cfg);
}

/// The IncrementalSeedCorpus.CompletionToleranceEdgeSizes shape: every
/// fourth job's whole work sits inside completion_tol.
Instance tolerance_corpus_instance() {
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
  return Instance(4, jobs);
}

// ---- Dense decision steps -------------------------------------------------
//
// Corpora whose decisions cover ~10^3 alive jobs with a dense support (an
// allocation's range [0, n)), so the rates pass and the advance sweep run
// over many full and partial blocks of jobs: EQUI at sizes that leave
// partial blocks, over mixed curve kinds and over multi-phase jobs; LAPS,
// whose support is widened to the dense range with zero shares inside it;
// and a policy that alternates dense and sparse decisions.

/// Job i of a dense corpus: released at t = 0, except every 16th job,
/// which arrives later (so steps also visit an unswept admission tail);
/// size in [1, 9) from the fractional part of i times the golden ratio.
Job dense_job(std::size_t i, SpeedupCurve curve) {
  Job j;
  j.id = static_cast<JobId>(i);
  j.release = i % 16 == 15 ? 0.05 * static_cast<double>(i / 16) : 0.0;
  const double g = static_cast<double>(i) * 0.6180339887498949;
  j.size = 1.0 + 8.0 * (g - std::floor(g));
  j.curve = curve;
  return j;
}

Instance dense_instance(std::size_t n, int machines) {
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(dense_job(i, SpeedupCurve::power_law(0.5)));
  }
  return Instance(machines, jobs);
}

/// Every curve kind, on m = 256: EQUI's share m/n exceeds 1 once fewer
/// than 256 jobs are alive, so the power-law and piecewise-linear jobs
/// then take the kernel's pow and knot-vector arms.
Instance dense_mixed_curve_instance() {
  const SpeedupCurve curves[] = {
      SpeedupCurve::fully_parallel(), SpeedupCurve::sequential(),
      SpeedupCurve::power_law(0.3), SpeedupCurve::power_law(0.75),
      SpeedupCurve::piecewise_linear({{2.0, 1.8}, {8.0, 4.0}})};
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < 1023; ++i) {
    jobs.push_back(dense_job(i, curves[i % 5]));
  }
  return Instance(256, jobs);
}

/// Three-phase jobs of varied phase work: under EQUI, phases end at
/// scattered positions inside the sweep's blocks.
Instance dense_phased_instance() {
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < 1100; ++i) {
    const Job base = dense_job(i, SpeedupCurve::power_law(0.5));
    jobs.push_back(make_phased_job(
        base.id, base.release,
        {{0.25 * base.size, SpeedupCurve::power_law(0.3)},
         {0.5 + 0.125 * static_cast<double>(i % 7),
          SpeedupCurve::sequential()},
         {0.5 * base.size, SpeedupCurve::power_law(0.9)}}));
  }
  return Instance(16, jobs);
}

/// Alternates a dense decision (equipartition through fill) with a
/// sparse one (one machine each to m jobs spread over the alive set) by
/// the parity of the alive count. A sparse step after a dense one reads
/// the idle jobs' flow quotients, which the dense step last touched.
class FillGrantAlternating final : public Scheduler {
 public:
  using Scheduler::allocate;
  [[nodiscard]] std::string name() const override { return "fill-grant"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    const std::size_t n = ctx.alive().size();
    const auto m = static_cast<std::size_t>(ctx.machines());
    if (n % 2 == 0 || n < 8 * m) {
      out.fill(n, static_cast<double>(m) / static_cast<double>(n));
      return;
    }
    out.reset(n);
    for (std::size_t k = 0; k < m; ++k) out.grant(k * n / m + k % 3, 1.0);
  }
};

/// ISRPT's shares, granted on top of fill(n, 0.0) — a dense allocation —
/// when the alive count is a multiple of 3. Such a dense step leaves
/// every idle job's remaining work as it was but not its flow quotient,
/// which the next sparse step rebuilds.
class IsrptDenseEveryThird final : public Scheduler {
 public:
  using Scheduler::allocate;
  IsrptDenseEveryThird() { grants_.reserve(64); }
  [[nodiscard]] std::string name() const override { return "isrpt-dense:3"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    isrpt_->allocate(ctx, out);
    const std::size_t n = ctx.alive().size();
    if (n % 3 != 0) return;
    grants_.clear();
    for (const std::size_t i : out.support()) {
      grants_.emplace_back(i, out.shares()[i]);
    }
    out.fill(n, 0.0);
    for (const auto& [i, s] : grants_) out.grant(i, s);
  }

 private:
  std::unique_ptr<Scheduler> isrpt_ = make_scheduler("isrpt");
  std::vector<std::pair<std::size_t, double>> grants_;
};

/// EQUI before t = 0.5, where the release corpora release their batch,
/// and ISRPT from then on: the step that ends at the release is dense, so
/// the first sparse step after it rebuilds the flow quotients of the jobs
/// swept before the release.
class EquiThenIsrpt final : public Scheduler {
 public:
  using Scheduler::allocate;
  [[nodiscard]] std::string name() const override {
    return "equi-then-isrpt";
  }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    (ctx.time() < 0.5 ? equi_ : isrpt_)->allocate(ctx, out);
  }

 private:
  std::unique_ptr<Scheduler> equi_ = make_scheduler("equi");
  std::unique_ptr<Scheduler> isrpt_ = make_scheduler("isrpt");
};

// ---- Uniform decisions ----------------------------------------------------
//
// Test policies that start every decision with Allocation::fill(n, s), so
// each one is uniform: every alive job holds the same share s. They pin
// the edges of a uniform share — zero of either sign, a Σ right at the
// overcommit limit, an overcommit, NaN and negative shares — with
// allocation validation on (the error) and off (the bits).

/// Equipartition, m/n to each of n jobs.
void fill_equi(const SchedulerContext& ctx, Allocation& out) {
  const std::size_t n = ctx.alive().size();
  out.fill(n, static_cast<double>(ctx.machines()) / static_cast<double>(n));
}

/// Alternates a fill of `zero` (+0.0 or -0.0) that asks to be
/// reconsidered 0.125 later with an equipartition.
class ZeroFillAlternating final : public Scheduler {
 public:
  using Scheduler::allocate;
  explicit ZeroFillAlternating(double zero) : zero_(zero) {}
  [[nodiscard]] std::string name() const override {
    return std::signbit(zero_) ? "zero-fill:-0" : "zero-fill:+0";
  }
  void reset() override { idle_ = false; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    idle_ = !idle_;
    if (!idle_) return fill_equi(ctx, out);
    out.fill(ctx.alive().size(), zero_);
    out.reconsider_at = ctx.time() + 0.125;
  }

 private:
  double zero_;
  bool idle_ = false;
};

/// The engine's overcommit limit for m machines.
double overcommit_limit(int machines) {
  return static_cast<double>(machines) * (1.0 + 1e-9) + 1e-9;
}

/// Σ of n copies of s, added in index order (the engine's serial sum).
double serial_sum(std::size_t n, double s) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += s;
  return sum;
}

/// The largest share s whose serial n-fold sum is within `limit`. n·s is
/// then too close to the limit for a forward error bound such as
/// fl(n·s)·(1 + 4n·2^-53) to certify the sum: only its exact value
/// decides.
double largest_share_within(double limit, std::size_t n) {
  // serial_sum is nondecreasing in s, so bisect over the bit patterns
  // of the positive doubles in [lo, hi]: lo passes, hi fails (the
  // relative error of the sum stays below 1e-8 for n < 2^26).
  std::uint64_t lo = bits(limit / static_cast<double>(n) * (1.0 - 1e-8));
  std::uint64_t hi = bits(limit / static_cast<double>(n) * (1.0 + 1e-8));
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (serial_sum(n, std::bit_cast<double>(mid)) <= limit ? lo : hi) = mid;
  }
  const double s = std::bit_cast<double>(lo);
  const double nd = static_cast<double>(n);
  EXPECT_LE(serial_sum(n, s), limit);
  EXPECT_GT(serial_sum(n, std::nextafter(s, kInf)), limit);
  EXPECT_GT(nd * s * (1.0 + nd * 0x1p-51), limit) << "n = " << n;
  return s;
}

/// Once more than m jobs are alive, the largest share whose Σ is within
/// the overcommit limit (largest_share_within). Equipartition otherwise.
class FillAtLimit final : public Scheduler {
 public:
  using Scheduler::allocate;
  [[nodiscard]] std::string name() const override { return "fill-at-limit"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    const std::size_t n = ctx.alive().size();
    if (n <= static_cast<std::size_t>(ctx.machines())) {
      return fill_equi(ctx, out);
    }
    out.fill(n, largest_share_within(overcommit_limit(ctx.machines()), n));
  }
};

/// For a run of millions of jobs that ends after one or two decisions:
/// the first decision fills the largest share whose Σ is within the
/// overcommit limit (`past` = false) or the next double above it (`past`
/// = true, which the validation rejects), and asks to be reconsidered
/// 0.125 later; the second fills NaN, which ends the run with the other
/// error. So the pinned message tells which of the two Σ checks failed.
class FillNearLimitOnce final : public Scheduler {
 public:
  using Scheduler::allocate;
  explicit FillNearLimitOnce(bool past) : past_(past) {}
  [[nodiscard]] std::string name() const override {
    return past_ ? "fill-past-limit" : "fill-at-limit-then-nan";
  }
  void reset() override { decisions_ = 0; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    const std::size_t n = ctx.alive().size();
    if (++decisions_ > 1) return out.fill(n, std::nan(""));
    const double s =
        largest_share_within(overcommit_limit(ctx.machines()), n);
    out.fill(n, past_ ? std::nextafter(s, kInf) : s);
    out.reconsider_at = ctx.time() + 0.125;
  }

 private:
  bool past_;
  int decisions_ = 0;
};

/// Equipartition, except that the third decision fills `share(m, n)`
/// and asks to be reconsidered 0.125 later (so a run that does not
/// validate allocations goes on past it).
class FillOnThirdDecision final : public Scheduler {
 public:
  using Scheduler::allocate;
  using Share = double (*)(int machines, std::size_t n);
  FillOnThirdDecision(std::string name, Share share)
      : name_(std::move(name)), share_(share) {}
  [[nodiscard]] std::string name() const override { return name_; }
  void reset() override { decisions_ = 0; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    if (++decisions_ != 3) return fill_equi(ctx, out);
    const std::size_t n = ctx.alive().size();
    out.fill(n, share_(ctx.machines(), n));
    out.reconsider_at = ctx.time() + 0.125;
  }

 private:
  std::string name_;
  Share share_;
  int decisions_ = 0;
};

std::unique_ptr<Scheduler> make_policy(const std::string& name) {
  if (name == "fill-grant") return std::make_unique<FillGrantAlternating>();
  if (name == "isrpt-dense:3") return std::make_unique<IsrptDenseEveryThird>();
  if (name == "equi-then-isrpt") return std::make_unique<EquiThenIsrpt>();
  if (name == "zero-fill:+0") return std::make_unique<ZeroFillAlternating>(0.0);
  if (name == "zero-fill:-0") {
    return std::make_unique<ZeroFillAlternating>(-0.0);
  }
  if (name == "fill-at-limit") return std::make_unique<FillAtLimit>();
  if (name == "fill-at-limit-then-nan") {
    return std::make_unique<FillNearLimitOnce>(false);
  }
  if (name == "fill-past-limit") return std::make_unique<FillNearLimitOnce>(true);
  if (name == "fill-over") {
    // 1.5·m/n: a Σ of 1.5·m.
    return std::make_unique<FillOnThirdDecision>(
        name, [](int m, std::size_t n) {
          return 1.5 * static_cast<double>(m) / static_cast<double>(n);
        });
  }
  if (name == "fill-nan") {
    return std::make_unique<FillOnThirdDecision>(
        name, [](int, std::size_t) { return std::nan(""); });
  }
  if (name == "fill-neg") {
    return std::make_unique<FillOnThirdDecision>(
        name, [](int m, std::size_t n) {
          return -0.25 * static_cast<double>(m) / static_cast<double>(n);
        });
  }
  return make_scheduler(name);
}

struct Corpus {
  std::string name;
  Instance inst;
  double speed;
  /// The policies run on this corpus; empty means every kAllPolicies one.
  std::vector<std::string> policies = {};
  /// When positive: run streamed, snapshot the engine (export_state) at
  /// this frontier while a decision is deferred, and pin the run of a
  /// second engine restored from it (import_state) to completion.
  double snapshot_at = 0.0;
  /// EngineConfig::validate_allocations.
  bool validate = true;
};

/// n jobs on `machines` machines, all released at t = 0, cycling through
/// every curve kind: EQUI's share is m/n, exactly 1 when n = m.
Instance batch_instance(std::size_t n, int machines) {
  const SpeedupCurve curves[] = {
      SpeedupCurve::fully_parallel(), SpeedupCurve::sequential(),
      SpeedupCurve::power_law(0.5),
      SpeedupCurve::piecewise_linear({{2.0, 1.5}, {4.0, 2.0}})};
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    Job j = dense_job(i, curves[i % 4]);
    j.release = 0.0;
    jobs.push_back(j);
  }
  return Instance(machines, jobs);
}

/// dense_instance(1023, 16) plus pairs of three-phase jobs released at
/// t = 2 and t = 20: each pair arrives after many decisions over
/// single-phase jobs only, and the first pair completes before the
/// second arrives.
Instance late_phased_instance() {
  std::vector<Job> jobs = dense_instance(1023, 16).jobs();
  for (std::size_t k = 0; k < 4; ++k) {
    const double w = 0.03 + 0.01 * static_cast<double>(k % 2);
    jobs.push_back(make_phased_job(
        static_cast<JobId>(1023 + k), k < 2 ? 2.0 : 20.0,
        {{w, SpeedupCurve::power_law(0.3)},
         {0.04, SpeedupCurve::sequential()},
         {w, SpeedupCurve::power_law(0.9)}}));
  }
  return Instance(16, jobs);
}

/// `front` jobs released at t = 0 (dense_job sizes), then a batch of
/// `batch` jobs released together at t = 0.5, so the first sweep after
/// the release visits a `batch`-job unswept tail. In the batch, every
/// 97th job is short (ISRPT runs it while it is still in the tail, so
/// the support sits at scattered positions of the tail), every 131st
/// has three phases, the first within completion_tol, and every 173rd
/// has all of its work within completion_tol.
Instance tail_instance(std::size_t front, std::size_t batch, int machines) {
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < front + batch; ++i) {
    Job j = dense_job(i, SpeedupCurve::power_law(0.5));
    j.release = 0.0;
    if (i >= front) {
      const std::size_t k = i - front;
      j.release = 0.5;
      if (k % 173 == 100) {
        j.size = 5e-10;
      } else if (k % 131 == 60) {
        j = make_phased_job(j.id, j.release,
                            {{5e-10, SpeedupCurve::power_law(0.3)},
                             {0.25, SpeedupCurve::sequential()},
                             {j.size, SpeedupCurve::power_law(0.9)}});
      } else if (k % 97 == 13) {
        j.size = 0.01 + 0.001 * static_cast<double>(k / 97);
      }
    }
    jobs.push_back(j);
  }
  return Instance(machines, jobs);
}

/// `front` jobs released at t = 0 (dense_job sizes), then a batch of
/// `batch` jobs released together at t = 0.5, the k-th of them passed
/// through `edit(k, job)` when one is given. Unedited, no job of the
/// batch is due a phase change or a completion at its first visit, so
/// every 512-job block the batch fills holds one flow quotient.
Instance release_instance(std::size_t front, std::size_t batch, int machines,
                          void (*edit)(std::size_t, Job&) = nullptr) {
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < front + batch; ++i) {
    Job j = dense_job(i, SpeedupCurve::power_law(0.5));
    j.release = i < front ? 0.0 : 0.5;
    if (i >= front && edit != nullptr) edit(i - front, j);
    jobs.push_back(j);
  }
  return Instance(machines, jobs);
}

/// A release_instance edit: the batch's 1000th job gets a first phase
/// within completion_tol and its 2000th all of its work within it, each
/// in a 512-job block of its own when the batch follows 512 jobs.
void due_job(std::size_t k, Job& j) {
  if (k == 1000) {
    j = make_phased_job(j.id, j.release,
                        {{5e-10, SpeedupCurve::sequential()},
                         {j.size, SpeedupCurve::power_law(0.9)}});
  } else if (k == 2000) {
    j.size = 5e-10;
  }
}

std::vector<Corpus> corpora() {
  std::vector<Corpus> out;
  for (const std::uint64_t seed : {1u, 7u}) {
    out.push_back({"e1.s" + std::to_string(seed),
                   make_random_instance(e1_config(seed)), 1.0});
  }
  out.push_back({"e1.s1.speed1.5", make_random_instance(e1_config(1)), 1.5});
  {
    // The repro-grid cell shape: n = 400, P = 256, overloaded stretches.
    RandomWorkloadConfig cfg = e1_config(13);
    cfg.jobs = 400;
    cfg.P = 256.0;
    out.push_back({"e1.n400", make_random_instance(cfg), 1.0});
  }
  for (const std::uint64_t seed : {3u, 11u}) {
    out.push_back({"e5.s" + std::to_string(seed),
                   make_random_instance(e5_config(seed)), 1.0});
  }
  {
    RandomWorkloadConfig cfg = e5_config(17);
    cfg.jobs = 400;
    cfg.load = 1.1;
    out.push_back({"e5.n400", make_random_instance(cfg), 1.0});
  }
  out.push_back({"phased.hand", hand_phased_instance(), 1.0});
  out.push_back({"phased.gen", generated_phased_instance(), 1.0});
  out.push_back({"tolerance", tolerance_corpus_instance(), 1.0});
  for (const std::size_t n : {1000u, 1023u, 4099u}) {
    out.push_back({"dense.n" + std::to_string(n), dense_instance(n, 16), 1.0,
                   {"equi", "laps:0.25", "fill-grant"}});
  }
  out.push_back({"dense.mixed", dense_mixed_curve_instance(), 1.0,
                 {"equi", "laps:0.25"}});
  out.push_back({"dense.phased", dense_phased_instance(), 1.0,
                 {"equi", "fill-grant"}});
  // Cut just after the release at t = 1.0: the arrival is admitted, the
  // decision taken and deferred before any sweep has visited it.
  out.push_back({"dense.snapshot", dense_instance(1023, 16), 1.0,
                 {"equi", "laps:0.25", "fill-grant"}, 1.0 + 1e-7});
  // Uniform decisions (every share the same): EQUI at n = m, where its
  // share is exactly 1, and at n = m + 1; EQUI at speeds 0.5 and 1.5; the
  // uniform test policies above, with allocation validation on and off;
  // and a deferred uniform decision carried through a snapshot.
  out.push_back({"uniform.n64.m64", batch_instance(64, 64), 1.0, {"equi"}});
  out.push_back({"uniform.n65.m64", batch_instance(65, 64), 1.0, {"equi"}});
  for (const double speed : {0.5, 1.5}) {
    out.push_back({"uniform.speed" + std::string(speed < 1.0 ? "0.5" : "1.5"),
                   dense_instance(1023, 16), speed, {"equi"}});
  }
  out.push_back({"uniform.zero", dense_instance(1000, 16), 1.0,
                 {"zero-fill:+0", "zero-fill:-0"}});
  out.push_back({"uniform.limit", dense_instance(1023, 16), 1.0,
                 {"fill-at-limit"}});
  for (const bool validate : {true, false}) {
    out.push_back({validate ? "uniform.validated" : "uniform.unvalidated",
                   dense_instance(1000, 16), 1.0,
                   {"fill-over", "fill-nan", "fill-neg"}, 0.0, validate});
  }
  out.push_back({"uniform.snapshot", dense_instance(1023, 16), 1.5,
                 {"equi", "fill-at-limit"}, 1.0 + 1e-7});
  // Multi-phase jobs admitted after uniform steps over single-phase jobs
  // only; cut before the first pair arrives and while it runs.
  out.push_back({"uniform.phased-late", late_phased_instance(), 1.0,
                 {"equi", "fill-grant"}});
  for (const double cut : {1.5, 2.0}) {
    out.push_back({"uniform.phased-late.cut" +
                       std::string(cut < 2.0 ? "1.5" : "2"),
                   late_phased_instance(), 1.0, {"equi"}, cut + 1e-7});
  }
  // A streaming EQUI run cut after many uniform steps.
  out.push_back({"uniform.stream", dense_instance(4099, 16), 1.0, {"equi"},
                 5.0 + 1e-7});
  // Sparse steps whose idle gaps span several of ordered_scaled_sum's
  // blocks: ISRPT runs the 2 shortest of up to 3000 jobs, Par-SRPT one.
  // fractional_flow crosses powers of two inside those gaps, most often
  // early in the run, when one step's idle flow is large against it.
  out.push_back({"idle.n3000", dense_instance(3000, 2), 1.0,
                 {"isrpt", "par-srpt"}});
  // The idle-flow sum's per-block summaries (one per 512 jobs: their
  // common flow quotient, or mixed) switching between equal and mixed:
  // a completion's swap-remove pulls the back job into another block;
  // under isrpt-dense:3 a dense step between sparse ones leaves the
  // quotients stale for the next sparse step to rebuild; the later
  // releases land behind sets that completions have shortened; and the
  // run is cut at t = 4 and restored.
  out.push_back({"idle.blocks", dense_instance(3000, 2), 1.0,
                 {"isrpt", "isrpt-dense:3"}, 4.0 + 1e-7});
  // The sweep's visit of a batch release's unswept tail: support jobs at
  // scattered tail positions, phase changes and completions at the first
  // visit, and — cut just after the release, the decision taken and
  // deferred before any sweep — a restored engine whose whole alive set
  // is unswept.
  out.push_back({"tail.batch", tail_instance(1500, 2500, 2), 1.0,
                 {"isrpt", "par-srpt", "fill-grant", "isrpt-dense:3"}});
  out.push_back({"tail.cut", tail_instance(1500, 2500, 2), 1.0,
                 {"isrpt", "isrpt-dense:3"}, 0.5 + 1e-7});
  // A release whose 512-job blocks hold equal flow quotients before any
  // sweep reaches them. Its first job lands mid-block (700 jobs are
  // alive), and it leaves the arrival queue in two parts (4096 jobs, then
  // the rest, which complete a block the first part began). Under
  // fill-grant the first step after it is dense (4900 jobs are alive),
  // which leaves those summaries stale together with the quotients.
  out.push_back({"tail.midblock", release_instance(700, 4200, 2), 1.0,
                 {"isrpt", "fill-grant"}});
  // A release right after a dense EQUI step: the first sparse step
  // rebuilds the flow quotients of the jobs swept before the release as
  // it visits the release; uncut, and cut just after the release.
  out.push_back({"tail.after-equi", release_instance(600, 2000, 4), 1.0,
                 {"equi-then-isrpt"}});
  out.push_back({"tail.after-equi.cut", release_instance(600, 2000, 4),
                 1.0, {"equi-then-isrpt"}, 0.5 + 1e-7});
  // Blocks of a release that each hold one job due at its first visit:
  // a first phase within completion_tol, or all of its work within it.
  out.push_back({"tail.phase-tol", release_instance(512, 2048, 2, due_job),
                 1.0, {"isrpt", "isrpt-dense:3"}});
  // Runs of consecutive 512-job blocks whose summaries hold the same
  // quotient (a release's fresh jobs all hold 1.0): the support jobs
  // ISRPT and Par-SRPT run sit at scattered indexes and cut the runs, as
  // do the blocks a partly run job or a completion's swap-remove leaves
  // mixed; isrpt-dense:3 leaves every quotient stale between them. Early
  // on, when one step's idle flow is large against fractional_flow, a
  // run's sum crosses a power of two partway through. Uncut, and cut at
  // t = 3 and restored.
  out.push_back({"runs.release", release_instance(520, 5120, 2), 1.0,
                 {"isrpt", "par-srpt", "isrpt-dense:3"}});
  out.push_back({"runs.release.cut", release_instance(520, 5120, 2), 1.0,
                 {"isrpt"}, 3.0 + 1e-7});
  return out;
}

/// FNV-1a over a byte string.
std::uint64_t bytes_digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The continuation of a run snapshotted at c.snapshot_at, with `hasher`
/// attached to the restored engine only. `psnp` is set to the digest of
/// the snapshot's PSNP encoding (serve::encode_snapshot).
SimResult run_restored(const Corpus& c, const std::string& policy,
                       EngineConfig cfg, TrajectoryHasher& hasher,
                       std::uint64_t& psnp) {
  auto donor_sched = make_policy(policy);
  Engine donor(c.inst.machines(), cfg);
  donor.begin(*donor_sched);
  for (const Job& j : c.inst.jobs()) donor.admit(j);
  donor.advance_to(c.snapshot_at);
  const EngineState snap = donor.export_state();
  EXPECT_TRUE(snap.has_cached_alloc) << c.name << "/" << policy;
  psnp = bytes_digest(serve::encode_snapshot(
      {policy, donor_sched->save_state(), snap}));
  auto sched = make_policy(policy);
  sched->load_state(donor_sched->save_state());
  Engine cont(c.inst.machines(), cfg);
  cont.add_observer(&hasher);
  cont.import_state(snap, *sched);
  return cont.finish();
}

/// FNV-1a over a TrajectoryRecorder's knots: per job, in id order, the
/// id, every (time, remaining work) knot and the completion time.
std::uint64_t recorder_digest(const TrajectoryRecorder& rec) {
  std::map<JobId, const JobTrajectory*> by_id;
  for (const auto& [id, jt] : rec.trajectories()) by_id[id] = &jt;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [id, jt] : by_id) {
    mix(id);
    for (std::size_t k = 0; k < jt->remaining.size(); ++k) {
      mix(bits(jt->remaining.times()[k]));
      mix(bits(jt->remaining.values()[k]));
    }
    mix(bits(jt->completion));
  }
  return h;
}

/// Golden lines that are not one (corpus, policy) run under a
/// TrajectoryHasher, for keys with a name prefix:
///   * uniform.recorder/equi — EQUI with a TrajectoryRecorder attached;
///     its last field digests every knot the recorder kept;
///   * uniform.n2500000/<policy> — the overcommit check of a uniform
///     decision over 2.5·10^6 alive jobs (FillNearLimitOnce), streamed
///     with no observer so that no per-job record is built;
///   * tail.n20000/isrpt — ISRPT on tail_instance(12000, 8000, 16), run
///     with no observer: a release of 8000 jobs behind 12000 and every
///     completion after it, at alive sizes of 10^4 jobs;
///   * tail.huge/isrpt — ISRPT over a release whose jobs at alive indexes
///     1024–2047 (two whole blocks) and 2500 are sized 0.75·DBL_MAX, so
///     that their flow quotient 0.5·(r+r)/r is +inf; streamed up to t = 3
///     and pinned there, since those jobs never complete in finite time;
///   * runs.n41000/isrpt — ISRPT on release_instance(1000, 40000, 16), run
///     with no observer: idle flows over runs of up to ~80 equal blocks,
///     and SRPT heads gathered again each time completions drain them.
void add_special_lines(const std::string& prefix,
                       std::map<std::string, std::string>& out) {
  const auto wanted = [&prefix](const std::string& key) {
    return key.rfind(prefix, 0) == 0;
  };
  if (wanted("uniform.recorder/equi")) {
    TrajectoryRecorder rec;
    auto sched = make_policy("equi");
    const SimResult r = simulate(dense_instance(1000, 16), *sched, {}, {&rec});
    out["uniform.recorder/equi"] = fingerprint(r, recorder_digest(rec));
  }
  for (const char* policy : {"fill-at-limit-then-nan", "fill-past-limit"}) {
    const std::string key = std::string("uniform.n2500000/") + policy;
    if (!wanted(key)) continue;
    auto sched = make_policy(policy);
    Engine eng(16);
    eng.begin(*sched);
    for (std::size_t i = 0; i < 2'500'000; ++i) {
      Job j = dense_job(i, SpeedupCurve::power_law(0.5));
      j.release = 0.0;
      eng.admit(std::move(j));
    }
    try {
      out[key] = fingerprint(eng.finish(), 0);
    } catch (const std::logic_error& e) {
      out[key] = std::string("throws ") + e.what();
    }
  }
  if (wanted("tail.n20000/isrpt")) {
    auto sched = make_policy("isrpt");
    out["tail.n20000/isrpt"] =
        fingerprint(simulate(tail_instance(12000, 8000, 16), *sched), 0);
  }
  if (wanted("tail.huge/isrpt")) {
    const Instance inst =
        release_instance(700, 2048, 2, [](std::size_t k, Job& j) {
          if ((k >= 324 && k < 1348) || k == 1800) {
            j.size = 0.75 * std::numeric_limits<double>::max();
          }
        });
    auto sched = make_policy("isrpt");
    Engine eng(inst.machines());
    eng.begin(*sched);
    for (const Job& j : inst.jobs()) eng.admit(j);
    eng.advance_to(3.0);
    out["tail.huge/isrpt"] = fingerprint(eng.partial(), 0);
  }
  if (wanted("runs.n41000/isrpt")) {
    auto sched = make_policy("isrpt");
    out["runs.n41000/isrpt"] =
        fingerprint(simulate(release_instance(1000, 40000, 16), *sched), 0);
  }
}

/// key -> fingerprint for every (corpus, policy) pair with a name prefix,
/// plus the add_special_lines() keys with that prefix.
std::map<std::string, std::string> compute(const std::string& prefix) {
  std::map<std::string, std::string> out;
  for (const Corpus& c : corpora()) {
    if (c.name.rfind(prefix, 0) != 0) continue;
    std::vector<std::string> policies = c.policies;
    if (policies.empty()) policies.assign(std::begin(kAllPolicies),
                                          std::end(kAllPolicies));
    // With validation off the uniform test policies hand the rate kernel
    // shares its debug contracts reject (NaN): log them, so that a build
    // with DCHECKs pins the bits a build without them computes.
    std::optional<ScopedContractPolicy> log_contracts;
    if (!c.validate) log_contracts.emplace(ContractPolicy::kLog);
    for (const std::string& policy : policies) {
      EngineConfig cfg;
      cfg.speed = c.speed;
      cfg.validate_allocations = c.validate;
      TrajectoryHasher hasher;
      SimResult r;
      const std::string key = c.name + "/" + policy;
      try {
        if (c.snapshot_at > 0.0) {
          std::uint64_t psnp = 0;
          r = run_restored(c, policy, cfg, hasher, psnp);
          out[key + ".psnp"] = hexu(psnp);
        } else {
          auto sched = make_policy(policy);
          r = simulate(c.inst, *sched, cfg, {&hasher});
        }
      } catch (const std::logic_error& e) {
        // A rejected allocation: pin the error instead of the bits.
        out[key] = std::string("throws ") + e.what();
        continue;
      }
      out[key] = fingerprint(r, hasher.hash());
    }
  }
  add_special_lines(prefix, out);
  return out;
}

std::string golden_path() {
  return std::string(PARSCHED_GOLDEN_DIR) + "/engine_bits.txt";
}

std::map<std::string, std::string> load_goldens() {
  std::map<std::string, std::string> out;
  std::ifstream in(golden_path());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return out;
}

/// Compare the prefix group against the goldens — or, when
/// PARSCHED_WRITE_GOLDENS names a file, write the whole golden file there
/// instead (every group's test writes the same complete file).
void expect_goldens(const std::string& prefix) {
  const std::string write_to = env::get_string("PARSCHED_WRITE_GOLDENS");
  if (!write_to.empty()) {
    auto out = open_output(write_to, "golden file");
    out << "# key decisions events total_flow weighted_flow fractional_flow"
           " makespan records_fnv trajectory_fnv\n"
           "# written by tests/test_goldens.cpp "
           "(PARSCHED_WRITE_GOLDENS=<path>)\n";
    for (const auto& [key, fp] : compute("")) out << key << ' ' << fp << '\n';
    finish_output(out, write_to);
    return;
  }
  const std::map<std::string, std::string> got = compute(prefix);
  ASSERT_FALSE(got.empty()) << prefix;
  const std::map<std::string, std::string> want = load_goldens();
  ASSERT_FALSE(want.empty()) << "no goldens at " << golden_path();
  for (const auto& [key, fp] : got) {
    const auto it = want.find(key);
    ASSERT_NE(it, want.end()) << "no golden for " << key;
    EXPECT_EQ(fp, it->second) << key;
  }
}

TEST(EngineGoldens, AllPoliciesOnE1Grid) { expect_goldens("e1."); }
TEST(EngineGoldens, AllPoliciesOnE5Grid) { expect_goldens("e5."); }
TEST(EngineGoldens, AllPoliciesOnPhasedJobs) { expect_goldens("phased."); }
TEST(EngineGoldens, AllPoliciesOnCompletionToleranceCorpus) {
  expect_goldens("tolerance");
}
TEST(EngineGoldens, DenseStepsAtBlockSizes) { expect_goldens("dense.n"); }
TEST(EngineGoldens, DenseStepsOverMixedCurves) {
  expect_goldens("dense.mixed");
}
TEST(EngineGoldens, DenseStepsOverPhasedJobs) {
  expect_goldens("dense.phased");
}
TEST(EngineGoldens, DenseStepsAcrossASnapshot) {
  expect_goldens("dense.snapshot");
}
TEST(EngineGoldens, SparseStepsOverLongIdleGaps) { expect_goldens("idle."); }
TEST(EngineGoldens, SweepOfABatchReleaseTail) { expect_goldens("tail."); }
TEST(EngineGoldens, SparseStepsOverRunsOfEqualBlocks) {
  expect_goldens("runs.");
}
TEST(EngineGoldens, UniformStepsAtTheirEdges) {
  const auto debug_failures = [] {
    return check_detail::stats().debug_failed.load();
  };
  const std::uint64_t before = debug_failures();
  expect_goldens("uniform.");
  // uniform.unvalidated's NaN shares trip the rate kernel's DCHECK exactly
  // when DCHECKs are compiled in.
#if defined(NDEBUG) && !defined(PARSCHED_FORCE_DCHECKS)
  EXPECT_EQ(debug_failures(), before);
#else
  EXPECT_GT(debug_failures(), before);
#endif
}

// ---- The carried uniform dt-scan ------------------------------------------
//
// A uniform decision's dt-scan (the least phase work over the alive set)
// reuses the minimum the last dense advance sweep kept over the jobs it
// left alive, and scans only the jobs admitted since; a sparse sweep, a
// sweep with a multi-phase job alive and a snapshot restore drop it. Each
// drive below runs under PARSCHED_AUDIT, where the engine checks every
// uniform dt-scan against a full scan, and takes the carried minimum
// through one way it could go stale. The bits were pinned before the
// engine carried the scan.

/// PARSCHED_AUDIT=1 for every engine constructed inside the scope (an
/// engine reads it once, at construction); restores the caller's setting.
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
  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

 private:
  std::string was_;
};

/// 300 jobs on 16 machines whose sizes repeat in threes, so the least
/// remaining work is held by several jobs that complete together, plus
/// every 25th job released later and smaller than any job then alive, so
/// the least work sits in the tail admitted since the last sweep.
Instance argmin_instance() {
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < 300; ++i) {
    Job j = dense_job(i, SpeedupCurve::power_law(0.5));
    j.release = 0.0;
    j.size = 1.0 + 0.03 * static_cast<double>(i % 100);
    if (i % 25 == 24) {
      j.release = 0.4 * static_cast<double>(i / 25);
      j.size = 0.01 + 0.001 * static_cast<double>(i / 25);
    }
    jobs.push_back(j);
  }
  return Instance(16, jobs);
}

/// 200 jobs released at t = 0, which EQUI completes by t = 30, and 200
/// more released at t = 40: in between no job is alive.
Instance gap_instance() {
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < 400; ++i) {
    Job j = dense_job(i, SpeedupCurve::power_law(0.5));
    j.release = i < 200 ? 0.0 : 40.0;
    j.size = 1.0 + 0.005 * static_cast<double>(i % 200);
    jobs.push_back(j);
  }
  return Instance(16, jobs);
}

/// Streams `inst` under `policy` and returns the run's fingerprint (with
/// a TrajectoryHasher digest). Jobs are admitted in release order, each
/// only once the frontier has reached the release before it, so every
/// admission lands between decision steps and a decision whose interval
/// crosses the frontier is deferred with its admission still to come.
/// The frontier also stops on a grid of `step` (when positive) up to
/// `grid_end`, deferring decisions without an admission. At each time in
/// `cuts` the run is exported and continued, on a policy restored from
/// the export, by another engine. Every engine the run uses has already
/// run it once, with no observer, up to the first completion, before the
/// begin() or import_state() that hands it the run, so the scratch of
/// that earlier run is in place.
std::string carried_scan_drive(const Instance& inst, const std::string& policy,
                               double step, double grid_end,
                               const std::vector<double>& cuts) {
  std::vector<Job> jobs = inst.jobs();
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.release < b.release;
  });
  std::vector<double> times;
  for (const Job& j : jobs) times.push_back(j.release);
  for (double t = step; step > 0.0 && t <= grid_end; t += step) {
    times.push_back(t);
  }
  times.insert(times.end(), cuts.begin(), cuts.end());
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  std::unique_ptr<Scheduler> scratch;
  const auto used_engine = [&] {
    auto e = std::make_unique<Engine>(inst.machines());
    scratch = make_policy(policy);
    e->begin(*scratch);
    for (const Job& j : jobs) e->admit(j);
    while (e->partial().records.empty()) e->advance_to(e->frontier() + 0.5);
    return e;
  };
  TrajectoryHasher hasher;
  auto sched = make_policy(policy);
  auto eng = used_engine();
  eng->add_observer(&hasher);
  eng->begin(*sched);
  std::size_t next = 0;
  for (const double t : times) {
    while (next < jobs.size() && jobs[next].release <= t) {
      eng->admit(jobs[next++]);
    }
    eng->advance_to(t);
    if (std::find(cuts.begin(), cuts.end(), t) == cuts.end()) continue;
    const EngineState snap = eng->export_state();
    const std::string state = sched->save_state();
    eng = used_engine();
    eng->add_observer(&hasher);
    sched = make_policy(policy);
    sched->load_state(state);
    eng->import_state(snap, *sched);
  }
  return fingerprint(eng->finish(), hasher.hash());
}

TEST(CarriedUniformScan, AuditedDrivesKeepTheirBits) {
  const AuditScope audit;
  const Instance dense = dense_instance(1023, 16);
  const Instance phased = late_phased_instance();
  const std::vector<double> no_cuts;
  const std::vector<double> cuts = {0.5, 1.0 + 1e-7, 2.5};
  // The continuations across snapshots and deferrals are the run without
  // them, bit for bit, so those drives share its line.
  const std::string equi =
      "1085 2046 0x1.d3c2710b55182p+17 0x1.d3c2710b55182p+17 "
      "0x1.0edc013d40863p+17 0x1.3f84efe0ac5dap+8 b367a595beb67717 "
      "42b9cc419a5e8681";
  const std::string fill_grant =
      "1079 2046 0x1.cbc4adacd0874p+17 0x1.cbc4adacd0874p+17 "
      "0x1.11e90f2b13ecbp+17 0x1.3feaa0f7aa86bp+8 97b7036f02d42810 "
      "a0ec193813b2a64e";
  const struct {
    const char* name;
    std::string got;
    std::string want;
  } drives[] = {
      // Admissions between uniform steps.
      {"admit/equi", carried_scan_drive(dense, "equi", 0.0, 0.0, no_cuts),
       equi},
      // The jobs holding the least work complete, several at once, and
      // later arrivals hold less than any job already swept.
      {"argmin/equi",
       carried_scan_drive(argmin_instance(), "equi", 0.0, 0.0, no_cuts),
       "119 600 0x1.3f90de928bfd7p+13 0x1.3f90de928bfd7p+13 "
       "0x1.6b940bbb975fp+12 0x1.63f8181624586p+5 facf5e26d073a25c "
       "475f9d4d72d6fcd4"},
      // Uniform decisions alternating with sparse ones.
      {"admit/fill-grant",
       carried_scan_drive(dense, "fill-grant", 0.0, 0.0, no_cuts),
       fill_grant},
      // The first multi-phase jobs admitted between uniform steps.
      {"phased/equi", carried_scan_drive(phased, "equi", 0.0, 0.0, no_cuts),
       "1098 2054 0x1.d3de9674a0e0ep+17 0x1.d3de9674a0e0ep+17 "
       "0x1.0ef039e65831cp+17 0x1.3f8bfa1e1d018p+8 57a1d2c0cdb1409b "
       "880de074cb5e4a09"},
      {"phased/fill-grant",
       carried_scan_drive(phased, "fill-grant", 0.0, 0.0, no_cuts),
       "1095 2054 0x1.cb08383f076ecp+17 0x1.cb08383f076ecp+17 "
       "0x1.11330a3a78f8ep+17 0x1.3fff2ee176ef1p+8 c6b7eec5711bafc5 "
       "077ee9631d2109e5"},
      // export_state / import_state between uniform steps, and while no
      // job is alive.
      {"snapshot/equi", carried_scan_drive(dense, "equi", 0.0, 0.0, cuts),
       equi},
      {"gap/equi",
       carried_scan_drive(gap_instance(), "equi", 0.0, 0.0, {30.0}),
       "400 800 0x1.9fe5b9154703dp+12 0x1.9fe5b9154703dp+12 "
       "0x1.c5588b2e98a1p+11 0x1.d5dacd17ba214p+5 c3a8d26691b6cccc "
       "f38ba3d3a6d7e68c"},
      {"snapshot/fill-grant",
       carried_scan_drive(dense, "fill-grant", 0.0, 0.0, cuts), fill_grant},
      // Uniform decisions deferred across advance_to.
      {"deferred/equi",
       carried_scan_drive(dense, "equi", 0.01, 4.0, no_cuts), equi},
      {"deferred/fill-grant",
       carried_scan_drive(dense, "fill-grant", 0.01, 4.0, cuts), fill_grant},
  };
  for (const auto& d : drives) EXPECT_EQ(d.got, d.want) << d.name;
}

// Under PARSCHED_AUDIT the engine checks every blocked idle-flow sum
// against the serial loop, bit for bit; the audited runs over long idle
// gaps keep their golden lines.
TEST(BlockedIdleFlow, AuditedRunsKeepTheirBits) {
  const AuditScope audit;
  expect_goldens("idle.");
}

// Under PARSCHED_AUDIT the engine also checks, at every sparse step, that
// each 512-job block it summarizes as equal holds its recorded quotient.
// An engine handed a run by begin() or import_state() after an earlier
// ISRPT run, which left such blocks behind, must forget them. ISRPT over
// idle.n3000 streamed on used engines (carried_scan_drive), uncut and cut
// twice, gives one line, whose SimResult fields are the corpus's golden
// ones (a streamed drive's trajectory digest differs from a batch run's).
TEST(BlockedIdleFlow, AuditedDrivesOnUsedEnginesKeepTheirBits) {
  const AuditScope audit;
  const Instance inst = dense_instance(3000, 2);
  const std::string uncut = carried_scan_drive(inst, "isrpt", 0.0, 0.0, {});
  EXPECT_EQ(carried_scan_drive(inst, "isrpt", 0.0, 0.0,
                               {2.0 + 1e-7, 4.0 + 1e-7}),
            uncut);
  const std::string batch = load_goldens().at("idle.n3000/isrpt");
  EXPECT_EQ(uncut.substr(0, uncut.rfind(' ')),
            batch.substr(0, batch.rfind(' ')));
}

// Under PARSCHED_AUDIT the engine also checks that each block it holds
// summarized in the unswept tail holds no job due a phase change or a
// completion. The release corpora fill such blocks before their first
// sweep, and keep their golden lines audited.
TEST(BlockedIdleFlow, AuditedReleasesKeepTheirBits) {
  const AuditScope audit;
  for (const char* prefix : {"tail.midblock", "tail.after-equi",
                             "tail.phase-tol", "tail.huge", "runs.release"}) {
    expect_goldens(prefix);
  }
}

// ---- First-visit edge cases ---------------------------------------------

/// Hands every machine to alive index 0 and nothing to anyone else, so
/// later arrivals sit at share zero.
class FirstAliveOnly final : public Scheduler {
 public:
  using Scheduler::allocate;
  [[nodiscard]] std::string name() const override { return "first-only"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.reset(ctx.alive().size());
    if (ctx.alive().empty()) return;
    out.grant(0, static_cast<double>(ctx.machines()));
  }
};

/// Records (time, phase, curve kind) of one job at every decision.
class PhaseProbe final : public Observer {
 public:
  explicit PhaseProbe(JobId id) : id_(id) {}
  void on_decision(double t, std::span<const AliveJob> alive,
                   std::span<const double>) override {
    for (const AliveJob& a : alive) {
      if (a.id == id_) seen.push_back({t, a.phase, a.curve.kind()});
    }
  }
  struct Seen {
    double t;
    std::size_t phase;
    SpeedupCurve::Kind kind;
  };
  std::vector<Seen> seen;

 private:
  JobId id_;
};

Job plain_job(JobId id, double release, double size) {
  Job j;
  j.id = id;
  j.release = release;
  j.size = size;
  j.curve = SpeedupCurve::fully_parallel();
  return j;
}

TEST(FirstVisitEdges, TinyJobAdmittedMidRunWithZeroShareCompletesAtFirstStep) {
  // m = 1: job 0 holds the machine; job 1 (5e-10 of work, inside
  // completion_tol) arrives at t = 1 with share zero; job 2's arrival at
  // t = 1.5 ends the first interval after job 1's admission. The first
  // visit of the advance sweep must see job 1 complete at t = 1.5.
  const Instance inst(1, {plain_job(0, 0.0, 4.0), plain_job(1, 1.0, 5e-10),
                          plain_job(2, 1.5, 1.0)});
  for (const bool streamed : {false, true}) {
    FirstAliveOnly sched;
    SimResult r;
    if (streamed) {
      Engine eng(1);
      eng.begin(sched);
      for (const Job& j : inst.jobs()) eng.admit(j);
      eng.advance_to(1.25);  // defer inside job 1's first interval
      r = eng.finish();
    } else {
      r = simulate(inst, sched);
    }
    ASSERT_EQ(r.records.size(), 3u);
    EXPECT_EQ(r.records[0].job.id, 1u) << "streamed=" << streamed;
    EXPECT_EQ(r.records[0].completion, 1.5) << "streamed=" << streamed;
  }
}

TEST(FirstVisitEdges, FirstPhaseOfTinyWorkAdvancesAtFirstStep) {
  // Job 1's first phase (1e-12 of work) is inside completion_tol. It
  // arrives with share zero, and the first visit must still move it to
  // its second (fully parallel) phase, so the next decision sees phase 1.
  const Instance inst(
      1, {plain_job(0, 0.0, 4.0),
          make_phased_job(1, 1.0,
                          {{1e-12, SpeedupCurve::sequential()},
                           {2.0, SpeedupCurve::fully_parallel()}}),
          plain_job(2, 1.5, 1.0)});
  FirstAliveOnly sched;
  PhaseProbe probe(1);
  const SimResult r = simulate(inst, sched, {}, {&probe});
  ASSERT_GE(probe.seen.size(), 2u);
  EXPECT_EQ(probe.seen[0].t, 1.0);
  EXPECT_EQ(probe.seen[0].phase, 0u);
  EXPECT_EQ(probe.seen[0].kind, SpeedupCurve::Kind::kSequential);
  EXPECT_EQ(probe.seen[1].t, 1.5);
  EXPECT_EQ(probe.seen[1].phase, 1u);
  EXPECT_EQ(probe.seen[1].kind, SpeedupCurve::Kind::kFullyParallel);
  EXPECT_EQ(r.records.size(), 3u);
}

TEST(FirstVisitEdges, SnapshotMidDeferralResumesBitIdentically) {
  // Cut a streamed run just after a release: the new job is admitted, a
  // decision is made and deferred past the frontier, and the job has not
  // been swept yet. The restored continuation must equal the donor's.
  const Instance inst = make_random_instance(e1_config(7));
  for (const char* policy :
       {"isrpt", "equi", "greedy", "laps:0.5", "quantized-equi:0.5"}) {
    for (const std::size_t cut : {std::size_t{5}, std::size_t{40},
                                  std::size_t{90}}) {
      const std::string what =
          std::string(policy) + " cut after job " + std::to_string(cut);
      auto donor_sched = make_scheduler(policy);
      Engine donor(inst.machines());
      TrajectoryHasher donor_hash;
      donor.add_observer(&donor_hash);
      donor.begin(*donor_sched);
      for (const Job& j : inst.jobs()) donor.admit(j);
      const double t_cut = inst.jobs()[cut].release + 1e-7;
      donor.advance_to(t_cut);
      const EngineState snap = donor.export_state();
      EXPECT_TRUE(snap.has_cached_alloc) << what;
      const std::string policy_state = donor_sched->save_state();
      const SimResult want = donor.finish();

      auto cont_sched = make_scheduler(policy);
      cont_sched->load_state(policy_state);
      Engine cont(inst.machines());
      cont.import_state(snap, *cont_sched);
      const SimResult got = cont.finish();
      EXPECT_EQ(fingerprint(got, 0), fingerprint(want, 0)) << what;
    }
  }
}

// ---- Deferred decisions resumed by a creeping frontier -------------------
//
// A streamed drive that moves the frontier in small steps resumes each
// deferred decision many times before its interval ends. However it
// creeps — plainly, with admissions between creeps, or with
// collect_stats on — the run must end with the SimResult of one
// advance_to(∞).

/// `policy` over dense_instance(2000, 2), streamed. The frontier creeps
/// by 1e-4 up to t = 2 (with `step` false it does not move before
/// finish()), so one ISRPT interval spans up to ~500 creeps. The jobs are
/// admitted before the first advance_to, or, with `admit_late`, each at
/// the last creep that its release allows.
std::string creep_fingerprint(const std::string& policy, bool step,
                              bool admit_late, bool stats) {
  std::vector<Job> jobs = dense_instance(2000, 2).jobs();
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.release < b.release;
  });
  EngineConfig cfg;
  cfg.collect_stats = stats;
  auto sched = make_policy(policy);
  Engine eng(2, cfg);
  eng.begin(*sched);
  std::size_t next = 0;
  const auto admit_until = [&](double t) {
    while (next < jobs.size() && jobs[next].release <= t) {
      eng.admit(jobs[next++]);
    }
  };
  if (!admit_late) admit_until(kInf);
  for (int k = 0; step && k <= 20000; ++k) {
    const double t = 1e-4 * static_cast<double>(k);
    admit_until(t);
    eng.advance_to(t);
  }
  admit_until(kInf);
  return fingerprint(eng.finish(), 0);
}

TEST(DeferredResume, CreepingFrontierKeepsTheBits) {
  for (const char* policy : {"isrpt", "equi"}) {
    EXPECT_EQ(creep_fingerprint(policy, true, false, false),
              creep_fingerprint(policy, false, false, false))
        << policy;
  }
}

TEST(DeferredResume, AdmissionsBetweenCreepsKeepTheBits) {
  for (const char* policy : {"isrpt", "equi"}) {
    EXPECT_EQ(creep_fingerprint(policy, true, true, false),
              creep_fingerprint(policy, false, false, false))
        << policy;
  }
}

TEST(DeferredResume, CreepingWithStatsKeepsTheBits) {
  for (const char* policy : {"isrpt", "equi"}) {
    EXPECT_EQ(creep_fingerprint(policy, true, false, true),
              creep_fingerprint(policy, false, false, false))
        << policy;
  }
}

// ---- What an adaptive source sees ---------------------------------------
//
// tests/golden/adversary_view.txt pins, for AdversarySource runs under
// several policies, the engine state at every next_time()/take() call:
// the call, its time argument (or result), the view's time and alive
// count, and the remaining work of the short- and long-tagged jobs (the
// adversary's midpoint test reads the former). A change to the engine's
// drive loop or admission must keep the file exact. Running the test
// with PARSCHED_WRITE_ADVERSARY_VIEW=<path> writes the file to <path>
// instead of comparing.

/// Forwards to an AdversarySource and logs what each call saw.
class ViewLogSource final : public ArrivalSource {
 public:
  explicit ViewLogSource(const AdversaryConfig& cfg) : inner_(cfg) {}

  double next_time(const EngineView& view) override {
    const double t = inner_.next_time(view);
    log("next", t, view);
    return t;
  }
  std::span<const Job> take(double t, const EngineView& view) override {
    log("take", t, view);
    return inner_.take(t, view);
  }
  void reset() override { inner_.reset(); }
  [[nodiscard]] bool case1() const { return inner_.outcome().case1; }

  std::vector<std::string> lines;

 private:
  void log(const char* call, double t, const EngineView& view) {
    char buf[160];
    std::snprintf(
        buf, sizeof(buf), "%s %a %a %zu %a %a", call, t, view.time(),
        view.alive_count(),
        view.remaining_tagged(JobTag::Class::kShort, -1),
        view.remaining_tagged(JobTag::Class::kLong, -1));
    lines.emplace_back(buf);
  }

  AdversarySource inner_;
};

std::vector<std::string> adversary_view_lines() {
  std::vector<std::string> out;
  struct Case {
    const char* name;
    AdversaryConfig cfg;
  };
  const Case cases[] = {
      {"m4.P16.a0.5", {4, 16.0, 0.5, 6.0}},
      {"m4.P64.a0.25", {4, 64.0, 0.25, 4.0}},
  };
  for (const Case& c : cases) {
    for (const char* policy : {"isrpt", "equi", "seq-srpt"}) {
      ViewLogSource source(c.cfg);
      auto sched = make_scheduler(policy);
      Engine engine(c.cfg.machines);
      const SimResult r = engine.run(*sched, source);
      out.push_back(std::string("# ") + c.name + " " + policy + " calls " +
                    std::to_string(source.lines.size()) + " jobs " +
                    std::to_string(r.jobs()) +
                    (source.case1() ? " case1" : " case2"));
      out.insert(out.end(), source.lines.begin(), source.lines.end());
    }
  }
  return out;
}

TEST(AdversaryGoldens, SourceSeesTheSameEngineStateAtEveryCall) {
  const std::vector<std::string> got = adversary_view_lines();
  const std::string path =
      std::string(PARSCHED_GOLDEN_DIR) + "/adversary_view.txt";
  const std::string write_to =
      env::get_string("PARSCHED_WRITE_ADVERSARY_VIEW");
  if (!write_to.empty()) {
    auto out = open_output(write_to, "golden file");
    for (const std::string& line : got) out << line << '\n';
    finish_output(out, write_to);
    return;
  }
  std::ifstream in(path);
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) want.push_back(line);
  ASSERT_FALSE(want.empty()) << "no goldens at " << path;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "line " << i + 1;
  }
}

}  // namespace
}  // namespace parsched
