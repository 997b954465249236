#include "simcore/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "check/alloc_guard.hpp"
#include "check/contract.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/mathx.hpp"
#include "util/ordered_sum.hpp"

namespace parsched {

namespace {

/// PARSCHED_AUDIT check of the blocked idle-flow sum: `sum`, what
/// ordered_scaled_sum returned for acc + q[0]*dt + ... + q[count-1]*dt,
/// is the serial loop's result bit for bit (a NaN as a NaN). O(count).
void audit_idle_flow(double acc, const double* q, std::size_t count,
                     double dt, double sum) {
  const double serial = ordered_sum::serial(acc, q, count, dt);
  PARSCHED_CHECK(std::bit_cast<std::uint64_t>(sum) ==
                         std::bit_cast<std::uint64_t>(serial) ||
                     (std::isnan(sum) && std::isnan(serial)),
                 "blocked idle-flow sum differs from the serial loop");
}

/// Jobs per flow-quotient summary (Engine::block_q_): an aligned block
/// of flow_q is one lane block of ordered_scaled_sum when it is mixed.
constexpr std::size_t kFlowBlock = ordered_sum::kBlock;

/// A flow-quotient summary that vouches for nothing ("mixed").
constexpr double kMixed = std::numeric_limits<double>::quiet_NaN();

/// The summary of the kFlowBlock quotients at q: their common value when
/// all have the same bits, kMixed otherwise (a NaN common value is mixed,
/// too). Cheap next to ordered_scaled_sum over the same block.
double block_summary(const double* q) {
  const auto first = std::bit_cast<std::uint64_t>(q[0]);
  std::uint64_t diff = 0;
  for (std::size_t k = 1; k < kFlowBlock; ++k) {
    diff |= std::bit_cast<std::uint64_t>(q[k]) ^ first;
  }
  return diff == 0 ? q[0] : kMixed;
}

/// Flow quotients of jobs [0, count), recomputed from their remaining
/// work with the expression a sweep visit stores, 0.5*(r+r)/size (a
/// rate-0 visit leaves remaining work as it is: it is never -0.0 or
/// NaN), and whether any of the jobs may be due what settle_job does:
/// its remaining work — or, kPhases, its phase work (`pr`) — within
/// completion_tol·max(1, size). (A last phase's phase work can drift
/// below that with the remaining work above it; the flag is then set and
/// settle_job does nothing.) Two jobs at a time with SSE2, as in
/// sweep_block: GCC vectorizes no loop with the flag in it.
template <bool kPhases>
PARSCHED_HOT [[gnu::noinline]] bool flow_quotients(
    double* __restrict__ q, const double* __restrict__ rem,
    const double* __restrict__ size, const double* __restrict__ pr,
    std::size_t count, double completion_tol) {
  std::size_t k = 0;
  bool due = false;
#if defined(__SSE2__)
  const __m128d vtol = _mm_set1_pd(completion_tol);
  const __m128d half = _mm_set1_pd(0.5);
  const __m128d one = _mm_set1_pd(1.0);
  __m128d hits = _mm_setzero_pd();
  for (; k + 2 <= count; k += 2) {
    const __m128d r = _mm_loadu_pd(rem + k);
    const __m128d sz = _mm_loadu_pd(size + k);
    _mm_storeu_pd(q + k,
                  _mm_div_pd(_mm_mul_pd(half, _mm_add_pd(r, r)), sz));
    const __m128d work = kPhases ? _mm_min_pd(r, _mm_loadu_pd(pr + k)) : r;
    hits = _mm_or_pd(
        hits, _mm_cmple_pd(work, _mm_mul_pd(vtol, _mm_max_pd(sz, one))));
  }
  due = _mm_movemask_pd(hits) != 0;
#endif
  for (; k < count; ++k) {
    q[k] = 0.5 * (rem[k] + rem[k]) / size[k];
    const double work = kPhases ? std::min(rem[k], pr[k]) : rem[k];
    due |= work <= completion_tol * std::max(1.0, size[k]);
  }
  return due;
}

/// What the dense rates pass found.
struct DenseRates {
  std::size_t bad;    ///< first share failing validation, or n
  double sum;         ///< Σ shares in index order
  double r0;          ///< the first positive rate (<= 0 when none)
  double p0;          ///< min phase_remaining over the jobs at rate r0
  double dt;          ///< min phase_remaining/rate over the other rates
  std::size_t nonzero;
};

/// The dense rates pass over n jobs in one loop: validation and Σ of the
/// shares, rate = speed * Γ(x) — speed * x for x <= 1 (every curve has
/// Γ(x) = x there), the job's own curve for a share above 1 or NaN —
/// the nonzero count and the dt-scan. Stops at the first invalid share
/// when validating. Out of line, over locals, so the accumulators stay
/// in registers.
///
/// The dt-scan takes min(p/r) over the jobs with a positive rate. Jobs
/// whose rate equals r0, the first positive rate of a share <= 1,
/// contribute min(p)/r0 instead — the same value, since correctly
/// rounded division by a positive r0 is monotone — so a step where most
/// rates are r0 divides once for them. The min is order-free because no
/// term is NaN and none is -0.0 (phase_remaining is never -0.0: the
/// sweep's clamps produce +0.0 and validate(EngineState) rejects -0.0).
PARSCHED_HOT [[gnu::noinline]] DenseRates dense_rates(
    const double* __restrict__ shares, const double* __restrict__ phase_rem,
    const AliveCold* __restrict__ cold, double* __restrict__ rate,
    std::size_t n, double speed, bool validate) {
  // r0 is fixed before the pass (a rate the loop would re-select at
  // every job costs a dependency chain through it); it is usually job 0's.
  double r0 = 0.0;
  for (std::size_t i = 0; i < n && !(r0 > 0.0); ++i) {
    if (shares[i] <= 1.0) r0 = speed * shares[i];
  }
  double sum = 0.0;
  double p0 = kInf;
  double dt = kInf;
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = shares[i];
    if (validate && !(s >= 0.0)) return {i, sum, r0, p0, dt, nonzero};
    sum += s;
    const double r = s <= 1.0 ? speed * s : speed * cold[i].curve.rate(s);
    rate[i] = r;
    if (r > 0.0) {
      ++nonzero;
      if (r == r0) {  // lint: float-eq-ok
        p0 = std::min(p0, phase_rem[i]);
      } else {
        dt = std::min(dt, phase_rem[i] / r);
      }
    }
  }
  return {n, sum, r0, p0, dt, nonzero};
}

/// min(p[0], ..., p[n-1]), or kInf when n == 0: the dt-scan of a uniform
/// step, where every job runs at the same rate. Eight lanes of
/// independent minima on SSE2, so the loop is not one serial chain; the
/// result is the serial min's because the min is order-free over
/// phase_remaining values (see dense_rates).
PARSCHED_HOT [[gnu::noinline]] double min_of(const double* p, std::size_t n) {
  std::size_t k = 0;
  double lo = kInf;
#if defined(__SSE2__)
  __m128d m0 = _mm_set1_pd(kInf);
  __m128d m1 = m0;
  __m128d m2 = m0;
  __m128d m3 = m0;
  for (; k + 8 <= n; k += 8) {
    m0 = _mm_min_pd(m0, _mm_loadu_pd(p + k));
    m1 = _mm_min_pd(m1, _mm_loadu_pd(p + k + 2));
    m2 = _mm_min_pd(m2, _mm_loadu_pd(p + k + 4));
    m3 = _mm_min_pd(m3, _mm_loadu_pd(p + k + 6));
  }
  const __m128d m = _mm_min_pd(_mm_min_pd(m0, m1), _mm_min_pd(m2, m3));
  lo = std::min(_mm_cvtsd_f64(m), _mm_cvtsd_f64(_mm_unpackhi_pd(m, m)));
#endif
  for (; k < n; ++k) lo = std::min(lo, p[k]);
  return lo;
}

/// Jobs per block of the dense advance sweep: the unit in which it
/// replays phase and completion tests.
constexpr std::size_t kSweepBlock = 256;

/// Advances jobs [0, len) of the given arrays for dt, each at rate[k] —
/// or, when kUniform, all at `uniform_rate` (rate is not read; without
/// kUniform, uniform_rate is not) — and
/// returns acc + their flow terms 0.5*(before+after)/size*dt, added in
/// index order. With kPhases the phase work pr drops by the same step;
/// without it pr is neither read nor written and the phase work after
/// the step is taken to be the remaining work after it (every job has at
/// most one phase: see AliveSet::phase_remaining). Branch-free: on SSE2
/// two jobs at a time, with packed arithmetic whose every lane is the
/// scalar loop's correctly rounded operation (max(x, 0) is
/// std::max(0.0, x), NaN and -0.0 included), so the bits do not depend
/// on the path. `event` is set when some job's remaining work or phase
/// work is now within its completion tolerance: only then does the
/// caller replay the phase and completion tests over the block. Without
/// kPhases, `low` is set to the least remaining work after the step (kInf
/// when len is 0), so that the next uniform decision's dt-scan need not
/// read it again; with kPhases, where a phase change rewrites the phase
/// work, `low` is not written.
template <bool kUniform, bool kPhases>
PARSCHED_HOT [[gnu::noinline]] double sweep_block(
    double acc, double* __restrict__ rem, double* __restrict__ pr,
    const double* __restrict__ size, const double* __restrict__ rate,
    double uniform_rate, std::size_t len, double dt, double completion_tol,
    bool& event, double& low) {
  std::size_t k = 0;
  bool hit = false;
  double lo = kInf;
  const double uniform_step = uniform_rate * dt;
#if defined(__SSE2__)
  const __m128d vdt = _mm_set1_pd(dt);
  const __m128d vstep = _mm_set1_pd(uniform_step);
  const __m128d vtol = _mm_set1_pd(completion_tol);
  const __m128d zero = _mm_setzero_pd();
  const __m128d half = _mm_set1_pd(0.5);
  const __m128d one = _mm_set1_pd(1.0);
  __m128d hits = zero;
  __m128d lows = _mm_set1_pd(kInf);
  for (; k + 2 <= len; k += 2) {
    const __m128d step =
        kUniform ? vstep : _mm_mul_pd(_mm_loadu_pd(rate + k), vdt);
    const __m128d before = _mm_loadu_pd(rem + k);
    const __m128d after = _mm_max_pd(_mm_sub_pd(before, step), zero);
    const __m128d phase_after =
        kPhases ? _mm_max_pd(_mm_sub_pd(_mm_loadu_pd(pr + k), step), zero)
                : after;
    const __m128d sz = _mm_loadu_pd(size + k);
    const __m128d term = _mm_mul_pd(
        _mm_div_pd(_mm_mul_pd(half, _mm_add_pd(before, after)), sz), vdt);
    _mm_storeu_pd(rem + k, after);
    if (kPhases) _mm_storeu_pd(pr + k, phase_after);
    acc += _mm_cvtsd_f64(term);
    acc += _mm_cvtsd_f64(_mm_unpackhi_pd(term, term));
    const __m128d tol = _mm_mul_pd(vtol, _mm_max_pd(sz, one));
    hits = _mm_or_pd(
        hits,
        _mm_cmple_pd(kPhases ? _mm_min_pd(after, phase_after) : after, tol));
    if (!kPhases) lows = _mm_min_pd(lows, after);
  }
  hit = _mm_movemask_pd(hits) != 0;
  lo = std::min(_mm_cvtsd_f64(lows),
                _mm_cvtsd_f64(_mm_unpackhi_pd(lows, lows)));
#endif
  for (; k < len; ++k) {
    const double step = kUniform ? uniform_step : rate[k] * dt;
    const double before = rem[k];
    const double after = std::max(0.0, before - step);
    const double phase_after = kPhases ? std::max(0.0, pr[k] - step) : after;
    acc += 0.5 * (before + after) / size[k] * dt;
    rem[k] = after;
    if (kPhases) pr[k] = phase_after;
    const double tol = completion_tol * std::max(1.0, size[k]);
    hit |= std::min(after, phase_after) <= tol;
    lo = std::min(lo, after);
  }
  event = hit;
  if (!kPhases) low = lo;
  return acc;
}

}  // namespace

// PARSCHED_AUDIT check of the support invariant the sparse step rests
// on: compute_rates, the sweep and Allocation::reset touch only the
// support, so a nonzero share outside it would be silently ignored.
void Engine::audit_support() const {
  const Allocation& alloc = cached_alloc_;
  if (alloc.dense()) return;
  const std::span<const double> shares = alloc.shares();
  const std::span<const std::size_t> sup = alloc.support();
  std::size_t j = 0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (j < sup.size() && sup[j] == i) {
      ++j;
      continue;
    }
    PARSCHED_CHECK(std::bit_cast<std::uint64_t>(shares[i]) == 0,
                   "share outside the allocation's support is not +0.0");
  }
  PARSCHED_CHECK(j == sup.size(),
                 "allocation support is unsorted, duplicated or out of range");
}

// PARSCHED_AUDIT check of the carried uniform dt-scan: `low`, the least
// phase work compute_rates found from the last dense sweep's minimum and
// the tail admitted since, is the least phase work over every alive job.
void Engine::audit_uniform_scan(double low) const {
  const double* const phase_rem = alive_.multi_phase == 0
                                      ? alive_.remaining.data()
                                      : alive_.phase_remaining.data();
  PARSCHED_CHECK(std::bit_cast<std::uint64_t>(low) ==
                     std::bit_cast<std::uint64_t>(
                         min_of(phase_rem, alive_.size())),
                 "carried uniform dt-scan differs from a full scan");
}

namespace {

std::string stall_message(double t) {
  std::ostringstream os;
  os << "simulation stalled at t=" << t
     << ": alive jobs but zero rates and no future arrival or "
        "reconsideration point";
  return os.str();
}

std::string stall_message(double t, const std::string& detail) {
  std::ostringstream os;
  os << "simulation stalled at t=" << t << ": " << detail;
  return os.str();
}

}  // namespace

SimulationStall::SimulationStall(double t)
    : std::runtime_error(stall_message(t)) {}

SimulationStall::SimulationStall(double t, const std::string& detail)
    : std::runtime_error(stall_message(t, detail)) {}

Engine::Engine(int machines, EngineConfig config)
    : m_(machines), cfg_(config) {
  if (machines < 1) throw std::invalid_argument("need at least one machine");
  if (!(cfg_.speed > 0.0) || !std::isfinite(cfg_.speed)) {
    throw std::invalid_argument("engine speed must be positive and finite");
  }
  audit_allocs_ = env::get_flag("PARSCHED_AUDIT");
}

void Engine::add_observer(Observer* obs) {
  PARSCHED_CHECK(obs != nullptr, "null observer");
  observers_.push_back(obs);
}

double Engine::remaining_tagged(JobTag::Class cls, int phase) const {
  double total = 0.0;
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    const JobTag& tag = alive_.cold[i].tag;
    if (tag.cls == cls && (phase < 0 || tag.phase == phase)) {
      total += alive_.remaining[i];
    }
  }
  return total;
}

void Engine::begin_run(Scheduler& sched) {
  sched_ = &sched;
  sched.reset();
  alive_.clear();
  completed_.clear();
  pending_ = JobQueue();
  now_ = 0.0;
  frontier_ = 0.0;
  arrival_seq_ = 0;
  streaming_ = false;
  has_cached_alloc_ = false;
  cached_alloc_ = Allocation{};
  result_ = SimResult{};
  zero_dt_streak_ = 0;
  alloc_warm_n_ = 0;
  swept_ = 0;
  swept_low_valid_ = false;
  flow_q_stale_ = false;
  std::fill(block_q_.begin(), block_q_.end(), kMixed);
  orders_.clear();
  rates_valid_ = false;
  stats_ = nullptr;
  // Profiling is opt-in: with collect_stats off (the default) `stats_` is
  // null, every instrumentation site is one predictable branch, and no
  // clock is ever read — the hot path stays uninstrumented.
  if (cfg_.collect_stats) {
    result_.stats.emplace();
    stats_ = &*result_.stats;
  }
  run_start_ = cfg_.collect_stats ? obs::monotonic_seconds() : 0.0;
  t_lap_ = run_start_;  // run()'s first lap; advance_to() starts its own
}

void Engine::finalize_run() {
  if (stats_ != nullptr) {
    stats_->wall_seconds = obs::monotonic_seconds() - run_start_;
    stats_->completions = result_.records.size();
    stats_->arrivals = result_.events - stats_->completions;
    stats_->decisions = result_.decisions;
    stats_->solver_seconds = stats_->rates_seconds + stats_->advance_seconds +
                             stats_->heap_upkeep_seconds +
                             stats_->completion_seconds +
                             stats_->admit_seconds;
  }
  if (cfg_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *cfg_.metrics;
    reg.counter("engine.runs").inc();
    reg.counter("engine.decisions").inc(result_.decisions);
    reg.counter("engine.completions").inc(result_.records.size());
    reg.counter("engine.arrivals")
        .inc(result_.events - result_.records.size());
    if (stats_ != nullptr) {
      reg.timer("engine.run").add(stats_->wall_seconds);
      reg.timer("engine.decide").add(stats_->decide_seconds);
      reg.timer("engine.solver").add(stats_->solver_seconds);
      reg.timer("engine.solver.rates").add(stats_->rates_seconds);
      reg.timer("engine.solver.advance").add(stats_->advance_seconds);
      reg.timer("engine.solver.heap_upkeep").add(stats_->heap_upkeep_seconds);
      reg.timer("engine.solver.completion").add(stats_->completion_seconds);
      reg.timer("engine.solver.admit").add(stats_->admit_seconds);
      reg.timer("engine.observer").add(stats_->observer_seconds);
    }
  }
}

SimResult Engine::take_result() {
  SimResult out = std::move(result_);
  result_ = SimResult{};
  stats_ = nullptr;
  sched_ = nullptr;
  return out;
}

void Engine::record_failure(bool contract_trip, std::uint64_t id,
                            const char* reason) noexcept {
  // The last event the black box sees before the exception escapes: the
  // failure itself, followed by an automatic dump when a path is armed.
  // Cold path by construction — this runs once, right before a throw.
  if (cfg_.recorder == nullptr) return;
  cfg_.recorder->record(contract_trip ? obs::FlightEvent::kGuardTrip
                                      : obs::FlightEvent::kStall,
                        id, now_, 0.0,
                        static_cast<std::uint32_t>(alive_.size()));
  cfg_.recorder->dump_to_file(reason);
}

void Engine::reserve_alive(std::size_t n) {
  // Every per-job buffer — the alive set, the rate scratch, the
  // completion positions (the sweep may push one per alive job), the
  // heaps and order buffers — grows here, geometrically and outside the
  // guarded scopes, so warm decision steps never allocate.
  alive_.reserve(n);
  reserve_geometric(rates_, n);
  reserve_geometric(comp_idx_, n);
  orders_.reserve(n);
  const std::size_t blocks = (n + kFlowBlock - 1) / kFlowBlock;
  if (block_q_.size() < blocks) block_q_.resize(blocks, kMixed);
}

void Engine::admit_pending(ArrivalSource& source) {
  // The one admission path. Each batch is checked whole, then goes from
  // Job straight into the alive columns, one reserve per batch, before
  // the source is asked again — so an adaptive source sees every job it
  // released. Batches come in release order, so arrival_seq does too.
  for (;;) {
    const double nt = source.next_time(*this);
    if (nt > now_ + cfg_.time_tol) return;  // kInf, too; NaN is taken
    const std::span<const Job> jobs = source.take(nt, *this);
    if (jobs.empty()) {
      // Pure decision point: the source must make progress.
      PARSCHED_CHECK(source.next_time(*this) > nt,
                     "arrival source failed to advance past a pure "
                     "decision point");
      continue;
    }
    for (const Job& j : jobs) check_job(j);
    PARSCHED_CHECK(nt >= now_ - cfg_.time_tol,
                   "arrival source moved backwards in time");
    reserve_alive(alive_.size() + jobs.size());
    for (const Job& j : jobs) {
      for (Observer* obs : observers_) obs->on_arrival(now_, j);
      // The job joins the unswept tail; the sweep sets its flow quotient
      // at its first visit. Then one O(log n) sift per fresh heap.
      alive_.append(j, arrival_seq_++);
      orders_.insert(alive_.view(), alive_.size() - 1);
      if (cfg_.recorder != nullptr) {
        cfg_.recorder->record(obs::FlightEvent::kAdmit,
                              static_cast<std::uint64_t>(j.id), now_,
                              j.release,
                              static_cast<std::uint32_t>(alive_.size()));
      }
    }
    result_.events += jobs.size();
  }
}

PARSCHED_HOT void Engine::compute_rates(bool validate) {
  // The decision's shares → rates pass over the allocation's support:
  // (1) validation of every granted share and of Σ ≤ m, (2) Γ(share) at
  // each support position, (3) a scan for the earliest phase end and the
  // nonzero-rate count. Skipping the jobs outside the support changes no
  // bit: their shares are +0.0, which passes validation, adds nothing to
  // the sum, and yields rate speed * 0.0 == +0.0, which neither the
  // dt-scan nor the nonzero count reads. There are three arms:
  //   * uniform — every share is one s in [0, 1] (Allocation::fill, e.g.
  //     EQUI with n >= m): one rate speed*s for all jobs, kept as a
  //     scalar; no share is read and no rate is written, and the dt-scan
  //     reads only the jobs the last dense sweep did not (swept_low_);
  //   * dense — the support is [0, n): all three in one pass
  //     (dense_rates); only shares above 1 read the job's curve;
  //   * sparse — a small share of the jobs (Allocation::sort_support):
  //     each job's curve, in the dt-scan's loop.
  // Every rate is speed * Γ(share) through the job's SpeedupCurve; the
  // dense pass writes speed * share without the call for a share <= 1.
  // The rate scratch is reserved at admission, so nothing here allocates
  // — the AllocGuard fence around this call stays armed. The dt-scans
  // read each job's phase work: `remaining` itself while no alive job has
  // more than one phase (AliveSet::phase_remaining).
  Allocation& alloc = cached_alloc_;
  alloc.sort_support();
  const std::size_t n = alloc.size();
  const std::span<const std::size_t> sup = alloc.support();
  const double* const phase_rem = alive_.multi_phase == 0
                                      ? alive_.remaining.data()
                                      : alive_.phase_remaining.data();
  const double limit = static_cast<double>(m_) * (1.0 + 1e-9) + 1e-9;
  const auto throw_negative = [this] {
    throw std::logic_error("negative share from policy " +  // lint: alloc-ok
                           sched_->name());
  };
  const auto check_sum = [&](double sum) {
    if (validate && sum > limit) {
      throw std::logic_error("overcommitted shares from " +  // lint: alloc-ok
                             sched_->name());
    }
  };
  const double s = alloc.uniform_share();
  rates_uniform_ = alloc.uniform() && s >= 0.0 && s <= 1.0;
  // The uniform arm reads no share, so a fill()'s stay unwritten.
  const std::span<const double> shares =
      rates_uniform_ ? std::span<const double>() : alloc.shares();
  double dt_complete = kInf;
  std::size_t nonzero = 0;
  if (rates_uniform_) {
    // What dense_rates computes for n shares equal to s, from s alone and
    // without writing the shares: each rate is speed * s, Σ is the serial
    // sum of n copies of s (uniform_sum, exact in O(log n)), and the
    // dt-scan is min(phase work)/r0. A NaN, negative or above-1 s takes
    // the dense arm instead. The min over alive_[0, swept_) is the one the
    // last dense sweep carried, when it holds: min is order-free over
    // phase work (see dense_rates), so splitting the scan moves no bit.
    uniform_rate_ = cfg_.speed * s;
    if (validate) check_sum(uniform_sum(s, n));
    if (uniform_rate_ > 0.0) {
      nonzero = n;
      const std::size_t from = swept_low_valid_ ? std::min(swept_, n) : 0;
      const double low =
          std::min(swept_low_valid_ ? swept_low_ : kInf,
                   min_of(phase_rem + from, n - from));
      if (audit_allocs_) audit_uniform_scan(low);
      dt_complete = low / uniform_rate_;
    }
  } else if (alloc.dense()) {
    rates_.resize(n);
    const DenseRates d =
        dense_rates(shares.data(), phase_rem, alive_.cold.data(),
                    rates_.data(), n, cfg_.speed, validate);
    if (d.bad < n) throw_negative();
    check_sum(d.sum);
    dt_complete = d.dt;
    nonzero = d.nonzero;
    if (d.r0 > 0.0) dt_complete = std::min(dt_complete, d.p0 / d.r0);
  } else {
    const std::size_t k = sup.size();
    double sum = 0.0;
    for (const std::size_t i : sup) {
      if (validate && !(shares[i] >= 0.0)) throw_negative();
      sum += shares[i];
    }
    check_sum(sum);
    rates_.resize(k);
    // The end of the current *phase* is the next per-job event (for a
    // single-phase job that is its completion).
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = sup[j];
      const double r = cfg_.speed * alive_.cold[i].curve.rate(shares[i]);
      rates_[j] = r;
      if (r > 0.0) {
        ++nonzero;
        dt_complete = std::min(dt_complete, phase_rem[i] / r);
      }
    }
  }
  dt_complete_ = dt_complete;
  rates_nonzero_ = nonzero;
  rates_valid_ = true;
}

void Engine::lap(double& bucket) {
  const double t = obs::monotonic_seconds();
  bucket += t - t_lap_;
  t_lap_ = t;
}

// Job i's phase changes and completion test, after an advance: moves it
// through every drained phase and records it as complete when its
// remaining work is within tolerance. Returns whether it changed phase.
[[gnu::always_inline]] inline bool Engine::settle_job(std::size_t i) {
  AliveSet& s = alive_;
  const double tol = cfg_.completion_tol * std::max(1.0, s.sizes[i]);
  bool phase_advanced = false;
  while (s.phases_left[i] > 0 && s.phase_remaining[i] <= tol) {
    s.next_phase(i);  // the cold phase list is read only here
    phase_advanced = true;
  }
  if (s.remaining[i] <= tol) comp_idx_.push_back(i);
  return phase_advanced;
}

// One job's visit in the sparse advance sweep, at rate r: remaining
// work, the flow increment, the flow quotient, then settle_job. Always
// inlined into advance_sweep's loops, so the caller's flow accumulator
// stays in a register.
[[gnu::always_inline]] inline bool Engine::visit_job(std::size_t i, double r,
                                                     double dt, double& ff) {
  AliveSet& s = alive_;
  const double size = s.sizes[i];
  const double before = s.remaining[i];
  const double after = std::max(0.0, before - r * dt);
  // The phase work is kept only while some job has several phases (see
  // AliveSet::phase_remaining).
  if (s.multi_phase > 0) {
    s.phase_remaining[i] = std::max(0.0, s.phase_remaining[i] - r * dt);
  }
  ff += 0.5 * (before + after) / size * dt;
  s.remaining[i] = after;
  s.flow_q[i] = 0.5 * (after + after) / size;
  block_q_[i / kFlowBlock] = kMixed;
  return settle_job(i);
}

double Engine::visit_idle_run(double acc, std::size_t from, std::size_t to,
                              double dt, bool& phase_advanced) {
  // A rate-0 visit changes a job's flow quotient only (its remaining and
  // phase work stay as they are), and the term it adds is q*dt, so the
  // run is visit_job's, a block at a time: settle_job keeps index order,
  // and nothing it moves feeds the flow.
  AliveSet& s = alive_;
  const bool phased = s.multi_phase > 0;
  const auto quotients =
      phased ? &flow_quotients<true> : &flow_quotients<false>;
  double sum = acc;
  for (std::size_t b = from; b < to;) {
    const std::size_t end = std::min(to, (b / kFlowBlock + 1) * kFlowBlock);
    block_q_[b / kFlowBlock] = kMixed;
    if (quotients(&s.flow_q[b], &s.remaining[b], &s.sizes[b],
                  &s.phase_remaining[b], end - b, cfg_.completion_tol)) {
      for (std::size_t i = b; i < end; ++i) phase_advanced |= settle_job(i);
    }
    sum = idle_flow(sum, b, end - b, dt);
    b = end;
  }
  return sum;
}

double Engine::idle_flow(double acc, std::size_t from, std::size_t count,
                         double dt) {
  // The partial blocks at either end are summed term by term. A full
  // block whose summary holds one quotient adds it count times in O(1)
  // (repeated_scaled_sum); a mixed one is summed term by term and
  // summarized again, so after one step of rate-0 visits a block of
  // equal quotients is O(1) from then on.
  const double* const q = alive_.flow_q.data();
  const std::size_t end = from + count;
  const std::size_t first = (from + kFlowBlock - 1) / kFlowBlock;
  const std::size_t last = end / kFlowBlock;  // past the last full block
  double sum = acc;
  if (first >= last) {
    sum = ordered_scaled_sum(sum, q + from, count, dt);
  } else {
    sum = ordered_scaled_sum(sum, q + from, first * kFlowBlock - from, dt);
    for (std::size_t b = first; b < last; ++b) {
      double& common = block_q_[b];
      if (!std::isnan(common)) {
        sum = repeated_scaled_sum(sum, common, kFlowBlock, dt);
      } else {
        sum = ordered_scaled_sum(sum, q + b * kFlowBlock, kFlowBlock, dt);
        common = block_summary(q + b * kFlowBlock);
      }
    }
    sum = ordered_scaled_sum(sum, q + last * kFlowBlock,
                             end - last * kFlowBlock, dt);
  }
  if (audit_allocs_) audit_idle_flow(acc, q + from, count, dt, sum);
  return sum;
}

void Engine::audit_flow_blocks() const {
  const std::size_t n = alive_.size();
  for (std::size_t b = 0; b < block_q_.size(); ++b) {
    const double common = block_q_[b];
    if (std::isnan(common)) continue;
    PARSCHED_CHECK((b + 1) * kFlowBlock <= n,
                   "flow-quotient block marked equal past the alive set");
    for (std::size_t i = b * kFlowBlock; i < (b + 1) * kFlowBlock; ++i) {
      PARSCHED_CHECK(std::bit_cast<std::uint64_t>(alive_.flow_q[i]) ==
                         std::bit_cast<std::uint64_t>(common),
                     "flow quotient differs from its block's summary");
    }
  }
}

PARSCHED_HOT bool Engine::advance_sweep(double dt) {
  // Advance remaining work and the fractional-flow integral, move
  // multi-phase jobs whose current phase drained to the next phase (which
  // exposes its speedup curve to the policy from now on), and detect
  // completions. fractional_flow is accumulated over all n jobs in index
  // order, which is FP-semantic, with the terms a visit of every job
  // adds: 0.5*(before+after)/size*dt.
  const std::size_t n = alive_.size();
  const std::size_t tail = std::min(swept_, n);
  double ff = result_.fractional_flow;
  bool phase_advanced = false;
  if (cached_alloc_.dense()) {
    // A dense step visits every job, a block at a time (sweep_block). A
    // rate-0 job the last sweep visited keeps its remaining work (its
    // clamp max(0, r - 0) returns r, which is never -0.0), so its term
    // is the q*dt a sparse sweep adds for it, bit for bit, and it has no
    // phase or completion event (its last visit settled it). The flow
    // quotients are not written here: they go stale until the next
    // sparse sweep rebuilds them.
    // A uniform step advances every job at the one rate; a step with no
    // multi-phase job alive leaves the phase work alone, and carries the
    // least remaining work over the jobs that stay alive to the next
    // uniform dt-scan: a block's least work, or — in a block where some
    // job completes — the least work its replay leaves out of comp_idx_.
    // Completion swap-removes only move values, so after them this is the
    // min over alive_[0, swept_).
    const bool phased = alive_.multi_phase > 0;
    const auto sweep =
        rates_uniform_
            ? (phased ? &sweep_block<true, true> : &sweep_block<true, false>)
            : (phased ? &sweep_block<false, true>
                      : &sweep_block<false, false>);
    double low = kInf;
    for (std::size_t b = 0; b < n; b += kSweepBlock) {
      const std::size_t len = std::min(kSweepBlock, n - b);
      bool event = false;
      double block_low = kInf;
      ff = sweep(ff, &alive_.remaining[b], &alive_.phase_remaining[b],
                 &alive_.sizes[b], rates_uniform_ ? nullptr : &rates_[b],
                 uniform_rate_, len, dt, cfg_.completion_tol, event,
                 block_low);
      if (event) {
        block_low = kInf;
        for (std::size_t i = b; i < b + len; ++i) {
          phase_advanced |= settle_job(i);
          if (comp_idx_.empty() || comp_idx_.back() != i) {
            block_low = std::min(block_low, alive_.remaining[i]);
          }
        }
      }
      low = std::min(low, block_low);
    }
    flow_q_stale_ = true;
    swept_low_ = low;
    swept_low_valid_ = !phased;
  } else {
    // A sparse step visits the support and the unswept tail
    // alive_[swept_, n), in ascending index order. Every other job has
    // rate 0 and has been visited before, so a visit would change nothing
    // but the flow: it adds its quotient q[i]*dt instead, through
    // idle_flow over each gap between visits (the serial loop's bits, a
    // block of equal quotients in O(1)). It carries no min of the
    // remaining work.
    swept_low_valid_ = false;
    const double* const q = alive_.flow_q.data();
    if (flow_q_stale_) {
      (void)flow_quotients<false>(alive_.flow_q.data(),
                                  alive_.remaining.data(),
                                  alive_.sizes.data(), nullptr, tail,
                                  cfg_.completion_tol);
      std::fill_n(block_q_.begin(), (tail + kFlowBlock - 1) / kFlowBlock,
                  kMixed);
      flow_q_stale_ = false;
    }
    if (audit_allocs_) audit_flow_blocks();
    const double* const rate = rates_.data();
    const std::span<const std::size_t> sup = cached_alloc_.support();
    std::size_t idle_from = 0;  // first index whose flow is not yet added
    for (std::size_t j = 0; j < sup.size() && sup[j] < tail; ++j) {
      const std::size_t i = sup[j];
      ff = idle_flow(ff, idle_from, i - idle_from, dt);
      idle_from = i + 1;
      if (rate[j] == 0.0) {  // lint: float-eq-ok
        ff += q[i] * dt;  // a zero share (e.g. -0.0) stays idle
      } else {
        phase_advanced |= visit_job(i, rate[j], dt, ff);
      }
    }
    ff = idle_flow(ff, idle_from, tail - idle_from, dt);
    // The tail: every job is visited, a support job at its rate and each
    // run of rate-0 jobs between them as one (visit_idle_run), which
    // leaves the run's full blocks summarized for the next step.
    std::size_t from = tail;
    for (std::size_t j = static_cast<std::size_t>(
             std::lower_bound(sup.begin(), sup.end(), tail) - sup.begin());
         j < sup.size(); ++j) {
      const std::size_t i = sup[j];
      ff = visit_idle_run(ff, from, i, dt, phase_advanced);
      phase_advanced |= visit_job(i, rate[j], dt, ff);
      from = i + 1;
    }
    ff = visit_idle_run(ff, from, n, dt, phase_advanced);
  }
  result_.fractional_flow = ff;
  return phase_advanced;
}

PARSCHED_HOT Engine::Step Engine::decision_step(double t_arrive,
                                                double horizon) {
  // One decision interval of the simulation, for the drive loop (a
  // horizon of kInf never defers). The allocation is computed at most
  // once per decision point: a step deferred past the horizon caches
  // it — the context the policy saw
  // (now_, machines, alive_) cannot change while deferred, because
  // admissions land in pending_ and time only moves inside this function.
  if (stats_ != nullptr) lap(stats_->admit_seconds);  // the source's query
  if (!has_cached_alloc_) {
    if (++result_.decisions > cfg_.max_decisions) {
      throw std::runtime_error("engine exceeded max_decisions guard");
    }
    SchedulerContext ctx(now_, m_, alive_.view(), orders_);
    // PARSCHED_AUDIT: warm allocate+rates sections must not touch the
    // heap — every scratch buffer is capacity-stable once a step at this
    // alive count has completed. (A policy-error throw inside the scope
    // surfaces as the guard's ContractViolation under audit, since
    // building the error message allocates; the diagnostic still names
    // the offending region.)
    std::optional<AllocGuard> fence;
    if (audit_allocs_ && alive_.size() <= alloc_warm_n_) {
      fence.emplace("Engine decision step: allocate+rates");
    }
    sched_->allocate(ctx, cached_alloc_);
    if (stats_ != nullptr) {
      lap(stats_->decide_seconds);
      stats_->alive_count.add(static_cast<double>(alive_.size()));
    }
    if (cached_alloc_.size() != alive_.size()) {
      fence.reset();
      throw std::logic_error("allocation size mismatch from policy " +
                             sched_->name());
    }
    compute_rates(cfg_.validate_allocations);
    if (audit_allocs_) audit_support();
    fence.reset();
    alloc_warm_n_ = std::max(alloc_warm_n_, alive_.size());
    if (stats_ != nullptr) lap(stats_->rates_seconds);
    if (!observers_.empty()) {
      // Observers take AliveJob records: materialize them only when some
      // observer is attached (the cost lands in the observer bucket).
      alive_.materialize(observed_);
      for (Observer* obs : observers_) {
        obs->on_decision(now_, observed_, cached_alloc_.shares());
      }
    }
    if (stats_ != nullptr) lap(stats_->observer_seconds);
    has_cached_alloc_ = true;
  } else {
    // Resuming a deferred decision: the context the policy saw is frozen
    // (that is the deferral contract), so the rates computed at decision
    // time are still exact. Only a snapshot restore — which does not
    // serialize scratch — needs them rebuilt, from the same frozen
    // inputs, hence bit-identically.
    if (!rates_valid_) compute_rates(false);
  }
  const Allocation& alloc = cached_alloc_;
  if (alloc.reconsider_at != kInf && alloc.reconsider_at <= now_) {
    throw std::logic_error("policy " + sched_->name() +
                           " requested reconsideration in the past");
  }
  double dt = dt_complete_;
  dt = std::min(dt, t_arrive - now_);
  dt = std::min(dt, alloc.reconsider_at - now_);
  if (dt == kInf) {
    if (horizon == kInf) {
      record_failure(false, 0, "simulation_stall");
      throw SimulationStall(now_);
    }
    if (stats_ != nullptr) lap(stats_->rates_seconds);
    return Step::kDeferred;
  }
  dt = std::max(dt, 0.0);
  if (now_ + dt > horizon) {
    if (stats_ != nullptr) lap(stats_->rates_seconds);
    return Step::kDeferred;
  }
  has_cached_alloc_ = false;
  if (stats_ != nullptr) {
    stats_->decision_interval.add(dt);
    lap(stats_->rates_seconds);
  }

  comp_idx_.clear();
  // PARSCHED_AUDIT: the fused sweep and the heap upkeep are pure per-job
  // arithmetic over capacity-stable buffers (comp_idx_ is pre-reserved at
  // admission), so on a warm step they must not allocate. Completion
  // record-keeping below is result accumulation, not scratch, and stays
  // outside the fence.
  std::optional<AllocGuard> sweep_fence;
  if (audit_allocs_ && alive_.size() <= alloc_warm_n_) {
    sweep_fence.emplace("Engine decision step: advance sweep");
  }
  const bool phase_advanced = advance_sweep(dt);
  if (stats_ != nullptr) lap(stats_->advance_seconds);
  // SRPT key maintenance for the jobs that ran (latest-arrival keys never
  // change). With a sparse allocation (SRPT-style: at most m of n jobs
  // run) each changed key costs one O(log n) sift, applied in ascending
  // index order (the keys live in the heap entries, so the order of
  // updates is all that matters); when most keys move at once
  // (EQUI-style dense allocations, > n/8 nonzero rates) n sifts lose to
  // one O(n) gather, so the SRPT heap is marked stale instead and
  // regathered at its next query (never, for policies that do not read
  // SRPT order). dt == 0 moves no key, and a heap already stale stays
  // stale for free.
  // Exact-zero test on purpose: dt == 0 steps (simultaneous events)
  // change no remaining-work key bit, so the heaps need no maintenance.
  if (dt != 0.0 && !orders_.srpt.stale()) {  // lint: float-eq-ok
    if (rates_nonzero_ * 8 > alive_.size()) {
      orders_.srpt.mark_stale();
    } else {
      const AliveView view = alive_.view();
      const bool dense = alloc.dense();
      const std::span<const std::size_t> sup = alloc.support();
      const std::size_t k = dense ? alive_.size() : sup.size();
      for (std::size_t j = 0; j < k; ++j) {
        if (support_rate(j) == 0.0) continue;  // lint: float-eq-ok
        orders_.srpt.refresh(view, dense ? j : sup[j]);
      }
    }
  }
  sweep_fence.reset();
  if (stats_ != nullptr) lap(stats_->heap_upkeep_seconds);
  now_ += dt;

  // Handle completions (anything within tolerance of zero). The removal
  // order, the flow-total accumulation order, and the final alive_ order
  // (which feeds the next decision's SchedulerContext) are all
  // bit-semantic, so the sparse sweep below replays the original
  // full-scan swap-remove loop move for move, visiting only the
  // positions collected above: removing comp_idx_[lo] pulls the current
  // back element into its slot, and if that element is itself complete —
  // it is then necessarily comp_idx_[hi-1], the largest pending position
  // — it is removed in place before the scan conceptually moves on,
  // exactly as the original loop's stationary `i` did. Observer
  // callbacks are lifted out of the sweep: they fire after it, in job-id
  // order, so the notification order for simultaneous completions does
  // not depend on swap-remove internals.
  const std::size_t first_new_record = result_.records.size();
  if (!comp_idx_.empty()) {
    std::size_t end = alive_.size();
    std::size_t lo = 0;
    std::size_t hi = comp_idx_.size();
    while (lo < hi) {
      std::size_t i = comp_idx_[lo++];
      for (;;) {
        AliveCold& c = alive_.cold[i];
        JobRecord rec;
        rec.job.id = alive_.ids[i];
        rec.job.release = alive_.releases[i];
        rec.job.size = alive_.sizes[i];
        rec.job.weight = alive_.weights[i];
        rec.job.curve = c.phases.empty() ? c.curve : c.phases.front().curve;
        rec.job.tag = c.tag;
        rec.job.phases = alive_.take_phases(i);
        rec.completion = now_;
        result_.total_flow += rec.flow();
        result_.weighted_flow += rec.job.weight * rec.flow();
        result_.makespan = std::max(result_.makespan, now_);
        completed_.insert(rec.job.id);
        ++result_.events;
        if (cfg_.recorder != nullptr) {
          cfg_.recorder->record(obs::FlightEvent::kComplete,
                                static_cast<std::uint64_t>(rec.job.id), now_,
                                rec.flow(),
                                static_cast<std::uint32_t>(end - 1));
        }
        result_.records.push_back(std::move(rec));
        --end;
        // Slot i takes the back job's flow quotient and slot `end` leaves
        // the set, so no block marked equal reaches past the alive set.
        block_q_[i / kFlowBlock] = kMixed;
        block_q_[end / kFlowBlock] = kMixed;
        // Mirror the swap-remove into the heaps: delete index i, remap
        // the back entry (alive index `end`) to i — the same move
        // relocate() performs on every array. O(log n) per fresh heap.
        orders_.remove_swap(i, end);
        if (i == end) break;
        alive_.relocate(end, i);
        if (hi > lo && comp_idx_[hi - 1] == end) {
          --hi;  // the element swapped in is itself complete: remove in place
          continue;
        }
        break;
      }
    }
    alive_.resize(end);
  }
  swept_ = alive_.size();  // the sweep visited the whole tail
  const std::size_t n_completed = result_.records.size() - first_new_record;
  if (n_completed > 0 && !observers_.empty()) {
    completion_order_.resize(n_completed);
    for (std::size_t i = 0; i < n_completed; ++i) {
      completion_order_[i] = first_new_record + i;
    }
    std::sort(completion_order_.begin(), completion_order_.end(),
              [this](std::size_t a, std::size_t b) {
                return result_.records[a].job.id < result_.records[b].job.id;
              });
    for (const std::size_t r : completion_order_) {
      for (Observer* obs : observers_) {
        obs->on_completion(now_, result_.records[r].job);
      }
    }
  }

  // Zero-dt livelock guard: a step with dt == 0 that advanced no phase
  // and completed no job left the engine exactly where it was, and with a
  // stateless policy it will do so forever (e.g. FP drift leaving a
  // multi-phase job's last phase at exactly 0 while `remaining` sits just
  // above tolerance). Stateful policies may legitimately need a few
  // zero-dt decisions to rotate out of the corner, so only a streak
  // longer than any one policy's state cycle — alive_.size() + 2 covers
  // every in-tree policy — is declared a stall, with a diagnostic naming
  // the stuck job instead of silently burning the max_decisions budget.
  if (dt > 0.0 || phase_advanced || n_completed > 0) {
    zero_dt_streak_ = 0;
  } else if (++zero_dt_streak_ > alive_.size() + 2) {
    std::ostringstream os;  // lint: alloc-ok (stall diagnostic, cold path)
    os << "zero-length decision intervals are making no progress";
    std::uint64_t stuck = 0;
    // No job completed, so the support still indexes alive_.
    const std::span<const std::size_t> sup = alloc.support();
    const std::size_t k = alloc.dense() ? alive_.size() : sup.size();
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = alloc.dense() ? j : sup[j];
      if (support_rate(j) > 0.0 && alive_.phase_work(i) <= 0.0) {
        stuck = static_cast<std::uint64_t>(alive_.ids[i]);
        const std::size_t phases =
            std::max<std::size_t>(1, alive_.cold[i].phases.size());
        os << "; stuck job id=" << alive_.ids[i] << " (phase "
           << (phases - alive_.phases_left[i]) << "/" << phases
           << " drained, remaining=" << alive_.remaining[i]
           << " still above completion tolerance)";
        break;
      }
    }
    record_failure(false, stuck, "simulation_stall");
    throw SimulationStall(now_, os.str());
  }
  // PARSCHED_AUDIT: after every advanced step, cross-check the
  // fresh heaps against the alive set — key payloads, position maps and
  // heap properties (O(n), audit runs only). A divergence here trips a
  // contract failure at the step that caused it instead of surfacing
  // decisions later as a wrong ordering.
  if (audit_allocs_) orders_.audit(alive_.view());
  if (cfg_.recorder != nullptr) {
    cfg_.recorder->record(obs::FlightEvent::kDecision, result_.decisions,
                          now_, dt,
                          static_cast<std::uint32_t>(alive_.size()));
  }
  if (stats_ != nullptr) lap(stats_->completion_seconds);
  return Step::kAdvanced;
}

void Engine::drain_to(ArrivalSource& source, double horizon) {
  // The one drive loop, for run() (horizon kInf: never defers) and the
  // streaming API (its pending queue is the source). Every step ends
  // with the arrivals due at its end time; with collect_stats on, every
  // moment from the caller's lap start lands in some bucket.
  for (;;) {
    if (alive_.empty()) {
      // Idle, or the clock's start (now_ is 0): jump to the next arrival.
      const double nt = source.next_time(*this);
      if (nt == kInf || nt > horizon) return;
      now_ = std::max(now_, nt);
    } else {
      // The source sees the state at the top of the iteration (allocate()
      // does not touch it), so asking it before the step keeps adaptive
      // sources' answers unchanged.
      const double t_arrive = source.next_time(*this);
      try {
        if (decision_step(t_arrive, horizon) == Step::kDeferred) return;
      } catch (const ContractViolation&) {
        // An alloc-guard / contract trip escaping a decision step is a
        // flight-recorder moment: dump the ring before the exception
        // unwinds past the engine.
        record_failure(true, 0, "contract_trip");
        throw;
      }
    }
    admit_pending(source);
    if (stats_ != nullptr) lap(stats_->admit_seconds);
  }
}

SimResult Engine::end_run() {
  for (Observer* obs : observers_) obs->on_done(now_);
  finalize_run();
  return take_result();
}

SimResult Engine::run(Scheduler& sched, ArrivalSource& source) {
  begin_run(sched);
  source.reset();
  drain_to(source, kInf);
  return end_run();
}

// ---- Streaming API --------------------------------------------------------

void Engine::begin(Scheduler& sched) {
  begin_run(sched);
  streaming_ = true;
}

void Engine::admit(Job job) {
  PARSCHED_CHECK(streaming_, "Engine::admit() outside a streaming run");
  // Validate now, so a bad job is refused to its sender rather than at
  // its release, inside a later advance_to().
  job.normalize_phases();
  check_job(job);
  if (job.release < frontier_) {
    std::ostringstream os;
    os << "admission in the past: release " << job.release
       << " < frontier " << frontier_;
    throw std::invalid_argument(os.str());
  }
  pending_.push(std::move(job));
}

void Engine::advance_to(double t) {
  PARSCHED_CHECK(streaming_, "Engine::advance_to() outside a streaming run");
  if (stats_ != nullptr) t_lap_ = obs::monotonic_seconds();
  frontier_ = std::max(frontier_, t);
  // Room for every queued job at once: the queue hands a large release
  // out in parts, and growing the alive columns part by part fragments
  // the heap (DESIGN §2.3, the drive loop).
  if (!pending_.jobs().empty()) {
    reserve_alive(alive_.size() + pending_.jobs().size());
  }
  drain_to(pending_, frontier_);
}

SimResult Engine::finish() {
  PARSCHED_CHECK(streaming_, "Engine::finish() outside a streaming run");
  advance_to(kInf);
  streaming_ = false;
  return end_run();
}

EngineState Engine::export_state() const {
  PARSCHED_CHECK(streaming_, "Engine::export_state() outside a streaming run");
  EngineState s;
  s.machines = m_;
  s.config = cfg_;
  s.now = now_;
  s.frontier = frontier_;
  s.arrival_seq = arrival_seq_;
  alive_.materialize(s.alive);
  s.completed.assign(completed_.begin(), completed_.end());
  std::sort(s.completed.begin(), s.completed.end());
  s.pending.assign(pending_.jobs().begin(), pending_.jobs().end());
  s.has_cached_alloc = has_cached_alloc_;
  s.cached_alloc = cached_alloc_;
  s.result = result_;
  s.result.stats.reset();  // wall-time profiling is measurement, not state
  return s;
}

void Engine::import_state(const EngineState& s, Scheduler& sched) {
  if (s.machines != m_) {
    throw std::invalid_argument("snapshot machine count mismatch");
  }
  // The config fields that enter the decision arithmetic must match the
  // donor exactly, or the continuation silently diverges bit-by-bit from
  // the run that produced the snapshot. (The profiling/guard knobs are
  // deliberately not checked: they do not affect the computed
  // trajectory.)
  if (s.config.speed != cfg_.speed) {
    throw std::invalid_argument("snapshot engine speed mismatch");
  }
  if (s.config.completion_tol != cfg_.completion_tol) {
    throw std::invalid_argument("snapshot completion_tol mismatch");
  }
  if (s.config.time_tol != cfg_.time_tol) {
    throw std::invalid_argument("snapshot time_tol mismatch");
  }
  validate(s);
  sched_ = &sched;  // no reset(): the caller restored the policy's state
  streaming_ = true;
  now_ = s.now;
  frontier_ = s.frontier;
  arrival_seq_ = s.arrival_seq;
  alive_.assign(s.alive);
  completed_ =
      std::unordered_set<JobId>(s.completed.begin(), s.completed.end());
  pending_ = JobQueue();
  for (const Job& j : s.pending) pending_.push(j);
  has_cached_alloc_ = s.has_cached_alloc;
  // Rebuild the support from the nonzero shares: a restored allocation
  // carries no trustworthy support of its own.
  cached_alloc_.assign(
      std::vector<double>(s.cached_alloc.shares().begin(),
                          s.cached_alloc.shares().end()));
  cached_alloc_.reconsider_at = s.cached_alloc.reconsider_at;
  result_ = s.result;
  result_.stats.reset();
  zero_dt_streak_ = 0;  // scratch, not state: restart the livelock guard
  alloc_warm_n_ = 0;  // scratch is cold after a restore; re-warm unguarded
  // Every restored job is in the unswept tail: the first sweep visits
  // each one and recomputes its flow quotient. For a job the donor had
  // already swept, that visit changes nothing else.
  swept_ = 0;
  swept_low_valid_ = false;
  flow_q_stale_ = false;
  std::fill(block_q_.begin(), block_q_.end(), kMixed);
  reserve_alive(alive_.size() + pending_.jobs().size());
  // The heaps are derived state: both go stale, and each order's first
  // query regathers it from the restored alive set, bit-identically to
  // the donor (both orders are strict total orders).
  orders_.clear();
  rates_valid_ = false;  // a deferred decision recomputes its rates once
  stats_ = nullptr;  // profiling does not continue across a restore
  run_start_ = 0.0;
}

void validate(const EngineState& s) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string("snapshot state: ") + what);
  };
  if (!(s.now >= 0.0) || !std::isfinite(s.now)) {
    reject("now is NaN, infinite or negative");
  }
  if (!(s.now <= s.frontier)) reject("now is past the frontier, or NaN");
  const auto check_curve = [&](const SpeedupCurve& c) {
    if (!is_valid_speedup_curve(c)) {
      reject("a speedup curve fails is_valid_speedup_curve");
    }
  };
  std::unordered_set<JobId> ids;
  for (const AliveJob& a : s.alive) {
    // AliveSet keeps phases.size() - 1 - phase, which must not underflow.
    if (a.phase >= std::max<std::size_t>(1, a.phases.size())) {
      reject("alive job phase index out of range");
    }
    if (!(a.size > 0.0) || !std::isfinite(a.size) ||
        !std::isfinite(a.release) || !std::isfinite(a.weight)) {
      reject("alive job size, release or weight is not finite");
    }
    // The engine's clamps only ever produce +0.0, and the dense step
    // relies on it (the sweep's max(0, r - 0) keeps an idle job's work
    // unchanged; the dt-scan's min over phase ends is order-free), so a
    // restored -0.0 is rejected as well.
    if (!(a.remaining >= 0.0)) {
      reject("alive job remaining work is NaN or negative");
    }
    if (std::signbit(a.remaining)) reject("alive job remaining work is -0.0");
    if (a.remaining > a.size) {
      reject("alive job remaining work exceeds its size");
    }
    if (std::isnan(a.phase_remaining)) {
      reject("alive job phase_remaining is NaN");
    }
    if (std::isinf(a.phase_remaining)) {
      reject("alive job phase_remaining is infinite");
    }
    if (a.phase_remaining < 0.0) {
      reject("alive job phase_remaining is negative");
    }
    if (std::signbit(a.phase_remaining)) {
      reject("alive job phase_remaining is -0.0");
    }
    if (!ids.insert(a.id).second) reject("duplicate alive job id");
    if (!(a.arrival_seq >= 0 && a.arrival_seq < s.arrival_seq)) {
      reject("alive job arrival_seq is outside [0, arrival_seq)");
    }
    check_curve(a.curve);
    for (const JobPhase& p : a.phases) check_curve(p.curve);
  }
  ids.clear();
  for (const JobId id : s.completed) {
    if (!ids.insert(id).second) reject("duplicate completed job id");
  }
  for (std::size_t i = 0; i < s.pending.size(); ++i) {
    const Job& j = s.pending[i];
    check_job(j);
    if (j.release < s.frontier) {
      reject("pending job released below the frontier");
    }
    if (i > 0 && j.release < s.pending[i - 1].release) {
      reject("pending jobs are not sorted by release");
    }
    check_curve(j.curve);
    for (const JobPhase& p : j.phases) check_curve(p.curve);
  }
  // A deferred decision resumes through compute_rates(false), which
  // validates nothing: one share per alive job, each finite and
  // nonnegative, Σ within the engine's own overcommit bound.
  if (s.has_cached_alloc) {
    const std::span<const double> shares = s.cached_alloc.shares();
    if (shares.size() != s.alive.size()) {
      reject("cached allocation size does not match the alive set");
    }
    double sum = 0.0;
    for (const double x : shares) {
      if (!std::isfinite(x) || x < 0.0) {
        reject("cached allocation has a negative or non-finite share");
      }
      sum += x;
    }
    if (sum > static_cast<double>(s.machines) * (1.0 + 1e-9) + 1e-9) {
      reject("cached allocation overcommits the machines");
    }
  }
  // The engine keeps no phase work for a job with at most one phase: it
  // is that job's remaining work, bit for bit (AliveSet::phase_remaining).
  for (const AliveJob& a : s.alive) {
    if (a.phases.size() <= 1 &&
        std::bit_cast<std::uint64_t>(a.phase_remaining) !=
            std::bit_cast<std::uint64_t>(a.remaining)) {
      reject("alive job with at most one phase has phase_remaining != "
             "remaining");
    }
  }
}

SimResult simulate(const Instance& instance, Scheduler& sched,
                   const EngineConfig& config,
                   const std::vector<Observer*>& observers) {
  Engine engine(instance.machines(), config);
  for (Observer* obs : observers) engine.add_observer(obs);
  JobQueue source;
  for (const Job& j : instance.jobs()) source.push(j);
  return engine.run(sched, source);
}

}  // namespace parsched
