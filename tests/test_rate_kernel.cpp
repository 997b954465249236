// Tests for src/speedup/kernel.hpp — the batched rate kernel — and for
// the engine's alive set (simcore/alive_set.hpp) and the rates the engine
// computes from its curves.
//
// The contract under test, layer by layer:
//   * rate_batch is bit-identical to the scalar SpeedupCurve::rate()
//     loop (no engine path calls it).
//   * The alive set's view and its materialized AliveJob records match a
//     reference vector<AliveJob> field for field under admit (Job
//     straight into the columns) / advance / phase change / mass
//     swap-remove / restore (the same append, then each record's
//     progress).
//   * Inside the engine, the view, the records observers receive and the
//     snapshot records agree under any interleaving of admit / advance /
//     complete / snapshot-import, and the engine's rate at each support
//     position of the cached decision is Γ(share), uniform ones included;
//     a dense decision's shares above 1 are rated through each job's own
//     curve, and its dt is the serial min of phase work / rate.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/registry.hpp"
#include "simcore/engine.hpp"
#include "simcore/instance.hpp"
#include "speedup/curve.hpp"
#include "speedup/kernel.hpp"
#include "util/rng.hpp"

namespace parsched {
namespace {

using speedup::rate_batch;

// A deterministic mixed population: all four kinds, α spread over (0, 1),
// shares spanning [0, x_max] including the x <= 1 boundary band.
struct Population {
  std::vector<SpeedupCurve> curves;
  std::vector<std::uint8_t> kinds;
  std::vector<double> alphas;
  std::vector<double> xs;
};

Population mixed_population(std::size_t n, double x_max, std::uint64_t seed) {
  Population p;
  Rng rng(seed);
  p.curves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        p.curves.push_back(SpeedupCurve::fully_parallel());
        break;
      case 1:
        p.curves.push_back(SpeedupCurve::sequential());
        break;
      case 2:
        p.curves.push_back(SpeedupCurve::power_law(rng.uniform(0.05, 0.95)));
        break;
      default:
        p.curves.push_back(
            SpeedupCurve::piecewise_linear({{2.0, 1.8}, {8.0, 3.0}}));
        break;
    }
    // Half the shares land in [0, 1.25] so the x <= 1 branch is dense.
    p.xs.push_back(rng.bernoulli(0.5) ? rng.uniform(0.0, 1.25)
                                      : rng.uniform(1.0, x_max));
  }
  for (const SpeedupCurve& c : p.curves) {
    p.kinds.push_back(static_cast<std::uint8_t>(c.kind()));
    p.alphas.push_back(c.alpha());
  }
  return p;
}

speedup::PwlRateFn pwl_from(const std::vector<SpeedupCurve>& curves) {
  return {[](const void* ctx, std::size_t i, double x) {
            const auto* cs = static_cast<const std::vector<SpeedupCurve>*>(ctx);
            return (*cs)[i].rate(x);
          },
          &curves};
}

TEST(RateKernel, DefaultArmBitIdenticalToScalarLoop) {
  const Population p = mixed_population(4096, 64.0, 0xA11CE);
  for (const double speed : {1.0, 1.5, 2.0}) {
    std::vector<double> out(p.xs.size());
    rate_batch(p.kinds, p.alphas, p.xs, speed, out, pwl_from(p.curves));
    for (std::size_t i = 0; i < p.xs.size(); ++i) {
      const double scalar = speed * p.curves[i].rate(p.xs[i]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(scalar))
          << "kind=" << static_cast<int>(p.kinds[i]) << " x=" << p.xs[i]
          << " speed=" << speed << " at i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// The alive set against a reference vector<AliveJob>.

void expect_same_job(const AliveJob& got, const AliveJob& want,
                     const std::string& where) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(got.id, want.id) << where;
  EXPECT_EQ(bits(got.release), bits(want.release)) << where;
  EXPECT_EQ(bits(got.size), bits(want.size)) << where;
  EXPECT_EQ(bits(got.remaining), bits(want.remaining)) << where;
  EXPECT_EQ(bits(got.weight), bits(want.weight)) << where;
  EXPECT_EQ(got.curve, want.curve) << where;
  EXPECT_EQ(got.arrival_seq, want.arrival_seq) << where;
  EXPECT_EQ(got.tag, want.tag) << where;
  EXPECT_EQ(got.phases, want.phases) << where;
  EXPECT_EQ(got.phase, want.phase) << where;
  EXPECT_EQ(bits(got.phase_remaining), bits(want.phase_remaining)) << where;
}

/// The view's accessors, materialize() into a fresh buffer
/// and into `refreshed` (a buffer carried over from earlier calls) all
/// equal `ref`.
void expect_set_matches(const AliveSet& set, const std::vector<AliveJob>& ref,
                        const std::string& what,
                        std::vector<AliveJob>& refreshed) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const AliveView view = set.view();
  ASSERT_EQ(view.size(), ref.size()) << what;
  std::vector<AliveJob> records;
  set.materialize(records);
  set.materialize(refreshed);
  ASSERT_EQ(refreshed.size(), ref.size()) << what;
  ASSERT_EQ(records.size(), ref.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const AliveJob& want = ref[i];
    const std::string where = what + " i=" + std::to_string(i);
    EXPECT_EQ(view.id(i), want.id) << where;
    EXPECT_EQ(bits(view.release(i)), bits(want.release)) << where;
    EXPECT_EQ(bits(view.job_size(i)), bits(want.size)) << where;
    EXPECT_EQ(bits(view.remaining(i)), bits(want.remaining)) << where;
    EXPECT_EQ(bits(view.weight(i)), bits(want.weight)) << where;
    EXPECT_EQ(view.arrival_seq(i), want.arrival_seq) << where;
    EXPECT_EQ(view.curve(i), want.curve) << where;
    expect_same_job(records[i], want, where + " materialized");
    expect_same_job(refreshed[i], want, where + " refreshed");
  }
}

/// A random arrival: single-phase, or three phases over three curve kinds.
Job random_job(Rng& rng, JobId id) {
  Job j;
  j.id = id;
  j.release = rng.uniform(0.0, 4.0);
  j.weight = rng.uniform(0.5, 2.0);
  j.tag.phase = static_cast<int>(rng.uniform_int(-1, 3));
  j.tag.index = static_cast<std::int64_t>(id);
  if (rng.bernoulli(0.5)) {
    j.curve = SpeedupCurve::power_law(rng.uniform(0.1, 0.9));
    j.size = rng.uniform(0.5, 3.0);
  } else {
    j.phases = {{rng.uniform(0.2, 1.0), SpeedupCurve::power_law(0.3)},
                {rng.uniform(0.2, 1.0), SpeedupCurve::sequential()},
                {rng.uniform(0.2, 1.0),
                 SpeedupCurve::piecewise_linear({{2.0, 1.5}, {4.0, 2.0}})}};
    j.normalize_phases();
  }
  return j;
}

/// The record of `j` as it arrives: all work left, first phase current.
AliveJob arrival_record(const Job& j, std::int64_t seq) {
  AliveJob a;
  a.id = j.id;
  a.release = j.release;
  a.size = j.size;
  a.remaining = j.size;
  a.weight = j.weight;
  a.curve = j.curve;
  a.arrival_seq = seq;
  a.tag = j.tag;
  a.phases = j.phases;
  a.phase_remaining = j.phases.empty() ? j.size : j.phases[0].work;
  return a;
}

TEST(AliveSet, ViewAndRecordsMatchReferenceUnderChurn) {
  Rng rng(0xA11E);
  AliveSet set;
  std::vector<AliveJob> ref;
  std::vector<AliveJob> refreshed;
  JobId next_id = 0;
  for (int round = 0; round < 300; ++round) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op <= 3 || ref.size() < 4) {
      // Admit a few jobs.
      set.reserve(set.size() + 3);
      for (int k = 0; k < 3; ++k) {
        const Job j = random_job(rng, next_id);
        const auto seq = static_cast<std::int64_t>(next_id);
        ++next_id;
        set.append(j, seq);
        ref.push_back(arrival_record(j, seq));
      }
    } else if (op <= 5) {
      // Advance: remaining and phase_remaining drop by the same work.
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (!rng.bernoulli(0.6)) continue;
        const double w = rng.uniform(0.0, 0.4);
        ref[i].remaining = std::max(0.0, ref[i].remaining - w);
        ref[i].phase_remaining = std::max(0.0, ref[i].phase_remaining - w);
        set.remaining[i] = ref[i].remaining;
        set.phase_remaining[i] = ref[i].phase_remaining;
      }
    } else if (op == 6) {
      // Phase change for every multi-phase job not yet in its last phase.
      for (std::size_t i = 0; i < ref.size(); ++i) {
        AliveJob& a = ref[i];
        if (a.phases.empty() || a.phase + 1 >= a.phases.size()) continue;
        ASSERT_GT(set.phases_left[i], 0u);
        ++a.phase;
        a.phase_remaining = a.phases[a.phase].work;
        a.curve = a.phases[a.phase].curve;
        set.next_phase(i);
      }
    } else if (op <= 8) {
      // Mass completion: swap-remove about a third of the jobs, largest
      // position first, then truncate once.
      std::size_t end = ref.size();
      for (std::size_t i = ref.size(); i-- > 0;) {
        if (!rng.bernoulli(0.35)) continue;
        --end;
        if (i != end) {
          set.relocate(end, i);
          ref[i] = ref[end];
        }
      }
      set.resize(end);
      ref.resize(end);
    } else {
      // Restore from the materialized records.
      std::vector<AliveJob> records;
      set.materialize(records);
      AliveSet restored;
      restored.assign(records);
      set = std::move(restored);
    }
    expect_set_matches(set, ref, "round " + std::to_string(round),
                       refreshed);
    ASSERT_EQ(set.flow_q.size(), ref.size());
    ASSERT_EQ(set.cold.size(), ref.size());
    if (HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// The engine's alive set: property test over admit / advance / complete /
// snapshot-import interleavings.

/// Checks, at every decision, that the records observers receive are the
/// engine's alive set, field for field.
class RecordsCheck final : public Observer {
 public:
  const Engine* engine = nullptr;
  std::size_t decisions = 0;

  void on_decision(double, std::span<const AliveJob> alive,
                   std::span<const double> shares) override {
    ++decisions;
    const AliveSet& set = engine->alive_set();
    ASSERT_EQ(shares.size(), set.size());
    expect_set_matches(set, {alive.begin(), alive.end()},
                       "observer decision " + std::to_string(decisions),
                       refreshed_);
  }

 private:
  std::vector<AliveJob> refreshed_;
};

/// Which rates arm computed a cached decision (Engine::compute_rates).
enum class RatesArm { kNone, kUniform, kDense, kSparse };

/// `rates_computed`: the engine has computed the rates of its cached
/// decision (false right after a snapshot import, which recomputes them
/// at the first resume). Returns the arm that rated that decision, or
/// kNone when there is none or it was not checked.
RatesArm expect_engine_consistent(const Engine& eng,
                                  bool rates_computed = true) {
  const EngineState st = eng.export_state();
  // The snapshot's records are the alive set, field for field.
  std::vector<AliveJob> refreshed;
  expect_set_matches(eng.alive_set(), st.alive, "engine", refreshed);
  if (!st.has_cached_alloc || !rates_computed) return RatesArm::kNone;
  // The engine answers one rate per support position of the cached
  // decision — for a uniform one, without a rate per job behind it.
  const Allocation& alloc = st.cached_alloc;
  const std::size_t k =
      alloc.dense() ? st.alive.size() : alloc.support().size();
  EXPECT_EQ(eng.support_rate_count(), k);
  for (std::size_t j = 0; j < std::min(k, eng.support_rate_count()); ++j) {
    const std::size_t i = alloc.dense() ? j : alloc.support()[j];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(eng.support_rate(j)),
              std::bit_cast<std::uint64_t>(
                  st.alive[i].curve.rate(alloc.shares()[i])))
        << "rate mismatch at support position " << j;
  }
  if (!alloc.dense()) return RatesArm::kSparse;
  const double s = alloc.uniform_share();
  return alloc.uniform() && s >= 0.0 && s <= 1.0 ? RatesArm::kUniform
                                                 : RatesArm::kDense;
}

Job random_job(Rng& rng, JobId id, double release) {
  Job j;
  j.id = id;
  j.release = release;
  j.size = rng.uniform(0.2, 3.0);
  switch (rng.uniform_int(0, 4)) {
    case 0:
      j.curve = SpeedupCurve::fully_parallel();
      break;
    case 1:
      j.curve = SpeedupCurve::sequential();
      break;
    case 2:
      j.curve = SpeedupCurve::power_law(rng.uniform(0.1, 0.9));
      break;
    case 3:
      j.curve = SpeedupCurve::piecewise_linear({{2.0, 1.5}, {4.0, 2.0}});
      break;
    default:
      // Multi-phase: the phase switch rewrites the live curve, which
      // the engine rates the job through from then on.
      return make_phased_job(
          id, release,
          {{rng.uniform(0.2, 1.0), SpeedupCurve::power_law(0.3)},
           {rng.uniform(0.2, 1.0), SpeedupCurve::sequential()},
           {rng.uniform(0.2, 1.0), SpeedupCurve::fully_parallel()}});
  }
  return j;
}

/// Random admit / advance / snapshot-restore interleavings under
/// `policy`, checking the engine's consistency after every advance.
/// Returns how many checked decisions each arm rated, indexed by RatesArm.
std::array<int, 4> drive_interleaving(const std::string& policy) {
  SCOPED_TRACE(policy);
  auto eng = std::make_unique<Engine>(4);
  auto sched = make_scheduler(policy);
  RecordsCheck check;
  check.engine = eng.get();
  eng->add_observer(&check);
  eng->begin(*sched);

  Rng rng(0x50A1);
  JobId next_id = 0;
  std::size_t admitted = 0;
  std::array<int, 4> arms{};
  for (int step = 0; step < 160; ++step) {
    const double frontier = eng->frontier();
    const auto n_admit = rng.uniform_int(0, 2);
    for (int k = 0; k < n_admit; ++k) {
      eng->admit(random_job(rng, next_id++, frontier + rng.uniform(0.0, 1.0)));
      ++admitted;
    }
    if (step == 100) {
      // A backlog of mixed jobs: ISRPT then serves 4 of > 32 alive, a
      // support small enough to stay a sparse index list.
      for (int k = 0; k < 60; ++k) {
        eng->admit(random_job(rng, next_id++, frontier));
        ++admitted;
      }
    }
    if (step % 20 == 9) {
      // A burst of identical jobs: they complete at the same instant,
      // so one step swap-removes them all.
      for (int k = 0; k < 6; ++k) {
        Job j;
        j.id = next_id++;
        j.release = frontier;
        j.size = 0.25;
        eng->admit(j);
        ++admitted;
      }
    }
    eng->advance_to(frontier + rng.uniform(0.05, 0.9));
    ++arms[static_cast<std::size_t>(expect_engine_consistent(*eng))];

    if (step % 40 == 17) {
      // Snapshot round-trip into a fresh engine mid-run: import_state
      // must rebuild the alive set from the restored records.
      const EngineState st = eng->export_state();
      auto eng2 = std::make_unique<Engine>(4);
      auto sched2 = make_scheduler(policy);
      eng2->add_observer(&check);
      eng2->import_state(st, *sched2);
      expect_engine_consistent(*eng2, /*rates_computed=*/false);
      check.engine = eng2.get();
      eng = std::move(eng2);
      sched = std::move(sched2);
    }
    if (::testing::Test::HasFailure()) return arms;
  }
  const SimResult r = eng->finish();
  EXPECT_EQ(r.jobs(), admitted);
  EXPECT_GT(check.decisions, 160u);
  return arms;
}

int checked(const std::array<int, 4>& arms, RatesArm arm) {
  return arms[static_cast<std::size_t>(arm)];
}

TEST(EngineAliveSet, ViewRecordsAndSnapshotAgreeUnderInterleaving) {
  // ISRPT grants whole machines (share 1, where every curve rates x);
  // Par-SRPT puts all m machines on one job, so a sparse support's rate
  // depends on that job's curve kind, piecewise-linear ones included.
  // EQUI fills m/n: a uniform decision once n >= m, whose rates the
  // engine keeps as one scalar; a dense one (shares above 1, rated by
  // each job's curve) while n < m.
  EXPECT_GT(checked(drive_interleaving("isrpt"), RatesArm::kSparse), 0);
  EXPECT_GT(checked(drive_interleaving("par-srpt"), RatesArm::kSparse), 0);
  const std::array<int, 4> equi = drive_interleaving("equi");
  EXPECT_GT(checked(equi, RatesArm::kUniform), 0);
  EXPECT_GT(checked(equi, RatesArm::kDense), 0);
}

TEST(EngineAliveSetRates, SparseSupportRatesUseEachJobsOwnCurve) {
  // Ten jobs, Par-SRPT: all 4 machines on the shortest (job 9), a
  // one-index support of ten jobs, so it stays sparse. Job 9's
  // piecewise-linear curve rates share 4 at 1.75; any other job's curve
  // would give a different rate (sequential: 1, power-law 0.5: 2).
  Engine eng(4);
  auto sched = make_scheduler("par-srpt");
  eng.begin(*sched);
  for (JobId id = 0; id < 10; ++id) {
    Job j;
    j.id = id;
    j.size = id == 9 ? 1.0 : 5.0 + static_cast<double>(id);
    j.curve = id == 0   ? SpeedupCurve::sequential()
              : id == 9 ? SpeedupCurve::piecewise_linear({{2.0, 1.5},
                                                          {4.0, 1.75}})
                        : SpeedupCurve::power_law(0.5);
    eng.admit(j);
  }
  eng.advance_to(0.1);  // job 9 completes at 1/1.75: the step defers
  const EngineState st = eng.export_state();
  ASSERT_TRUE(st.has_cached_alloc);
  ASSERT_FALSE(st.cached_alloc.dense());
  ASSERT_EQ(st.cached_alloc.support().size(), 1u);
  EXPECT_EQ(st.cached_alloc.support()[0], 9u);
  ASSERT_EQ(eng.support_rate_count(), 1u);
  EXPECT_EQ(eng.support_rate(0), 1.75);
}

/// Grants each alive job the share listed under its id, recording the
/// time of every decision.
class FixedShares final : public Scheduler {
 public:
  explicit FixedShares(std::vector<double> by_id) : by_id_(std::move(by_id)) {}
  [[nodiscard]] std::string name() const override { return "fixed-shares"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    times.push_back(ctx.time());
    const AliveView alive = ctx.alive();
    out.reset(alive.size());
    for (std::size_t i = 0; i < alive.size(); ++i) {
      const double s = by_id_[static_cast<std::size_t>(alive.id(i))];
      if (s != 0.0) out.grant(i, s);  // lint: float-eq-ok
    }
  }
  std::vector<double> times;

 private:
  std::vector<double> by_id_;
};

/// The engine's deferred decision is dense and not uniform; each of its
/// rates is speed * Γ(share) through the job's current curve, bit for
/// bit. Returns the serial min of phase work / rate over the positive
/// rates: the step's dt.
double expect_dense_rates(const Engine& eng, double speed) {
  const EngineState st = eng.export_state();
  EXPECT_TRUE(st.has_cached_alloc);
  EXPECT_TRUE(st.cached_alloc.dense());
  EXPECT_FALSE(st.cached_alloc.uniform());
  const std::span<const double> shares = st.cached_alloc.shares();
  EXPECT_EQ(eng.support_rate_count(), st.alive.size());
  double dt = kInf;
  for (std::size_t i = 0; i < std::min(st.alive.size(),
                                       eng.support_rate_count());
       ++i) {
    const AliveJob& a = st.alive[i];
    const double want = speed * a.curve.rate(shares[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(eng.support_rate(i)),
              std::bit_cast<std::uint64_t>(want))
        << "job " << a.id << " share " << shares[i];
    if (want > 0.0) dt = std::min(dt, a.phase_remaining / want);
  }
  return dt;
}

TEST(EngineAliveSetRates, DenseDecisionRatesBigSharesThroughEachJobsCurve) {
  // Ten jobs, nine with a share: a support far above n/8, so the decision
  // stays dense. Every curve kind holds a share <= 1 and one above 1. Job
  // 0's share 1 fixes r0 = speed, which the sequential job at share 3
  // also runs at; it has the least work, so its p0/r0 is the second
  // decision's dt. Job 8 runs its fully parallel first phase at share 3;
  // that phase ends first, and the next decision rates the job's
  // piecewise-linear second phase at share 3.
  const double speed = 1.25;
  const SpeedupCurve pwl =
      SpeedupCurve::piecewise_linear({{2.0, 1.5}, {4.0, 1.75}});
  const std::vector<std::pair<SpeedupCurve, double>> single = {
      {SpeedupCurve::sequential(), 1.0},
      {SpeedupCurve::fully_parallel(), 0.5},
      {SpeedupCurve::fully_parallel(), 2.5},
      {SpeedupCurve::sequential(), 3.0},
      {SpeedupCurve::power_law(0.5), 0.25},
      {SpeedupCurve::power_law(0.5), 4.0},
      {pwl, 0.75},
      {pwl, 3.0},
  };
  EngineConfig cfg;
  cfg.speed = speed;
  Engine eng(20, cfg);
  std::vector<double> shares;
  for (const auto& [curve, share] : single) shares.push_back(share);
  shares.push_back(3.0);  // job 8, multi-phase
  shares.push_back(0.0);  // job 9, idle
  FixedShares sched(shares);
  eng.begin(sched);
  for (std::size_t id = 0; id < single.size(); ++id) {
    Job j;
    j.id = static_cast<JobId>(id);
    j.size = id == 3 ? 0.5 : 2.0 + 0.5 * static_cast<double>(id);
    j.curve = single[id].first;
    eng.admit(j);
  }
  eng.admit(make_phased_job(
      8, 0.0,
      {{0.05, SpeedupCurve::fully_parallel()},
       {4.0, SpeedupCurve::piecewise_linear({{2.0, 1.5}, {4.0, 2.0}})}}));
  Job idle;
  idle.id = 9;
  idle.size = 1.0;
  idle.curve = SpeedupCurve::power_law(0.7);
  eng.admit(idle);

  eng.advance_to(0.0);  // the first decision defers: its dt is positive
  const double dt1 = expect_dense_rates(eng, speed);
  ASSERT_EQ(sched.times.size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dt1),
            std::bit_cast<std::uint64_t>(0.05 / (3.0 * speed)));
  eng.advance_to(dt1);  // job 8's first phase ends: the next decision
  ASSERT_EQ(sched.times.size(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sched.times[1]),
            std::bit_cast<std::uint64_t>(dt1));
  const EngineState st = eng.export_state();
  ASSERT_EQ(st.alive.size(), 10u);
  EXPECT_EQ(st.alive[8].phase, 1u);
  EXPECT_EQ(st.alive[8].curve.kind(), SpeedupCurve::Kind::kPiecewiseLinear);
  const double dt2 = expect_dense_rates(eng, speed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dt2),
            std::bit_cast<std::uint64_t>(st.alive[3].remaining / speed));
  eng.advance_to(dt1 + dt2);
  ASSERT_EQ(sched.times.size(), 3u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sched.times[2]),
            std::bit_cast<std::uint64_t>(dt1 + dt2));
}

}  // namespace
}  // namespace parsched
