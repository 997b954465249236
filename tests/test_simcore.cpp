// Engine, instance, source, trajectory and result tests: the simulation
// substrate everything else stands on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sched/equi.hpp"
#include "sched/intermediate_srpt.hpp"
#include "sched/parallel_srpt.hpp"
#include "sched/sequential_srpt.hpp"
#include "simcore/engine.hpp"
#include "simcore/incremental.hpp"
#include "simcore/trajectory.hpp"
#include "util/mathx.hpp"

namespace parsched {
namespace {

Job make_job(JobId id, double release, double size, double alpha) {
  Job j;
  j.id = id;
  j.release = release;
  j.size = size;
  j.curve = SpeedupCurve::power_law(alpha);
  return j;
}

// ------------------------------------------------------------- instance

TEST(Instance, SortsAndValidates) {
  std::vector<Job> jobs{make_job(0, 5.0, 2.0, 0.5), make_job(1, 1.0, 8.0, 0.5)};
  Instance inst(4, jobs);
  EXPECT_EQ(inst.machines(), 4);
  EXPECT_DOUBLE_EQ(inst.jobs().front().release, 1.0);
  EXPECT_DOUBLE_EQ(inst.P(), 4.0);
}

TEST(Instance, RejectsBadInput) {
  EXPECT_THROW(Instance(0, {make_job(0, 0, 1, 0.5)}), std::invalid_argument);
  EXPECT_THROW(Instance(2, {}), std::invalid_argument);
  EXPECT_THROW(Instance(2, {make_job(0, -1, 1, 0.5)}), std::invalid_argument);
  EXPECT_THROW(Instance(2, {make_job(0, 0, 0, 0.5)}), std::invalid_argument);
  EXPECT_THROW(
      Instance(2, {make_job(3, 0, 1, 0.5), make_job(3, 0, 1, 0.5)}),
      std::invalid_argument);
}

TEST(Instance, RejectsNonFiniteJobFields) {
  // NaN passes every `x < bound` test, so check_job tests finiteness
  // first; the instance and the streaming engine share it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    Job release = make_job(0, bad, 1, 0.5);
    Job size = make_job(0, 0, bad, 0.5);
    Job weight = make_job(0, 0, 1, 0.5);
    weight.weight = bad;
    for (const Job& j : {release, size, weight}) {
      EXPECT_THROW(Instance(2, {j}), std::invalid_argument);
      EXPECT_THROW(check_job(j), std::invalid_argument);
    }
  }
  EXPECT_NO_THROW(check_job(make_job(0, 0, 1, 0.5)));
}

TEST(Instance, CheckJobRequiresNormalizedPhases) {
  // The engine admits a job's size and curve as given, so a multi-phase
  // job must carry what normalize_phases() derives from its phases.
  Job j = make_phased_job(0, 0.0,
                          {{0.5, SpeedupCurve::power_law(0.5)},
                           {1.5, SpeedupCurve::sequential()}});
  EXPECT_NO_THROW(check_job(j));
  Job size = j;
  size.size = 3.0;
  Job curve = j;
  curve.curve = SpeedupCurve::sequential();
  Job work = j;
  work.phases[1].work = -1.5;
  for (const Job& bad : {size, curve, work}) {
    EXPECT_THROW(check_job(bad), std::invalid_argument);
  }
}

TEST(Engine, StreamingAdmitRejectsBadJobsBeforeQueueingThem) {
  // A job that only failed when released (in advance) would already have
  // left the pending queue, and be lost without an answer. Admit checks
  // it up front, phases included.
  IntermediateSrpt sched;
  Engine eng(2);
  eng.begin(sched);
  Job nan_release =
      make_job(0, std::numeric_limits<double>::quiet_NaN(), 1, 0.5);
  Job bad_phase = make_job(1, 0.5, 1, 0.5);
  bad_phase.phases = {{1.0, SpeedupCurve::sequential()},
                      {-1.0, SpeedupCurve::fully_parallel()}};
  EXPECT_THROW(eng.admit(nan_release), std::invalid_argument);
  EXPECT_THROW(eng.admit(bad_phase), std::invalid_argument);
  EXPECT_EQ(eng.pending_count(), 0u);
  eng.admit(make_job(2, 0.5, 1, 0.5));
  EXPECT_EQ(eng.pending_count(), 1u);
  const SimResult r = eng.finish();
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].job.id, 2u);
}

TEST(Engine, StreamingAdmitOutOfReleaseOrderMatchesTheBatchRun) {
  // The pending queue is kept sorted by release, stable among equal
  // releases: admitting the pairs latest-first (each pair in id order)
  // must reproduce the batch run, whose arrival order is the instance's.
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), 0.25 * (i / 2),
                            1.0 + 0.5 * i, 0.5));
  }
  IntermediateSrpt batch_sched;
  const SimResult want = simulate(Instance(2, jobs), batch_sched);
  IntermediateSrpt sched;
  Engine eng(2);
  eng.begin(sched);
  for (int pair = 3; pair >= 0; --pair) {
    eng.admit(jobs[static_cast<std::size_t>(2 * pair)]);
    eng.admit(jobs[static_cast<std::size_t>(2 * pair + 1)]);
  }
  const SimResult got = eng.finish();
  EXPECT_EQ(got.total_flow, want.total_flow);
  EXPECT_EQ(got.fractional_flow, want.fractional_flow);
  EXPECT_EQ(got.decisions, want.decisions);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    EXPECT_EQ(got.records[i].job.id, want.records[i].job.id) << i;
    EXPECT_EQ(got.records[i].completion, want.records[i].completion) << i;
  }
}

TEST(JobQueue, HandsOutEveryJobOnceInStableReleaseOrderInParts) {
  // Rounds of out-of-order pushes, each followed by taking what is due,
  // over several parts' worth of jobs: every job comes out once, in a
  // stable sort by release of everything pushed, no part exceeds kPart
  // jobs, and jobs() holds the jobs not yet taken.
  const Engine view(1);
  JobQueue q;
  std::vector<Job> all;
  std::vector<JobId> out;
  std::uint32_t x = 20261019;
  const auto draw = [&x] {
    x = x * 1103515245u + 12345u;
    return static_cast<int>((x >> 8) % 300);
  };
  double floor = 0.0;
  JobId id = 0;
  const auto remaining = [&] {
    std::vector<Job> want = all;
    std::stable_sort(want.begin(), want.end(),
                     [](const Job& a, const Job& b) {
                       return a.release < b.release;
                     });
    want.erase(want.begin(), want.begin() + static_cast<long>(out.size()));
    return want;
  };
  for (int round = 0; round < 12; ++round) {
    // One round pushes in falling release order.
    const int count = round == 5 ? 10000 : 1500;
    for (int k = 0; k < count; ++k) {
      const double r = round == 5 ? floor + 2.99 * (count - k) / count
                                  : floor + 0.01 * draw();
      Job j = make_job(id++, r, 1.0, 0.5);
      all.push_back(j);
      q.push(std::move(j));
    }
    const double t = floor + 1.5;
    const std::vector<Job> want = remaining();
    ASSERT_EQ(std::vector<Job>(q.jobs().begin(), q.jobs().end()), want);
    for (double nt = q.next_time(view); nt <= t; nt = q.next_time(view)) {
      const std::span<const Job> part = q.take(nt, view);
      ASSERT_FALSE(part.empty());
      ASSERT_LE(part.size(), JobQueue::kPart);
      for (const Job& j : part) {
        ASSERT_LE(j.release, nt);
        out.push_back(j.id);
      }
    }
    floor = t;
  }
  for (double nt = q.next_time(view); nt < kInf; nt = q.next_time(view)) {
    for (const Job& j : q.take(nt, view)) out.push_back(j.id);
  }
  EXPECT_TRUE(q.jobs().empty());
  std::stable_sort(all.begin(), all.end(), [](const Job& a, const Job& b) {
    return a.release < b.release;
  });
  ASSERT_EQ(out.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(out[i], all[i].id) << i;
  }
}

TEST(Engine, RejectsNonPositiveOrNonFiniteSpeed) {
  // At infinite speed a completion interval is 0 and the work done in
  // it inf * 0 = NaN.
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EngineConfig cfg;
    cfg.speed = bad;
    EXPECT_THROW(Engine(2, cfg), std::invalid_argument) << bad;
  }
}

TEST(Instance, AssignsMissingIds) {
  std::vector<Job> jobs{make_job(kInvalidJob, 0.0, 1.0, 0.5),
                        make_job(kInvalidJob, 1.0, 2.0, 0.5)};
  Instance inst(2, jobs);
  EXPECT_NE(inst.jobs()[0].id, inst.jobs()[1].id);
}

// --------------------------------------------------------------- engine

TEST(Engine, SingleSequentialJobOnOneMachine) {
  Instance inst(1, {make_job(0, 2.0, 5.0, 0.5)});
  IntermediateSrpt sched;
  const SimResult r = simulate(inst, sched);
  ASSERT_EQ(r.jobs(), 1u);
  EXPECT_NEAR(r.records[0].completion, 7.0, 1e-9);
  EXPECT_NEAR(r.total_flow, 5.0, 1e-9);
  EXPECT_NEAR(r.makespan, 7.0, 1e-9);
}

TEST(Engine, FullyParallelJobUsesWholePool) {
  // Parallel-SRPT gives all m = 8 machines: rate 8, size 16 -> 2 time units.
  Job j = make_job(0, 0.0, 16.0, 1.0);
  Instance inst(8, {j});
  ParallelSrpt sched;
  const SimResult r = simulate(inst, sched);
  EXPECT_NEAR(r.records[0].completion, 2.0, 1e-9);
}

TEST(Engine, PowerLawRateAppliedToWholePool) {
  // alpha = 0.5, m = 16 -> rate 4; size 8 -> 2 time units.
  Instance inst(16, {make_job(0, 0.0, 8.0, 0.5)});
  ParallelSrpt sched;
  const SimResult r = simulate(inst, sched);
  EXPECT_NEAR(r.records[0].completion, 2.0, 1e-9);
}

TEST(Engine, UnderloadEquipartitionOfIntermediateSrpt) {
  // Two jobs, m = 8, alpha = 0.5: each gets 4 machines -> rate 2.
  Instance inst(8,
                {make_job(0, 0.0, 4.0, 0.5), make_job(1, 0.0, 4.0, 0.5)});
  IntermediateSrpt sched;
  const SimResult r = simulate(inst, sched);
  ASSERT_EQ(r.jobs(), 2u);
  EXPECT_NEAR(r.records[0].completion, 2.0, 1e-9);
  EXPECT_NEAR(r.records[1].completion, 2.0, 1e-9);
}

TEST(Engine, OverloadOneMachineEach) {
  // m = 2, three unit jobs, alpha irrelevant at share 1 (Γ(1) = 1).
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 2.0, 0.5),
                    make_job(2, 0.0, 3.0, 0.5)});
  IntermediateSrpt sched;
  const SimResult r = simulate(inst, sched);
  // Shortest two run first; job0 done at 1, then job2 joins. After job1
  // finishes at 2, job2 (remaining 2) holds both machines: rate 2^0.5.
  EXPECT_NEAR(r.records[0].completion, 1.0, 1e-9);  // job 0
  EXPECT_NEAR(r.records[1].completion, 2.0, 1e-9);  // job 1
  EXPECT_NEAR(r.records[2].completion, 2.0 + 2.0 / std::sqrt(2.0), 1e-9);
}

TEST(Engine, ArrivalPreemptsViaSrpt) {
  // Sequential-SRPT on m = 1: long job preempted by short arrival.
  Instance inst(1, {make_job(0, 0.0, 10.0, 0.0), make_job(1, 2.0, 1.0, 0.0)});
  SequentialSrpt sched;
  const SimResult r = simulate(inst, sched);
  EXPECT_NEAR(r.records[0].completion, 3.0, 1e-9);   // short
  EXPECT_NEAR(r.records[1].completion, 11.0, 1e-9);  // long
  EXPECT_NEAR(r.total_flow, (3.0 - 2.0) + 11.0, 1e-9);
}

TEST(Engine, FractionalFlowAtMostTotalFlow) {
  std::vector<Job> jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), i * 0.3,
                            1.0 + (i % 5), 0.5));
  }
  Instance inst(4, jobs);
  IntermediateSrpt sched;
  const SimResult r = simulate(inst, sched);
  EXPECT_LE(r.fractional_flow, r.total_flow + 1e-6);
  EXPECT_GT(r.fractional_flow, 0.0);
}

TEST(Engine, IdleGapBetweenJobs) {
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 10.0, 1.0, 0.5)});
  Equi sched;
  const SimResult r = simulate(inst, sched);
  // A lone job holds both machines: rate 2^{0.5}.
  EXPECT_NEAR(r.records[0].completion, 1.0 / std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(r.records[1].completion, 10.0 + 1.0 / std::sqrt(2.0), 1e-9);
}

// Misbehaving policies are rejected loudly.

class ZeroScheduler final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "Zero"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.reset(ctx.alive().size());
  }
};

class OvercommitScheduler final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "Overcommit"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.fill(ctx.alive().size(), static_cast<double>(ctx.machines()) + 1.0);
  }
};

class PastReconsider final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "Past"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.fill(ctx.alive().size(), 1.0);
    out.reconsider_at = ctx.time() - 1.0;
  }
};

TEST(Engine, DetectsStall) {
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5)});
  ZeroScheduler sched;
  EXPECT_THROW((void)simulate(inst, sched), SimulationStall);
}

TEST(Engine, RejectsOvercommit) {
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5)});
  OvercommitScheduler sched;
  EXPECT_THROW((void)simulate(inst, sched), std::logic_error);
}

TEST(Engine, RejectsPastReconsideration) {
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5)});
  PastReconsider sched;
  EXPECT_THROW((void)simulate(inst, sched), std::logic_error);
}

// ------------------------------------------------------------ observers

TEST(Observers, CountTrackerMatchesArrivalsAndCompletions) {
  Instance inst(1, {make_job(0, 0.0, 2.0, 0.0), make_job(1, 0.5, 2.0, 0.0)});
  SequentialSrpt sched;
  CountTracker tracker;
  const SimResult r = simulate(inst, sched, {}, {&tracker});
  (void)r;
  const StepFunction& f = tracker.alive_count();
  EXPECT_DOUBLE_EQ(f.value(0.25), 1.0);
  EXPECT_DOUBLE_EQ(f.value(1.0), 2.0);
  // First job (shortest-remaining wins; both size 2, job0 leads) done at 2.
  EXPECT_DOUBLE_EQ(f.value(3.0), 1.0);
  EXPECT_DOUBLE_EQ(f.value(10.0), 0.0);
}

TEST(Observers, TrajectoryIsExactPiecewiseLinear) {
  // One job, one machine: remaining = size - t.
  Instance inst(1, {make_job(0, 0.0, 4.0, 0.5)});
  IntermediateSrpt sched;
  TrajectoryRecorder rec;
  (void)simulate(inst, sched, {}, {&rec});
  EXPECT_NEAR(rec.remaining_at(0, 0.0), 4.0, 1e-9);
  EXPECT_NEAR(rec.remaining_at(0, 1.0), 3.0, 1e-9);
  EXPECT_NEAR(rec.remaining_at(0, 3.5), 0.5, 1e-9);
  EXPECT_NEAR(rec.remaining_at(0, 5.0), 0.0, 1e-9);
}

TEST(Observers, TrajectoryUnderEquipartition) {
  // Two identical jobs share m = 2 machines: each rate 1.
  Instance inst(2, {make_job(0, 0.0, 3.0, 0.5), make_job(1, 0.0, 3.0, 0.5)});
  Equi sched;
  TrajectoryRecorder rec;
  (void)simulate(inst, sched, {}, {&rec});
  EXPECT_NEAR(rec.remaining_at(0, 1.5), 1.5, 1e-9);
  EXPECT_NEAR(rec.remaining_at(1, 1.5), 1.5, 1e-9);
}

// ------------------------------------------------------------- results

TEST(Result, MaxFlowAndAvgFlow) {
  Instance inst(1, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 2.0, 0.5)});
  SequentialSrpt sched;
  const SimResult r = simulate(inst, sched);
  EXPECT_NEAR(r.max_flow(), 3.0, 1e-9);
  EXPECT_NEAR(r.avg_flow(), (1.0 + 3.0) / 2.0, 1e-9);
}

// ------------------------------------------------------ scheduler ctx

TEST(SchedulerContext, ByRemainingOrder) {
  std::vector<AliveJob> alive(3);
  alive[0].id = 0;
  alive[0].remaining = 5.0;
  alive[1].id = 1;
  alive[1].remaining = 1.0;
  alive[2].id = 2;
  alive[2].remaining = 3.0;
  AliveSet set;
  set.assign(alive);
  IncrementalOrders orders;
  const SchedulerContext ctx(0.0, 4, set.view(), orders);
  const auto order = ctx.smallest_remaining(3);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

TEST(SchedulerContext, ByLatestArrival) {
  std::vector<AliveJob> alive(2);
  alive[0].id = 0;
  alive[0].release = 1.0;
  alive[1].id = 1;
  alive[1].release = 9.0;
  AliveSet set;
  set.assign(alive);
  IncrementalOrders orders;
  const SchedulerContext ctx(0.0, 4, set.view(), orders);
  const auto order = ctx.latest_arrivals(2);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);
}

}  // namespace
}  // namespace parsched
