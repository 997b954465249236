// Engine guard rails and EngineView queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/alloc_guard.hpp"
#include "check/contract.hpp"
#include "check/invariant_auditor.hpp"
#include "sched/intermediate_srpt.hpp"
#include "sched/registry.hpp"
#include "simcore/engine.hpp"
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

// A policy that spins: re-decides constantly without progress risk —
// exercises the max_decisions guard.
class SpinScheduler final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "Spin"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.reset(ctx.alive().size());
    if (out.size() > 0) out.grant(0, 1e-9);  // glacial progress
    out.reconsider_at = ctx.time() + 1e-9;
  }
};

// A policy that overcommits: hands every alive job a whole machine even
// when that exceeds m in total (Σ shares > m).
class InfeasibleScheduler final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "Infeasible"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.fill(ctx.alive().size(), 1.0);
  }
};

// A policy that emits a negative share.
class NegativeShareScheduler final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "NegativeShare"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.fill(ctx.alive().size(), 0.5);
    out.grant(0, -0.5);
  }
};

// A policy that allocates nothing and never asks to be re-invoked.
class StallingScheduler final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "Stalling"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.reset(ctx.alive().size());
  }
};

TEST(EngineGuards, EngineRejectsInfeasibleAllocation) {
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 1.0, 0.5),
                    make_job(2, 0.0, 1.0, 0.5)});
  InfeasibleScheduler sched;
  EXPECT_THROW((void)simulate(inst, sched), std::logic_error);
}

TEST(EngineGuards, AuditorCatchesInfeasibleAllocation) {
  // With the engine's own validation off, the auditor is the safety net.
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 1.0, 0.5),
                    make_job(2, 0.0, 1.0, 0.5)});
  InfeasibleScheduler sched;
  EngineConfig cfg;
  cfg.validate_allocations = false;
  InvariantAuditor auditor(inst.machines());
  (void)simulate(inst, sched, cfg, {&auditor});
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("overcommitted"), std::string::npos);
  EXPECT_THROW(auditor.require_clean(), AuditFailure);
}

TEST(EngineGuards, EngineRejectsNegativeShare) {
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 1.0, 0.5)});
  NegativeShareScheduler sched;
  EXPECT_THROW((void)simulate(inst, sched), std::logic_error);
}

TEST(EngineGuards, AuditorCatchesNegativeShare) {
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 1.0, 0.5)});
  NegativeShareScheduler sched;
  EngineConfig cfg;
  cfg.validate_allocations = false;
  InvariantAuditor auditor(inst.machines());
  // In Debug builds SpeedupCurve::rate's PARSCHED_DCHECK sees the negative
  // share before the auditor does; log it instead of throwing so the run
  // reaches the state this test is about.
  ScopedContractPolicy log_contracts(ContractPolicy::kLog);
  // Once the positive-share job completes, the negative-share job makes no
  // progress and the run stalls — but the auditor has flagged the bad
  // allocation by then.
  EXPECT_THROW((void)simulate(inst, sched, cfg, {&auditor}), SimulationStall);
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("negative share"), std::string::npos);
}

TEST(EngineGuards, StallingSchedulerRaisesSimulationStall) {
  Instance inst(1, {make_job(0, 0.0, 1.0, 0.5)});
  StallingScheduler sched;
  EXPECT_THROW((void)simulate(inst, sched), SimulationStall);
}

TEST(EngineGuards, ZeroDtLivelockIsDetectedPromptly) {
  // FP-drift livelock: phase works 0.1 + 0.2 sum to 0.30000000000000004,
  // so after both phases drain at rate 1 the job's `remaining` sits a few
  // ulps above zero while its last phase_remaining is exactly 0. With a
  // completion tolerance too tight to absorb the drift, every subsequent
  // decision has dt_complete == 0 and changes nothing. The engine must
  // raise SimulationStall naming the stuck job after a short streak —
  // not grind through the max_decisions budget.
  const SpeedupCurve curve = SpeedupCurve::power_law(0.5);
  Instance inst(1, {make_phased_job(0, 0.0, {{0.1, curve}, {0.2, curve}})});
  IntermediateSrpt sched;
  EngineConfig cfg;
  cfg.completion_tol = 1e-18;
  cfg.max_decisions = 10'000;  // promptness: the streak guard fires long
                               // before this would
  try {
    (void)simulate(inst, sched, cfg);
    FAIL() << "expected SimulationStall";
  } catch (const SimulationStall& e) {
    EXPECT_NE(std::string(e.what()).find("stuck job id=0"),
              std::string::npos)
        << e.what();
  }
}

TEST(EngineGuards, FlowIsClampedAtZero) {
  // Direct unit check: a completion recorded before the nominal release
  // (possible because admission treats releases within time_tol of `now`
  // as due) reads as zero flow, never negative.
  JobRecord rec;
  rec.job.release = 2.0;
  rec.completion = 1.0;
  EXPECT_EQ(rec.flow(), 0.0);
}

TEST(EngineGuards, EarlyCompletionClampMatchesBatchAndStreaming) {
  // Job 1's release (1e-10) is inside the time_tol admission window at
  // t = 0, and it is so small that SRPT finishes it at t = 1e-12 — before
  // its own release. Its flow must clamp to exactly 0 in the record, and
  // the batch and streaming paths must agree double for double.
  Instance inst(1, {make_job(0, 0.0, 1.0, 0.5),
                    make_job(1, 1e-10, 1e-12, 0.5)});
  auto sched = make_scheduler("seq-srpt");
  const SimResult batch = simulate(inst, *sched);
  ASSERT_EQ(batch.records.size(), 2u);
  const JobRecord* early = nullptr;
  for (const JobRecord& r : batch.records) {
    if (r.job.id == 1) early = &r;
  }
  ASSERT_NE(early, nullptr);
  EXPECT_LT(early->completion, early->job.release);
  EXPECT_EQ(early->flow(), 0.0);

  Engine eng(inst.machines());
  eng.begin(*sched);
  for (const Job& j : inst.jobs()) eng.admit(j);
  const SimResult streamed = eng.finish();
  EXPECT_EQ(streamed.total_flow, batch.total_flow);
  EXPECT_EQ(streamed.weighted_flow, batch.weighted_flow);
  EXPECT_EQ(streamed.fractional_flow, batch.fractional_flow);
}

TEST(EngineGuards, CompletionObserversFireInIdOrder) {
  // Three identical jobs complete in one step. The engine's swap-remove
  // completion sweep appends their records in sweep order ([0, 2, 1] for
  // a three-job prefix), but the observer contract is id order within a
  // step — assert both, so the test fails if either order drifts.
  class CompletionRecorder final : public Observer {
   public:
    void on_completion(double, const Job& job) override {
      ids.push_back(job.id);
    }
    std::vector<JobId> ids;
  };
  Instance inst(4, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 1.0, 0.5),
                    make_job(2, 0.0, 1.0, 0.5)});
  auto sched = make_scheduler("equi");
  CompletionRecorder rec;
  const SimResult r = simulate(inst, *sched, {}, {&rec});
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0].job.id, 0u);  // sweep order: swap-remove
  EXPECT_EQ(r.records[1].job.id, 2u);
  EXPECT_EQ(r.records[2].job.id, 1u);
  ASSERT_EQ(rec.ids.size(), 3u);
  EXPECT_EQ(rec.ids[0], 0u);  // observer order: ascending id
  EXPECT_EQ(rec.ids[1], 1u);
  EXPECT_EQ(rec.ids[2], 2u);
}

TEST(EngineGuards, MaxDecisionsAborts) {
  Instance inst(1, {make_job(0, 0.0, 1.0, 0.5)});
  SpinScheduler sched;
  EngineConfig cfg;
  cfg.max_decisions = 1000;
  EXPECT_THROW((void)simulate(inst, sched, cfg), std::runtime_error);
}

// Every admission is checked (check_job), whatever the source: run()
// refuses what Instance construction and the streaming admit() refuse.
TEST(EngineGuards, RunRejectsInvalidJobsFromAQueue) {
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* what;
    Job job;
  };
  const Case cases[] = {
      {"NaN size", make_job(0, 0.0, std::nan(""), 0.5)},
      {"infinite size", make_job(0, 0.0, inf, 0.5)},
      {"negative release", make_job(0, -5.0, 1.0, 0.5)},
  };
  for (const Case& c : cases) {
    JobQueue source;
    source.push(c.job);
    source.push(make_job(1, 0.0, 1.0, 0.5));
    auto sched = make_scheduler("equi");
    Engine engine(2);
    EXPECT_THROW((void)engine.run(*sched, source), std::invalid_argument)
        << c.what;
  }
}

// A probing source that asserts EngineView invariants mid-run.
class ProbeSource final : public ArrivalSource {
 public:
  double next_time(const EngineView& view) override {
    if (released_ >= 2) {
      // After both arrivals: probe the tag queries once jobs are alive.
      if (view.alive_count() == 2) {
        probed_ = true;
        probe_remaining_ = view.remaining_tagged(JobTag::Class::kShort, 0);
        completed_before_ = view.is_completed(0);
      }
      return kInf;
    }
    return static_cast<double>(released_);
  }

  std::span<const Job> take(double t, const EngineView& view) override {
    (void)view;
    batch_ = make_job(static_cast<JobId>(released_), t, 2.0, 0.5);
    batch_.tag = released_ == 0 ? JobTag{0, JobTag::Class::kShort, 0}
                                : JobTag{1, JobTag::Class::kLong, 0};
    ++released_;
    return {&batch_, 1};
  }

  void reset() override { released_ = 0; }

  Job batch_;
  bool probed_ = false;
  double probe_remaining_ = -1.0;
  bool completed_before_ = true;
  int released_ = 0;
};

TEST(EngineGuards, EngineViewQueriesAreConsistent) {
  ProbeSource source;
  IntermediateSrpt sched;
  Engine engine(2);
  const SimResult r = engine.run(sched, source);
  EXPECT_EQ(r.jobs(), 2u);
  ASSERT_TRUE(source.probed_);
  // Both jobs alive when probed: the short-tagged one has <= 2.0 left.
  EXPECT_GT(source.probe_remaining_, 0.0);
  EXPECT_LE(source.probe_remaining_, 2.0);
  EXPECT_FALSE(source.completed_before_);  // job 0 not done at probe time
}

TEST(EngineGuards, IsCompletedFlipsAfterCompletion) {
  // Source releases job 1 only after observing job 0 completed.
  class GateSource final : public ArrivalSource {
   public:
    double next_time(const EngineView& view) override {
      if (stage_ == 0) return 0.0;
      if (stage_ == 1) return view.is_completed(0) ? view.time() : kInf;
      return kInf;
    }
    std::span<const Job> take(double t, const EngineView& view) override {
      (void)view;
      ++stage_;
      batch_ = make_job(static_cast<JobId>(stage_ - 1), t, 1.0, 0.5);
      return {&batch_, 1};
    }
    void reset() override { stage_ = 0; }
    Job batch_;
    int stage_ = 0;
  };
  GateSource source;
  IntermediateSrpt sched;
  Engine engine(1);
  const SimResult r = engine.run(sched, source);
  ASSERT_EQ(r.jobs(), 2u);
  EXPECT_NEAR(r.records[0].completion, 1.0, 1e-9);
  EXPECT_NEAR(r.records[1].completion, 2.0, 1e-9);
}

// ---- Restored cached allocations ----------------------------------------
//
// A deferred decision resumes through compute_rates(false), which checks
// nothing, so import_state validates a restored cached allocation itself
// and rebuilds its support from the nonzero shares.

AliveJob alive_job(JobId id, double remaining, SpeedupCurve curve,
                   std::int64_t seq) {
  AliveJob a;
  a.id = id;
  a.size = remaining;
  a.remaining = remaining;
  a.phase_remaining = remaining;
  a.curve = curve;
  a.arrival_seq = seq;
  return a;
}

/// A hand-built mid-run state on m = 2: three alive jobs at t = 1 and a
/// deferred decision with `shares`.
EngineState hand_built_state(std::vector<double> shares) {
  EngineState st;
  st.machines = 2;
  st.now = 1.0;
  st.frontier = 1.0;
  st.arrival_seq = 3;
  st.alive = {alive_job(0, 5.0, SpeedupCurve::sequential(), 0),
              alive_job(1, 1.0, SpeedupCurve::fully_parallel(), 1),
              alive_job(2, 4.0, SpeedupCurve::fully_parallel(), 2)};
  st.has_cached_alloc = true;
  st.cached_alloc.assign(std::move(shares));
  st.result.decisions = 1;
  st.result.events = 3;
  return st;
}

TEST(CachedAllocImport, RebuildsSupportFromNonzeroShares) {
  // Job 0 holds no share; job 1 runs at rate 1.5 and completes first, at
  // t = 1 + 1/1.5 — which happens only if the restored decision's
  // support was rebuilt from the shares.
  for (const bool scrambled : {false, true}) {
    EngineState st = hand_built_state({0.0, 1.5, 0.5});
    if (scrambled) {
      // The same shares granted out of index order: the support the
      // donor carried is ignored either way.
      Allocation a;
      a.reset(3);
      a.grant(2, 0.5);
      a.grant(1, 1.5);
      st.cached_alloc = a;
    }
    IntermediateSrpt sched;
    Engine engine(2);
    engine.import_state(st, sched);
    const SimResult r = engine.finish();
    ASSERT_EQ(r.jobs(), 3u);
    EXPECT_EQ(r.records[0].job.id, 1u);
    EXPECT_EQ(r.records[0].completion, 1.0 + 1.0 / 1.5);
    EXPECT_EQ(r.decisions, 1u + 2u);  // the resumed one is not re-decided
  }
}

TEST(CachedAllocImport, RejectsNegativeNonFiniteAndOvercommittedShares) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> bad = {
      {0.0, -0.5, 0.5},  // negative
      {0.0, nan, 0.5},   // NaN
      {0.0, inf, 0.0},   // infinite
      {0.0, 1.5, 0.6},   // Σ = 2.1 > m = 2
  };
  for (const auto& shares : bad) {
    IntermediateSrpt sched;
    Engine engine(2);
    EXPECT_THROW(engine.import_state(hand_built_state(shares), sched),
                 std::invalid_argument)
        << shares[1] << ", " << shares[2];
  }
  // The bound is the engine's own overcommit tolerance, and -0.0 is not
  // negative.
  for (const auto& shares : std::vector<std::vector<double>>{
           {0.0, 1.5, 0.5 + 1e-10}, {-0.0, 1.5, 0.5}}) {
    IntermediateSrpt sched;
    Engine engine(2);
    EXPECT_NO_THROW(engine.import_state(hand_built_state(shares), sched));
  }
}

TEST(CachedAllocImport, RejectionLeavesTheEngineUntouched) {
  const Instance inst(2, {make_job(0, 0.0, 3.0, 0.5),
                          make_job(1, 0.0, 1.0, 0.5),
                          make_job(2, 0.5, 2.0, 0.5)});
  const SimResult want = [&] {
    IntermediateSrpt sched;
    return simulate(inst, sched);
  }();
  IntermediateSrpt sched;
  Engine engine(2);
  engine.begin(sched);
  for (const Job& j : inst.jobs()) engine.admit(j);
  engine.advance_to(0.25);
  IntermediateSrpt other;
  EXPECT_THROW(engine.import_state(hand_built_state({0.0, -1.0, 0.0}), other),
               std::invalid_argument);
  const SimResult got = engine.finish();
  EXPECT_EQ(got.total_flow, want.total_flow);
  EXPECT_EQ(got.fractional_flow, want.fractional_flow);
  EXPECT_EQ(got.decisions, want.decisions);
}

// ---- Restored-state validation -------------------------------------------
//
// import_state runs validate() before it touches the engine: each
// violation is rejected with its own message, and the engine is left as
// it was (here: never started).

void expect_rejected(const EngineState& st, const std::string& what) {
  try {
    validate(st);
    ADD_FAILURE() << "validate() accepted a state with: " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "message was: " << e.what();
  }
  IntermediateSrpt sched;
  Engine engine(2);
  EXPECT_THROW(engine.import_state(st, sched), std::invalid_argument) << what;
  EXPECT_FALSE(engine.streaming()) << what;
}

TEST(StateValidation, AcceptsTheHandBuiltBaseState) {
  EXPECT_NO_THROW(validate(hand_built_state({0.0, 1.5, 0.5})));
}

TEST(StateValidation, RejectsAPhaseIndexPastThePhaseList) {
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.alive[0].phases = {{2.0, SpeedupCurve::sequential()},
                        {3.0, SpeedupCurve::sequential()}};
  st.alive[0].phase = 2;
  expect_rejected(st, "phase index out of range");
  EngineState single = hand_built_state({0.0, 1.5, 0.5});
  single.alive[1].phase = 1;  // a single-phase job is always in phase 0
  expect_rejected(single, "phase index out of range");
}

TEST(StateValidation, RejectsNowPastTheFrontier) {
  // The engine never runs past its frontier; a state that did would admit
  // pending jobs behind its own clock.
  for (const double frontier : {0.5, std::numeric_limits<double>::quiet_NaN()}) {
    EngineState st = hand_built_state({0.0, 1.5, 0.5});
    st.frontier = frontier;
    expect_rejected(st, "now is past the frontier");
  }
}

TEST(StateValidation, RejectsNaNOrNegativeNow) {
  for (const double now : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    EngineState st = hand_built_state({0.0, 1.5, 0.5});
    st.now = now;
    expect_rejected(st, "now is NaN, infinite or negative");
  }
}

TEST(StateValidation, RejectsNaNOrNegativeRemaining) {
  for (const double rem : {std::numeric_limits<double>::quiet_NaN(), -0.5}) {
    EngineState st = hand_built_state({0.0, 1.5, 0.5});
    st.alive[2].remaining = rem;
    expect_rejected(st, "remaining work is NaN or negative");
  }
}

TEST(StateValidation, RejectsNaNPhaseRemaining) {
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.alive[1].phase_remaining = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(st, "phase_remaining is NaN");
}

TEST(StateValidation, RejectsNegativeZeroRemaining) {
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.alive[2].remaining = -0.0;
  expect_rejected(st, "remaining work is -0.0");
}

TEST(StateValidation, RejectsInfinitePhaseRemaining) {
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.alive[1].phase_remaining = std::numeric_limits<double>::infinity();
  expect_rejected(st, "phase_remaining is infinite");
}

TEST(StateValidation, RejectsNegativePhaseRemaining) {
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.alive[1].phase_remaining = -0.25;
  expect_rejected(st, "phase_remaining is negative");
}

TEST(StateValidation, RejectsNegativeZeroPhaseRemaining) {
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.alive[1].phase_remaining = -0.0;
  expect_rejected(st, "phase_remaining is -0.0");
}

TEST(StateValidation, RejectsSinglePhaseWorkThatIsNotTheRemainingWork) {
  // A job with at most one phase has no phase work of its own: it is the
  // remaining work, bit for bit.
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.alive[1].phase_remaining = std::nextafter(st.alive[1].remaining, 0.0);
  expect_rejected(st, "at most one phase has phase_remaining != remaining");
  EngineState one_phase = hand_built_state({0.0, 1.5, 0.5});
  one_phase.alive[2].phases = {{4.0, SpeedupCurve::fully_parallel()}};
  one_phase.alive[2].phase_remaining = 2.0;
  expect_rejected(one_phase,
                  "at most one phase has phase_remaining != remaining");
  // A multi-phase job's phase work is its own.
  EngineState multi = hand_built_state({0.0, 1.5, 0.5});
  multi.alive[0].phases = {{2.0, SpeedupCurve::sequential()},
                           {3.0, SpeedupCurve::sequential()}};
  multi.alive[0].phase_remaining = 2.0;
  EXPECT_NO_THROW(validate(multi));
}

TEST(StateValidation, RejectsRemainingAboveSize) {
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.alive[2].remaining = st.alive[2].size * 2.0;
  expect_rejected(st, "remaining work exceeds its size");
}

TEST(StateValidation, RejectsDuplicateAliveIds) {
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.alive[2].id = st.alive[0].id;
  expect_rejected(st, "duplicate alive job id");
}

TEST(StateValidation, RejectsArrivalSeqAtOrAboveTheCounter) {
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.alive[2].arrival_seq = st.arrival_seq;  // admissions 0..2 so far
  expect_rejected(st, "arrival_seq is outside [0, arrival_seq)");
}

TEST(StateValidation, RejectsDuplicateCompletedIds) {
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.completed = {7, 9, 7};
  expect_rejected(st, "duplicate completed job id");
}

TEST(StateValidation, RejectsPendingJobsBelowTheFrontier) {
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.pending = {make_job(10, 0.5, 1.0, 0.5)};  // frontier is 1.0
  expect_rejected(st, "pending job released below the frontier");
}

TEST(StateValidation, RejectsUnsortedPendingJobs) {
  EngineState st = hand_built_state({0.0, 1.5, 0.5});
  st.pending = {make_job(10, 3.0, 1.0, 0.5), make_job(11, 2.0, 1.0, 0.5)};
  expect_rejected(st, "pending jobs are not sorted by release");
}

TEST(StateValidation, RejectsCurvesThatFailTheShapeCheck) {
  // Accepted by piecewise_linear() (slope 1, concave), but its rate
  // overflows to +inf for shares above ~2: not a usable speedup curve.
  const SpeedupCurve bad =
      SpeedupCurve::piecewise_linear({{1.7e308, 1.7e308}});
  ASSERT_FALSE(is_valid_speedup_curve(bad));
  EngineState alive_curve = hand_built_state({0.0, 1.5, 0.5});
  alive_curve.alive[1].curve = bad;
  expect_rejected(alive_curve, "fails is_valid_speedup_curve");
  EngineState phase_curve = hand_built_state({0.0, 1.5, 0.5});
  phase_curve.alive[0].phases = {{2.0, SpeedupCurve::sequential()},
                                 {3.0, bad}};
  expect_rejected(phase_curve, "fails is_valid_speedup_curve");
  EngineState pending_curve = hand_built_state({0.0, 1.5, 0.5});
  pending_curve.pending = {make_job(10, 2.0, 1.0, 0.5)};
  pending_curve.pending[0].curve = bad;
  expect_rejected(pending_curve, "fails is_valid_speedup_curve");
}

// ---- The Allocation support contract ------------------------------------

TEST(AllocationSupport, GrantListsEachNonzeroIndexOnce) {
  Allocation a;
  a.reset(64);  // large enough that a 4-entry support stays a list
  a.grant(40, 1.0);
  a.grant(10, 0.5);
  a.grant(40, 2.0);   // overwrite: still listed once
  a.grant(30, 0.0);   // +0.0 is not a share
  a.grant(50, -0.0);  // -0.0 has nonzero bits: listed
  a.grant(20, 1.0);
  a.grant(20, 0.0);   // back to +0.0 ...
  a.grant(20, 0.25);  // ... and nonzero again: listed twice until sorted
  a.sort_support();
  const std::vector<std::size_t> want = {10, 20, 40, 50};
  EXPECT_EQ(std::vector<std::size_t>(a.support().begin(), a.support().end()),
            want);
  EXPECT_FALSE(a.dense());
  EXPECT_EQ(a.shares()[40], 2.0);
  EXPECT_EQ(a.shares()[20], 0.25);
}

TEST(AllocationSupport, LargeSupportWidensToTheDenseRange) {
  // A support covering >= 1/8 of the jobs is visited as the whole range
  // (a superset of the support, so always correct); the shares are kept.
  Allocation a;
  a.reset(16);
  a.grant(3, 1.0);
  a.grant(9, 2.0);
  a.sort_support();
  EXPECT_TRUE(a.dense());
  EXPECT_TRUE(a.support().empty());
  EXPECT_EQ(a.shares()[3], 1.0);
  EXPECT_EQ(a.shares()[9], 2.0);
  a.reset(16);  // a widened support is zeroed like a fill
  for (const double x : a.shares()) EXPECT_EQ(x, 0.0);
  EXPECT_FALSE(a.dense());
}

TEST(AllocationSupport, ResetZeroesOnlyThePreviousSupport) {
  Allocation a;
  a.reset(5);
  a.grant(1, 1.0);
  a.grant(3, -0.0);
  a.reset(4);  // shrink: every share is +0.0 again
  ASSERT_EQ(a.size(), 4u);
  for (const double x : a.shares()) {
    EXPECT_EQ(std::signbit(x), false);
    EXPECT_EQ(x, 0.0);
  }
  EXPECT_TRUE(a.support().empty());
  a.fill(4, 0.75);  // dense: the support is the range, kept as a flag
  EXPECT_TRUE(a.dense());
  EXPECT_TRUE(a.support().empty());
  a.reset(6);  // a dense reset zeroes everything, then grows
  ASSERT_EQ(a.size(), 6u);
  for (const double x : a.shares()) EXPECT_EQ(x, 0.0);
  EXPECT_FALSE(a.dense());
}

TEST(AllocationSupport, FillStartsAFreshDenseDecision) {
  Allocation a;
  a.reset(8);
  a.grant(3, 1.0);
  a.reconsider_at = 5.0;
  for (const std::size_t n : {std::size_t{6}, std::size_t{12}}) {
    a.fill(n, 0.25);  // no reset() first: fill starts the decision
    ASSERT_EQ(a.size(), n);
    for (const double x : a.shares()) EXPECT_EQ(x, 0.25);
    EXPECT_TRUE(a.dense());
    EXPECT_TRUE(a.support().empty());
    EXPECT_EQ(a.reconsider_at, kInf);
    a.reconsider_at = 5.0;
  }
}

TEST(AllocationSupport, AssignRebuildsTheSupportFromShares) {
  Allocation a;
  a.assign({0.0, 2.0, 0.0, -0.0, 1.0});
  const std::vector<std::size_t> want = {1, 3, 4};
  EXPECT_EQ(std::vector<std::size_t>(a.support().begin(), a.support().end()),
            want);
  EXPECT_FALSE(a.dense());
}

// ---- reset() writes no share: the grants are a list ----------------------
//
// The reference is the dense vector a reset() used to zero: a grant writes
// its index, and the support lists each grant that turns a +0.0 share into
// another. Whenever the list is read back (shares(), sort_support()), the
// Allocation must hold that vector's shares, bit for bit, and — after
// sort_support() — the indices of its shares that are not +0.0, or the
// dense range when that support list covers 1/8 of the jobs.

/// The dense vector and support list of the old reset()/grant().
struct DenseReference {
  std::vector<double> shares;
  std::vector<std::size_t> support;

  void reset(std::size_t n) {
    shares.assign(n, 0.0);
    support.clear();
  }
  void grant(std::size_t i, double s) {
    if (std::bit_cast<std::uint64_t>(shares[i]) == 0 &&
        std::bit_cast<std::uint64_t>(s) != 0) {
      support.push_back(i);
    }
    shares[i] = s;
  }
};

/// `a` holds the reference's shares, bit for bit.
void expect_reference_shares(const Allocation& a, const DenseReference& ref,
                             const std::string& what) {
  const std::span<const double> got = a.shares();
  ASSERT_EQ(got.size(), ref.shares.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(ref.shares[i]))
        << what << " share " << i;
  }
}

/// After sort_support(): the dense range when the reference's support
/// covers 1/8 of the jobs; otherwise the indices whose share is not
/// +0.0, ascending, and granted() aligned with them.
void expect_reference_support(Allocation& a, const DenseReference& ref,
                              const std::string& what) {
  a.sort_support();
  const std::size_t n = ref.shares.size();
  if (ref.support.size() * 8 >= n) {
    EXPECT_TRUE(a.dense()) << what;
    EXPECT_TRUE(a.support().empty()) << what;
    return;
  }
  std::vector<std::size_t> want;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::bit_cast<std::uint64_t>(ref.shares[i]) != 0) want.push_back(i);
  }
  ASSERT_FALSE(a.dense()) << what;
  ASSERT_EQ(std::vector<std::size_t>(a.support().begin(), a.support().end()),
            want)
      << what;
  ASSERT_EQ(a.granted().size(), want.size()) << what;
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.granted()[j]),
              std::bit_cast<std::uint64_t>(ref.shares[want[j]]))
        << what << " granted " << j;
  }
}

TEST(AllocationList, RegrantsAndZeroGrantsMatchTheDenseVector) {
  Allocation a;
  DenseReference ref;
  const auto both = [&](std::size_t i, double s) {
    a.grant(i, s);
    ref.grant(i, s);
  };
  a.reset(64);
  ref.reset(64);
  both(40, 1.0);
  both(10, 0.5);
  both(40, 2.0);   // a re-grant: the last share wins
  both(30, 0.0);   // +0.0: not in the support
  both(50, -0.0);  // -0.0: in it
  both(20, 1.0);
  both(20, 0.0);   // back to +0.0: out of the sorted support
  expect_reference_support(a, ref, "sorted list");
  expect_reference_shares(a, ref, "sorted list");
  // The same grants read back before sort_support().
  Allocation b;
  b.reset(64);
  const std::pair<std::size_t, double> grants[] = {
      {40, 1.0}, {10, 0.5}, {40, 2.0}, {30, 0.0},
      {50, -0.0}, {20, 1.0}, {20, 0.0}};
  for (const auto& [i, s] : grants) b.grant(i, s);
  expect_reference_shares(b, ref, "unsorted list");
  expect_reference_support(b, ref, "sorted after a read");
}

TEST(AllocationList, SeededDecisionsMatchTheDenseVector) {
  // Random decisions on one Allocation: grants (re-grants of an index,
  // +0.0 and -0.0 among them) up to past 1/8 of the jobs, so that some
  // widen; read back before or after sort_support(); a fill() or a
  // widened decision between some of them.
  std::mt19937_64 rng(0xa110c);
  Allocation a;
  DenseReference ref;
  const double values[] = {1.0, 0.5, 2.0, 0.0, -0.0, 0.25};
  for (int d = 0; d < 400; ++d) {
    const std::size_t n = 1 + rng() % 200;
    const std::string what = "decision " + std::to_string(d);
    if (rng() % 6 == 0) {
      a.fill(n, 0.125);
      ref.shares.assign(n, 0.125);
      expect_reference_shares(a, ref, what + " fill");
      continue;
    }
    a.reset(n);
    ref.reset(n);
    const std::size_t grants = rng() % (n / 4 + 2);
    for (std::size_t g = 0; g < grants; ++g) {
      const std::size_t i = rng() % n;
      const double s = values[rng() % 6];
      a.grant(i, s);
      ref.grant(i, s);
    }
    if (rng() % 2 == 0) expect_reference_shares(a, ref, what + " unsorted");
    expect_reference_support(a, ref, what);
    expect_reference_shares(a, ref, what + " sorted");
    if (HasFatalFailure()) return;
  }
}

TEST(AllocationList, ResetAfterAFillAndAfterAWideningZeroesEveryShare) {
  Allocation a;
  a.fill(32, 0.5);  // never read
  a.reset(32);
  a.grant(7, 1.0);
  DenseReference ref;
  ref.reset(32);
  ref.grant(7, 1.0);
  expect_reference_support(a, ref, "after an unread fill");
  expect_reference_shares(a, ref, "after an unread fill");
  for (std::size_t i = 0; i < 8; ++i) a.grant(i, 1.0);  // not sorted yet
  a.reset(40);  // grows past the written shares
  ref.reset(40);
  for (std::size_t i = 0; i < 8; ++i) {
    a.grant(3 * i, 1.0);
    ref.grant(3 * i, 1.0);
  }
  expect_reference_support(a, ref, "widened");  // 8 of 40: dense
  ASSERT_TRUE(a.dense());
  expect_reference_shares(a, ref, "widened");
  a.reset(40);
  a.grant(39, 0.75);
  ref.reset(40);
  ref.grant(39, 0.75);
  expect_reference_support(a, ref, "after a widened decision");
  expect_reference_shares(a, ref, "after a widened decision");
}

TEST(AllocationList, ACopyThatWasNeverReadWritesItsOwnShares) {
  Allocation a;
  a.reset(100);
  a.grant(90, 1.0);
  a.grant(3, 0.5);
  a.grant(90, 0.25);
  const Allocation before_sort = a;  // copied with the list unsorted
  a.sort_support();
  const Allocation after_sort = a;  // copied sorted, shares unwritten
  DenseReference ref;
  ref.reset(100);
  ref.grant(90, 1.0);
  ref.grant(3, 0.5);
  ref.grant(90, 0.25);
  expect_reference_shares(before_sort, ref, "copy of an unsorted list");
  expect_reference_shares(after_sort, ref, "copy of a sorted list");
  expect_reference_shares(a, ref, "the original");
}

TEST(AllocationList, GrantsPastAnEighthOfTheJobsGoOnOnWrittenShares) {
  // The list holds at most ceil(n/8) grants (sort_support() would write a
  // longer one anyway); the shares are then written and the grants go on
  // there, re-grants and +0.0 among them. ISRPT's boost variant grants
  // n + 1 times when n < m.
  for (const std::size_t n : {4u, 64u, 70u}) {
    // Distinct indices (the support widens), or five of them granted over
    // and over.
    for (const std::size_t spread : {n, std::size_t{5}}) {
      Allocation a;
      DenseReference ref;
      a.reset(n);
      ref.reset(n);
      for (std::size_t k = 0; k < n / 4 + 11; ++k) {
        const std::size_t i = (3 * k) % std::min(n, spread);
        const double s = k % 3 == 0 ? 0.0 : static_cast<double>(k);
        a.grant(i, s);
        ref.grant(i, s);
      }
      const std::string what = "past n/8 grants, n = " + std::to_string(n) +
                               ", spread " + std::to_string(spread);
      expect_reference_support(a, ref, what);
      expect_reference_shares(a, ref, what);
    }
  }
}

// ---- fill() writes its shares on first read ------------------------------

/// Every share of `a` has the bits of `x`, and there are n of them.
void expect_all_shares(const Allocation& a, std::size_t n, double x) {
  ASSERT_EQ(a.size(), n);
  ASSERT_EQ(a.shares().size(), n);
  for (const double s : a.shares()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s), std::bit_cast<std::uint64_t>(x));
  }
}

TEST(AllocationFill, SharesReadAfterAFillAreTheFilledShare) {
  Allocation a;
  a.fill(5, 0.25);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_TRUE(a.uniform());
  EXPECT_EQ(a.uniform_share(), 0.25);
  expect_all_shares(a, 5, 0.25);
  EXPECT_TRUE(a.uniform());  // reading writes the shares, changes nothing
  a.fill(3, -0.0);           // a smaller fill over written shares
  expect_all_shares(a, 3, -0.0);
}

TEST(AllocationFill, GrantAfterAFillKeepsTheOtherShares) {
  Allocation a;
  a.fill(4, 0.5);
  a.grant(2, 1.0);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_FALSE(a.uniform());
  EXPECT_TRUE(a.dense());
  const std::vector<double> want = {0.5, 0.5, 1.0, 0.5};
  EXPECT_EQ(std::vector<double>(a.shares().begin(), a.shares().end()), want);
}

TEST(AllocationFill, ResetAfterAnUnreadFillZeroesEveryShare) {
  for (const std::size_t n : {std::size_t{3}, std::size_t{6},
                              std::size_t{9}}) {
    Allocation a;
    a.reset(6);
    a.grant(1, 2.0);
    a.fill(6, 0.75);  // never read
    a.reset(n);
    EXPECT_EQ(a.size(), n);
    EXPECT_FALSE(a.dense());
    EXPECT_FALSE(a.uniform());
    EXPECT_TRUE(a.support().empty());
    expect_all_shares(a, n, 0.0);
  }
}

TEST(AllocationFill, AssignAfterAnUnreadFillTakesTheNewShares) {
  Allocation a;
  a.fill(4, 0.5);
  a.assign({0.0, 1.0});
  EXPECT_EQ(a.size(), 2u);
  EXPECT_FALSE(a.uniform());
  const std::vector<double> want = {0.0, 1.0};
  EXPECT_EQ(std::vector<double>(a.shares().begin(), a.shares().end()), want);
  EXPECT_EQ(std::vector<std::size_t>(a.support().begin(), a.support().end()),
            std::vector<std::size_t>{1});
}

TEST(AllocationFill, CopiesOfAnUnreadFillReadTheFilledShare) {
  Allocation a;
  a.reset(4);
  a.grant(0, 3.0);
  a.fill(3, 0.125);
  const Allocation copy = a;  // neither has written its shares
  Allocation assigned;
  assigned = copy;
  expect_all_shares(copy, 3, 0.125);
  expect_all_shares(assigned, 3, 0.125);
  expect_all_shares(a, 3, 0.125);
  EXPECT_TRUE(copy.uniform());
  EXPECT_TRUE(copy.dense());
}

TEST(AllocationFill, AnEmptyFillHasNoShares) {
  Allocation a;
  a.fill(0, 0.5);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_TRUE(a.shares().empty());
  EXPECT_TRUE(a.uniform());
  a.reset(2);
  expect_all_shares(a, 2, 0.0);
}

TEST(AllocationFill, WritingTheSharesReusesTheVectorsCapacity) {
  if (!alloc_hook_active()) GTEST_SKIP() << "allocation hook compiled out";
  Allocation a;
  a.reset(1000);  // sizes the share vector and the support's capacity
  const std::size_t sizes[] = {1000, 10, 999};
  std::size_t written[3] = {};
  const AllocStats before = alloc_stats();
  {
    AllocGuard guard("AllocationFill: warm fills");
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t n = sizes[k];
      a.fill(n, 1.0 / static_cast<double>(n));
      written[k] = a.shares().size();
      a.fill(n, 0.5);
      a.grant(n - 1, 0.25);
      a.reset(n);
    }
  }
  EXPECT_EQ(alloc_stats().allocations, before.allocations);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(written[k], sizes[k]);
}

TEST(AllocationSupport, AuditedRunsCheckTheInvariantForEveryPolicy) {
  // Under PARSCHED_AUDIT the engine checks, at every decision, that each
  // share outside the support is exactly +0.0 (and that the support is
  // sorted, unique and in range).
  // Arrivals outpace the 4 machines, so the alive set grows past 8x the
  // support of the SRPT-style policies and their supports stay lists.
  setenv("PARSCHED_AUDIT", "1", 1);
  std::vector<Job> jobs;
  for (int i = 0; i < 160; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), 0.05 * (i / 2),
                            1.0 + 0.1 * (i % 7), 0.3 + 0.004 * i));
  }
  const Instance inst(4, jobs);
  for (const char* policy :
       {"isrpt", "seq-srpt", "par-srpt", "greedy", "equi", "isrpt-boost",
        "mlf", "wisrpt", "laps:0.5", "oldest-equi:0.5", "setf:0.2",
        "isrpt-thresh:2.0", "quantized-equi:0.5"}) {
    auto sched = make_scheduler(policy);
    EXPECT_NO_THROW((void)simulate(inst, *sched)) << policy;
  }
  unsetenv("PARSCHED_AUDIT");
}

}  // namespace
}  // namespace parsched
