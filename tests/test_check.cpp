// The src/check subsystem: contract macros, the InvariantAuditor, and the
// determinism checker.
#include <gtest/gtest.h>

#include <cmath>

#include "check/contract.hpp"
#include "check/determinism.hpp"
#include "check/invariant_auditor.hpp"
#include "sched/registry.hpp"
#include "simcore/engine.hpp"
#include "workload/adversary.hpp"
#include "workload/random.hpp"

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

// ------------------------------------------------------- contract macros

TEST(Contract, CheckPassesSilently) {
  const std::uint64_t before = contract_failures();
  PARSCHED_CHECK(1 + 1 == 2);
  PARSCHED_CHECK(2 > 1, "with a message");
  PARSCHED_CHECK_NEAR(1.0, 1.0 + 1e-12, 1e-9);
  EXPECT_EQ(contract_failures(), before);
}

TEST(Contract, CheckThrowsAndCounts) {
  const std::uint64_t before = contract_failures();
  EXPECT_THROW(PARSCHED_CHECK(false, "deliberate"), ContractViolation);
  EXPECT_THROW(PARSCHED_CHECK_NEAR(1.0, 2.0, 1e-9), ContractViolation);
  EXPECT_EQ(contract_failures(), before + 2);
}

TEST(Contract, ViolationMessageNamesTheSite) {
  try {
    PARSCHED_CHECK(0 > 1, "impossible ordering");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("0 > 1"), std::string::npos);
    EXPECT_NE(what.find("impossible ordering"), std::string::npos);
    EXPECT_NE(what.find("test_check.cpp"), std::string::npos);
  }
}

TEST(Contract, LogPolicyContinuesButCounts) {
  const std::uint64_t before = contract_failures();
  {
    ScopedContractPolicy log(ContractPolicy::kLog);
    EXPECT_NO_THROW(PARSCHED_CHECK(false, "logged only"));
    EXPECT_EQ(contract_policy(), ContractPolicy::kLog);
  }
  EXPECT_EQ(contract_policy(), ContractPolicy::kThrow);
  EXPECT_EQ(contract_failures(), before + 1);
}

TEST(Contract, DcheckMatchesBuildType) {
  const std::uint64_t before = contract_failures();
#if defined(NDEBUG) && !defined(PARSCHED_FORCE_DCHECKS)
  // Compiled out: the condition must not even be evaluated.
  bool evaluated = false;
  PARSCHED_DCHECK([&] {
    evaluated = true;
    return false;
  }());
  EXPECT_FALSE(evaluated);
  EXPECT_EQ(contract_failures(), before);
#else
  EXPECT_THROW(PARSCHED_DCHECK(false, "debug contract"), ContractViolation);
  EXPECT_EQ(contract_failures(), before + 1);
#endif
}

TEST(Contract, LibraryContractsFireInEveryBuildType) {
  // round_integral's integrality contract used to be a raw assert that
  // vanished under NDEBUG; now it must throw in RelWithDebInfo too.
  EXPECT_THROW((void)round_integral(0.5), ContractViolation);
  EXPECT_THROW((void)num_size_classes(0.25), ContractViolation);
  EXPECT_THROW((void)adversary_constants(1.5), ContractViolation);
}

// ------------------------------------------------- auditor on clean runs

TEST(InvariantAuditor, PolicyLintMapping) {
  EXPECT_EQ(policy_lint_for("Sequential-SRPT"), PolicyLint::kSequentialSrpt);
  EXPECT_EQ(policy_lint_for("EQUI"), PolicyLint::kEqui);
  EXPECT_EQ(policy_lint_for("Intermediate-SRPT"),
            PolicyLint::kIntermediateSrpt);
  EXPECT_EQ(policy_lint_for("LAPS(0.5)"), PolicyLint::kNone);
  EXPECT_EQ(policy_lint_for("Greedy-Hybrid"), PolicyLint::kNone);
}

InvariantAuditor audited_run(const Instance& inst, Scheduler& sched,
                             const EngineConfig& cfg = {}) {
  AuditConfig audit;
  audit.speed = cfg.speed;
  audit.policy = PolicyLint::kAuto;
  audit.policy_name = sched.name();
  InvariantAuditor auditor(inst.machines(), audit);
  (void)simulate(inst, sched, cfg, {&auditor});
  return auditor;
}

TEST(InvariantAuditor, AllSeedPoliciesCleanOnRandomFamilies) {
  for (const auto& spec : standard_policy_names()) {
    for (std::uint64_t seed : {11u, 29u}) {
      RandomWorkloadConfig cfg;
      cfg.machines = 4;
      cfg.jobs = 120;
      cfg.load = 1.0;
      cfg.seed = seed;
      const Instance inst = make_random_instance(cfg);
      auto sched = make_scheduler(spec);
      const InvariantAuditor auditor = audited_run(inst, *sched);
      EXPECT_TRUE(auditor.ok()) << spec << " seed " << seed << ": "
                                << auditor.report();
      EXPECT_GT(auditor.decisions_audited(), 0u);
      EXPECT_NO_THROW(auditor.require_clean());
    }
  }
}

TEST(InvariantAuditor, AllSeedPoliciesCleanOnAdversarialFamily) {
  AdversaryConfig adv;
  adv.machines = 4;
  adv.alpha = 0.5;
  adv.P = 64.0;
  adv.stream_time = 48.0;  // cap the part-2 stream for test runtime
  for (const auto& spec : standard_policy_names()) {
    auto sched = make_scheduler(spec);
    AuditConfig audit;
    audit.policy = PolicyLint::kAuto;
    audit.policy_name = sched->name();
    InvariantAuditor auditor(adv.machines, audit);
    AdversarySource source(adv);
    Engine engine(adv.machines);
    engine.add_observer(&auditor);
    const SimResult r = engine.run(*sched, source);
    EXPECT_GT(r.jobs(), 0u);
    EXPECT_TRUE(auditor.ok()) << spec << ": " << auditor.report();
  }
}

TEST(InvariantAuditor, CleanUnderSpeedAugmentation) {
  RandomWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 60;
  cfg.seed = 5;
  const Instance inst = make_random_instance(cfg);
  EngineConfig ecfg;
  ecfg.speed = 2.0;
  auto sched = make_scheduler("equi");
  const InvariantAuditor auditor = audited_run(inst, *sched, ecfg);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(InvariantAuditor, CleanOnMultiPhaseJobs) {
  // Multi-phase jobs switch speedup curves at phase boundaries; the rate
  // model must track the per-phase curve, not the first one.
  std::vector<Job> jobs;
  jobs.push_back(make_phased_job(
      0, 0.0,
      {{4.0, SpeedupCurve::fully_parallel()},
       {2.0, SpeedupCurve::sequential()},
       {3.0, SpeedupCurve::power_law(0.5)}}));
  jobs.push_back(make_job(1, 1.0, 5.0, 0.5));
  Instance inst(3, jobs);
  auto sched = make_scheduler("equi");
  const InvariantAuditor auditor = audited_run(inst, *sched);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --------------------------------------------- injected-violation detection

// Feeding the callbacks synthetic trajectories simulates a broken engine,
// which no real Engine run can produce (it enforces its own guards).

TEST(InvariantAuditor, DetectsOvercommittedShares) {
  InvariantAuditor auditor(2);
  const Job j0 = make_job(0, 0.0, 4.0, 1.0);
  const Job j1 = make_job(1, 0.0, 4.0, 1.0);
  auditor.on_arrival(0.0, j0);
  auditor.on_arrival(0.0, j1);
  AliveJob a0;
  a0.id = 0;
  a0.size = a0.remaining = 4.0;
  a0.curve = j0.curve;
  AliveJob a1 = a0;
  a1.id = 1;
  const std::vector<AliveJob> alive = {a0, a1};
  const std::vector<double> shares = {1.5, 1.0};  // sum 2.5 > m = 2
  auditor.on_decision(0.0, alive, shares);
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("overcommitted"), std::string::npos);
}

TEST(InvariantAuditor, DetectsNegativeShares) {
  InvariantAuditor auditor(2);
  const Job j0 = make_job(0, 0.0, 4.0, 1.0);
  auditor.on_arrival(0.0, j0);
  AliveJob a0;
  a0.id = 0;
  a0.size = a0.remaining = 4.0;
  a0.curve = j0.curve;
  const std::vector<AliveJob> alive = {a0};
  const std::vector<double> shares = {-0.25};
  auditor.on_decision(0.0, alive, shares);
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("negative share"), std::string::npos);
}

TEST(InvariantAuditor, DetectsRateModelViolation) {
  // Work drains at rate 1 (share 1, Γ(1) = 1) but the "engine" reports
  // twice the progress: remaining 4 -> 1 over dt = 1.
  InvariantAuditor auditor(2);
  const Job j0 = make_job(0, 0.0, 4.0, 1.0);
  auditor.on_arrival(0.0, j0);
  AliveJob a0;
  a0.id = 0;
  a0.size = a0.remaining = 4.0;
  a0.curve = j0.curve;
  std::vector<AliveJob> alive = {a0};
  const std::vector<double> shares = {1.0};
  auditor.on_decision(0.0, alive, shares);
  ASSERT_TRUE(auditor.ok()) << auditor.report();
  alive[0].remaining = 1.0;
  auditor.on_decision(1.0, alive, shares);
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("rate model"), std::string::npos);
}

TEST(InvariantAuditor, DetectsIncreasingRemainingWork) {
  InvariantAuditor auditor(2);
  const Job j0 = make_job(0, 0.0, 4.0, 1.0);
  auditor.on_arrival(0.0, j0);
  AliveJob a0;
  a0.id = 0;
  a0.size = a0.remaining = 4.0;
  a0.curve = j0.curve;
  std::vector<AliveJob> alive = {a0};
  const std::vector<double> zero = {0.0};
  auditor.on_decision(0.0, alive, zero);
  alive[0].remaining = 6.0;  // grew beyond its size
  auditor.on_decision(1.0, alive, zero);
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditor, DetectsTimeTravel) {
  InvariantAuditor auditor(1);
  auditor.on_arrival(5.0, make_job(0, 5.0, 1.0, 0.5));
  auditor.on_arrival(2.0, make_job(1, 2.0, 1.0, 0.5));  // t went backwards
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("nondecreasing"), std::string::npos);
}

TEST(InvariantAuditor, DetectsCompletionBeforeRelease) {
  InvariantAuditor auditor(1);
  const Job j = make_job(0, 3.0, 1.0, 0.5);
  auditor.on_arrival(3.0, j);
  auditor.on_completion(1.0, j);
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditor, DetectsPrematureCompletion) {
  InvariantAuditor auditor(1);
  const Job j = make_job(0, 0.0, 8.0, 0.0);
  auditor.on_arrival(0.0, j);
  AliveJob a;
  a.id = 0;
  a.size = a.remaining = 8.0;
  a.curve = j.curve;
  const std::vector<AliveJob> alive = {a};
  const std::vector<double> shares = {1.0};
  auditor.on_decision(0.0, alive, shares);
  auditor.on_completion(1.0, j);  // 7 units of work vanished
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("predicted remaining"), std::string::npos);
}

TEST(InvariantAuditor, FailFastThrows) {
  AuditConfig cfg;
  cfg.fail_fast = true;
  InvariantAuditor auditor(1, cfg);
  auditor.on_arrival(5.0, make_job(0, 5.0, 1.0, 0.5));
  EXPECT_THROW(auditor.on_arrival(2.0, make_job(1, 2.0, 1.0, 0.5)),
               AuditFailure);
}

// A policy that equipartitions while claiming to be Sequential-SRPT:
// the structural lint must flag it even though it is perfectly feasible.
TEST(InvariantAuditor, PolicyLintCatchesStructuralDrift) {
  Instance inst(2, {make_job(0, 0.0, 2.0, 0.5), make_job(1, 0.0, 4.0, 0.5),
                    make_job(2, 0.0, 6.0, 0.5)});
  auto equi = make_scheduler("equi");
  AuditConfig audit;
  audit.policy = PolicyLint::kSequentialSrpt;
  audit.policy_name = "impostor";
  InvariantAuditor auditor(inst.machines(), audit);
  (void)simulate(inst, *equi, {}, {&auditor});
  EXPECT_FALSE(auditor.ok());
  EXPECT_THROW(auditor.require_clean(), AuditFailure);
}

// An anti-SRPT policy: feasible 0/1 shares, but serves the *longest* jobs.
class AntiSrpt final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "Anti-SRPT"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    const std::size_t n = ctx.alive().size();
    const auto m = static_cast<std::size_t>(ctx.machines());
    out.reset(n);
    const auto order = ctx.smallest_remaining(n);  // serve from the back
    for (std::size_t i = 0; i < std::min(n, m); ++i) {
      out.grant(order[n - 1 - i], 1.0);
    }
  }
};

TEST(InvariantAuditor, PolicyLintCatchesSrptOrderingViolation) {
  Instance inst(1, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 9.0, 0.5)});
  AntiSrpt sched;
  AuditConfig audit;
  audit.policy = PolicyLint::kSequentialSrpt;
  InvariantAuditor auditor(inst.machines(), audit);
  (void)simulate(inst, sched, {}, {&auditor});
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("SRPT ordering"), std::string::npos);
}

TEST(InvariantAuditor, ResetRearmsForAnotherRun) {
  Instance inst(2, {make_job(0, 0.0, 2.0, 0.5)});
  auto sched = make_scheduler("isrpt");
  InvariantAuditor auditor(inst.machines());
  (void)simulate(inst, *sched, {}, {&auditor});
  EXPECT_TRUE(auditor.ok());
  auditor.reset();
  (void)simulate(inst, *sched, {}, {&auditor});
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// ------------------------------------------------------------ determinism

TEST(Determinism, SeedPoliciesReplayIdentically) {
  RandomWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 80;
  cfg.seed = 17;
  const Instance inst = make_random_instance(cfg);
  for (const auto& spec : standard_policy_names()) {
    const DeterminismReport rep = check_determinism(
        inst, [&] { return make_scheduler(spec); });
    EXPECT_TRUE(rep.deterministic) << spec << ": " << rep.to_string();
    EXPECT_GT(rep.events_first, 0u);
  }
}

TEST(Determinism, SchedulerReuseExercisesReset) {
  RandomWorkloadConfig cfg;
  cfg.machines = 2;
  cfg.jobs = 40;
  cfg.seed = 23;
  const Instance inst = make_random_instance(cfg);
  auto sched = make_scheduler("greedy");
  const DeterminismReport rep = check_determinism(inst, *sched);
  EXPECT_TRUE(rep.deterministic) << rep.to_string();
}

// A scheduler whose reset() forgets state: run 2 diverges from run 1.
class LeakyStateScheduler final : public Scheduler {
 public:
  using Scheduler::allocate;
  std::string name() const override { return "LeakyState"; }
  void allocate(const SchedulerContext& ctx, Allocation& out) override {
    out.reset(ctx.alive().size());
    if (out.size() > 0) {
      // Round-robins on a counter that reset() fails to clear.
      out.grant(calls_++ % out.size(), static_cast<double>(ctx.machines()));
    }
  }
  // reset() intentionally omitted: state leaks across runs.

 private:
  std::size_t calls_ = 0;
};

TEST(Determinism, CatchesStateLeakingAcrossReset) {
  Instance inst(1, {make_job(0, 0.0, 2.0, 0.0), make_job(1, 0.0, 2.0, 0.0),
                    make_job(2, 0.0, 2.0, 0.0)});
  LeakyStateScheduler sched;
  const DeterminismReport rep = check_determinism(inst, sched);
  EXPECT_FALSE(rep.deterministic) << rep.to_string();
  EXPECT_NE(rep.to_string().find("NONDETERMINISTIC"), std::string::npos);
}

}  // namespace
}  // namespace parsched
