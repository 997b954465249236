// Behavioral tests for every scheduling policy.
#include <gtest/gtest.h>

#include <cmath>

#include "sched/equi.hpp"
#include "sched/greedy_hybrid.hpp"
#include "sched/intermediate_srpt.hpp"
#include "sched/parallel_srpt.hpp"
#include "sched/registry.hpp"
#include "sched/sequential_srpt.hpp"
#include "sched/variants.hpp"
#include "simcore/engine.hpp"
#include "simcore/trajectory.hpp"
#include "util/rng.hpp"
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

std::vector<double> completions(const SimResult& r) {
  std::vector<double> out(r.records.size());
  for (const auto& rec : r.records) {
    out[rec.job.id] = rec.completion;
  }
  return out;
}

// ---------------------------------------------------- Intermediate-SRPT

TEST(IntermediateSrpt, AgreesWithSequentialSrptWhenAlwaysOverloaded) {
  // m = 2 machines, 8 jobs all present from time 0: |A(t)| >= m until the
  // very end, and in the final stretch (< m jobs) the remaining jobs hold
  // whole machines either way only if n = 1 uses both... restrict to the
  // overloaded prefix by comparing per-job completions of the first 6 jobs.
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), 0.0, 1.0 + i, 0.5));
  }
  Instance inst(2, jobs);
  IntermediateSrpt isrpt;
  SequentialSrpt seq;
  const auto ci = completions(simulate(inst, isrpt));
  const auto cs = completions(simulate(inst, seq));
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(ci[i], cs[i], 1e-9) << "job " << i;
  }
}

TEST(IntermediateSrpt, AgreesWithEquiWhenAlwaysUnderloaded) {
  std::vector<Job> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), 0.0, 4.0, 0.5));
  }
  Instance inst(8, jobs);  // 3 < 8 always
  IntermediateSrpt isrpt;
  Equi equi;
  const auto ci = completions(simulate(inst, isrpt));
  const auto ce = completions(simulate(inst, equi));
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(ci[i], ce[i], 1e-9);
}

TEST(IntermediateSrpt, SwitchesModesAcrossTheBoundary) {
  // m = 2; three unit jobs then the survivors equipartition.
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 2.0, 0.5),
                    make_job(2, 0.0, 4.0, 0.5)});
  IntermediateSrpt sched;
  const SimResult r = simulate(inst, sched);
  const auto c = completions(r);
  EXPECT_NEAR(c[0], 1.0, 1e-9);
  EXPECT_NEAR(c[1], 2.0, 1e-9);
  // job2 idle till 1, share-1 until 2 (remaining 3), then both machines:
  // 2 + 3/2^{0.5}.
  EXPECT_NEAR(c[2], 2.0 + 3.0 / std::sqrt(2.0), 1e-9);
}

// ------------------------------------------------------ Sequential-SRPT

TEST(SequentialSrpt, NeverGivesMoreThanOneMachine) {
  Instance inst(8, {make_job(0, 0.0, 4.0, 1.0)});
  SequentialSrpt sched;
  const SimResult r = simulate(inst, sched);
  // Even fully parallel job gets one machine: completes at 4.
  EXPECT_NEAR(r.records[0].completion, 4.0, 1e-9);
}

TEST(SequentialSrpt, PrefersShortRemaining) {
  Instance inst(1, {make_job(0, 0.0, 3.0, 0.0), make_job(1, 1.0, 1.0, 0.0)});
  SequentialSrpt sched;
  const auto c = completions(simulate(inst, sched));
  EXPECT_NEAR(c[1], 2.0, 1e-9);  // preempts the long job
  EXPECT_NEAR(c[0], 4.0, 1e-9);
}

// -------------------------------------------------------- Parallel-SRPT

TEST(ParallelSrpt, OptimalForFullyParallelJobs) {
  // SRPT on one speed-m machine: hand-checkable.
  Instance inst(4, {make_job(0, 0.0, 8.0, 1.0), make_job(1, 0.5, 2.0, 1.0)});
  ParallelSrpt sched;
  const auto c = completions(simulate(inst, sched));
  // t in [0, .5): job0 at rate 4 -> rem 6. Then job1 (2 < 6) runs: done at 1.
  EXPECT_NEAR(c[1], 1.0, 1e-9);
  EXPECT_NEAR(c[0], 1.0 + 6.0 / 4.0, 1e-9);
}

// --------------------------------------------------------------- Greedy

TEST(GreedyHybrid, OverAllocatesToShortJob) {
  // m=2, alpha=0.5: A(rem 1) vs B(rem 10). marg(0)/p: A 1 vs B 0.1 -> A;
  // then A marg(1) = sqrt(2)-1 ~ .414 vs B .1 -> A again. A hoards both.
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 10.0, 0.5)});
  GreedyHybrid sched;
  const auto c = completions(simulate(inst, sched));
  EXPECT_NEAR(c[0], 1.0 / std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(c[1], 1.0 / std::sqrt(2.0) + 10.0 / std::sqrt(2.0), 1e-9);
}

TEST(GreedyHybrid, SpreadsWhenMarginalsSaturate) {
  // Two equal jobs, m = 2: after one processor each, the marginal of a
  // second processor (2^a - 1)/p loses to the other job's first (1/p).
  Instance inst(2, {make_job(0, 0.0, 4.0, 0.5), make_job(1, 0.0, 4.0, 0.5)});
  GreedyHybrid sched;
  const auto c = completions(simulate(inst, sched));
  EXPECT_NEAR(c[0], 4.0, 1e-9);
  EXPECT_NEAR(c[1], 4.0, 1e-9);
}

TEST(GreedyHybrid, QuantumVariantMatchesExact) {
  std::vector<Job> jobs;
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), rng.uniform(0.0, 4.0),
                            rng.uniform(1.0, 8.0), 0.5));
  }
  Instance inst(3, jobs);
  GreedyHybrid exact;
  GreedyHybrid quantized(0.05);
  const double fe = simulate(inst, exact).total_flow;
  const double fq = simulate(inst, quantized).total_flow;
  // Greedy is time-inconsistent, so extra re-decision points can shift
  // individual allocations; the flows must still agree closely.
  EXPECT_NEAR(fe, fq, 0.05 * fe);
}

// ------------------------------------------------------------ EQUI/LAPS

TEST(Equi, SharesEquallyEvenWhenOverloaded) {
  Instance inst(2, {make_job(0, 0.0, 1.0, 0.5), make_job(1, 0.0, 1.0, 0.5),
                    make_job(2, 0.0, 1.0, 0.5), make_job(3, 0.0, 1.0, 0.5)});
  Equi sched;
  const auto c = completions(simulate(inst, sched));
  // Each gets 0.5 machines: rate 0.5 -> all complete at 2.
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(c[i], 2.0, 1e-9);
}

TEST(Laps, ServesOnlyLatestArrivals) {
  // beta = 0.5, m = 2, 2 jobs: only the latest gets everything.
  Instance inst(2, {make_job(0, 0.0, 2.0, 0.5), make_job(1, 0.1, 2.0, 0.5)});
  Laps sched(0.5);
  const SimResult r = simulate(inst, sched);
  const auto c = completions(r);
  // job1 monopolizes both machines from 0.1: rate 2^{0.5}.
  EXPECT_NEAR(c[1], 0.1 + 2.0 / std::sqrt(2.0), 1e-6);
  EXPECT_GT(c[0], c[1]);  // starved until job1 leaves
}

TEST(Laps, RejectsBadBeta) {
  EXPECT_THROW(Laps(-0.1), std::invalid_argument);
  EXPECT_THROW(Laps(0.0), std::invalid_argument);
  EXPECT_THROW(Laps(1.5), std::invalid_argument);
}

TEST(Laps, BetaOneIsEqui) {
  RandomWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 30;
  cfg.seed = 3;
  const Instance inst = make_random_instance(cfg);
  Laps laps(1.0);
  Equi equi;
  EXPECT_NEAR(simulate(inst, laps).total_flow,
              simulate(inst, equi).total_flow, 1e-6);
}

// ------------------------------------------------------------- variants

TEST(Variants, ThresholdOneMatchesIsrpt) {
  RandomWorkloadConfig cfg;
  cfg.machines = 4;
  cfg.jobs = 40;
  cfg.seed = 7;
  const Instance inst = make_random_instance(cfg);
  IsrptThreshold variant(1.0);
  IntermediateSrpt isrpt;
  EXPECT_NEAR(simulate(inst, variant).total_flow,
              simulate(inst, isrpt).total_flow, 1e-6);
}

TEST(Variants, BoostShortestDiffersUnderload) {
  Instance inst(4, {make_job(0, 0.0, 2.0, 0.5), make_job(1, 0.0, 8.0, 0.5)});
  IsrptBoostShortest boost;
  const auto c = completions(simulate(inst, boost));
  // Shortest holds 3 machines (rate 3^0.5), other 1 (rate 1).
  EXPECT_NEAR(c[0], 2.0 / std::pow(3.0, 0.5), 1e-9);
  EXPECT_LT(c[0], 2.0 / std::sqrt(2.0));  // faster than equipartition
}

TEST(Variants, QuantizedEquiApproachesEqui) {
  Instance inst(2, {make_job(0, 0.0, 2.0, 0.0), make_job(1, 0.0, 2.0, 0.0),
                    make_job(2, 0.0, 2.0, 0.0), make_job(3, 0.0, 2.0, 0.0)});
  QuantizedEqui q(0.01);
  Equi equi;
  const double fq = simulate(inst, q).total_flow;
  const double fe = simulate(inst, equi).total_flow;
  EXPECT_NEAR(fq, fe, 0.1 * fe);
}

TEST(Variants, RejectBadParams) {
  EXPECT_THROW(IsrptThreshold(0.5), std::invalid_argument);
  EXPECT_THROW(QuantizedEqui(0.0), std::invalid_argument);
}

// ------------------------------------------------------------- registry

TEST(Registry, BuildsEveryStandardPolicy) {
  for (const auto& name : standard_policy_names()) {
    auto sched = make_scheduler(name);
    ASSERT_NE(sched, nullptr) << name;
    EXPECT_FALSE(sched->name().empty());
  }
}

TEST(Registry, ParameterizedSpecs) {
  EXPECT_EQ(make_scheduler("laps:0.25")->name(), "LAPS(0.25)");
  EXPECT_NE(make_scheduler("isrpt-thresh:3")->name().find("3"),
            std::string::npos);
  EXPECT_NE(make_scheduler("quantized-equi:0.5")->name().find("0.5"),
            std::string::npos);
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)make_scheduler("definitely-not-a-policy"),
               std::invalid_argument);
}

TEST(Registry, MalformedOrOutOfRangeParametersThrow) {
  // A spec without ':' takes the default; one with ':' must carry one
  // whole number in the policy's range. None of these falls back to the
  // default policy.
  EXPECT_EQ(make_scheduler("laps")->name(), "LAPS(0.5)");
  for (const char* spec :
       {"laps:0", "laps:-1", "laps:nan", "laps:0.5x", "laps:", "laps:1.5",
        "laps: 0.5", "oldest-equi:0", "oldest-equi:nan", "quantized-equi:0",
        "quantized-equi:nan", "setf:0", "setf:-0.1", "isrpt-thresh:0.5",
        "isrpt-thresh:nan", "isrpt-thresh:2x", "isrpt:2"}) {
    EXPECT_THROW((void)make_scheduler(spec), std::invalid_argument) << spec;
  }
}

}  // namespace
}  // namespace parsched
