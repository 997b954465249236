// repro_grid — the researcher's time-to-table.
//
// Cells shaped like the E1b/E2b grids, one after another on one thread:
// random Poisson instances at critical load (m = 8, n = 400, load 1.0),
// P in {16, 64, 256, 1024} x alpha in {0.25, 0.5, 0.75}. Each cell is one
// compare_to_opt(instance, ISRPT): the ALG run, the OPT lower bound and
// the six-policy portfolio upper bound.
//
// Inputs come from a pool of instance sets (pool index k gives all twelve
// cells); --seed picks the order in which the run's grid passes walk the
// pool, a seeded permutation per cycle. The timed figures use each cell's
// fastest repeat (FastestRepeat, common.hpp), and each repeat runs on the
// next CPU of the affinity mask (CpuRotation). The pool is small so every
// cell is repeated dozens of times in a run. Every cell's alg_flow /
// opt_lower / opt_upper is checked bit for bit against the committed
// reference of its pool entry, which --write-reference regenerates.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/competitive.hpp"
#include "common.hpp"
#include "sched/intermediate_srpt.hpp"
#include "sched/opt/relaxations.hpp"
#include "sched/registry.hpp"
#include "simcore/engine.hpp"
#include "util/rng.hpp"
#include "workload/random.hpp"

namespace perfbench {
namespace {

using parsched::Instance;

constexpr double kPs[] = {16.0, 64.0, 256.0, 1024.0};
constexpr double kAlphas[] = {0.25, 0.5, 0.75};
constexpr int kCells = 12;
/// One pool generation takes ~1.5 ms, and a CPU's slow state (see
/// CpuRotation) would double it: each setup_s sample is the fastest of a
/// batch of back-to-back generations, one per CPU in turn, and the metric
/// is the median over the samples.
constexpr std::size_t kSetupSamples = 9;
constexpr int kSetupsPerSample = 32;

struct Shape {
  std::size_t jobs;
  int pool;    ///< instance sets in the pool
  int traced_passes;
};

Shape shape(bool tiny) { return tiny ? Shape{40, 2, 1} : Shape{400, 2, 2}; }

parsched::RandomWorkloadConfig cell_config(int k, int c, std::size_t jobs) {
  parsched::RandomWorkloadConfig cfg;
  cfg.machines = 8;
  cfg.jobs = jobs;
  cfg.P = kPs[c / 3];
  cfg.alpha_lo = cfg.alpha_hi = kAlphas[c % 3];
  cfg.load = 1.0;
  cfg.seed = 1000003ull * static_cast<std::uint64_t>(k + 1) +
             static_cast<std::uint64_t>(c);
  return cfg;
}

std::string cell_key(int k, int c) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "k%d.P%d.a%.2f", k,
                static_cast<int>(kPs[c / 3]), kAlphas[c % 3]);
  return buf;
}

/// pool[k * kCells + c] is cell c of instance set k.
std::vector<Instance> generate_pool(const Shape& s) {
  std::vector<Instance> pool;
  pool.reserve(static_cast<std::size_t>(s.pool * kCells));
  for (int k = 0; k < s.pool; ++k) {
    for (int c = 0; c < kCells; ++c) {
      pool.push_back(parsched::make_random_instance(cell_config(k, c, s.jobs)));
    }
  }
  return pool;
}

void check_cell(const Reference& ref, int k, int c, double alg, double lower,
                double upper) {
  ref.expect(cell_key(k, c), {alg, lower, upper});
  // ratio_lb >= 1 holds by construction (ALG's policy is in the
  // portfolio behind opt_upper); the OPT sandwich opt_lower <= opt_upper
  // is what a faulty lower bound would break.
  check(alg >= upper, "ratio_lb < 1 at " + cell_key(k, c));
  check(lower <= upper, "opt_lower > opt_upper at " + cell_key(k, c));
}

/// The traced decomposition of compare_to_opt: the same three steps,
/// called from here so each layer can be timed — ALG and every portfolio
/// policy behind a TimedScheduler, one CountingObserver on every engine.
struct TracedGrid {
  CountingObserver obs;
  double generate_s = 0.0;
  double lower_bound_s = 0.0;
  double sim_wall_s = 0.0;
  double allocate_s = 0.0;
  std::uint64_t allocate_calls = 0;
  std::uint64_t events = 0;
  std::vector<double> policy_allocate_s;

  double simulate(const Instance& inst, const std::string& spec,
                  std::size_t slot) {
    TimedScheduler sched(parsched::make_scheduler(spec), true);
    const double t0 = now_s();
    const parsched::SimResult res = parsched::simulate(inst, sched, {}, {&obs});
    sim_wall_s += now_s() - t0;
    events += res.events;
    allocate_s += sched.busy_s();
    allocate_calls += sched.calls();
    policy_allocate_s[slot] += sched.busy_s();
    return res.total_flow;
  }

  void cell(const Reference& ref, const Shape& s, int k, int c) {
    double t0 = now_s();
    const Instance inst =
        parsched::make_random_instance(cell_config(k, c, s.jobs));
    generate_s += now_s() - t0;
    const std::vector<std::string> names = parsched::standard_policy_names();
    const double alg = simulate(inst, "isrpt", 0);
    t0 = now_s();
    const double lower = parsched::opt_lower_bound(inst);
    lower_bound_s += now_s() - t0;
    double upper = parsched::kInf;
    for (std::size_t i = 0; i < names.size(); ++i) {
      upper = std::min(upper, simulate(inst, names[i], i));
    }
    check_cell(ref, k, c, alg, lower, upper);
  }
};

}  // namespace

int run_repro_grid(const Options& opt, Report& r) {
  const Shape s = shape(opt.tiny);
  std::vector<Instance> pool = generate_pool(s);

  if (opt.write_reference) {
    Reference ref;
    for (int k = 0; k < s.pool; ++k) {
      for (int c = 0; c < kCells; ++c) {
        parsched::IntermediateSrpt alg;
        const auto rep = parsched::compare_to_opt(
            pool[static_cast<std::size_t>(k * kCells + c)], alg);
        ref.set(cell_key(k, c), {rep.alg_flow, rep.opt_lower, rep.opt_upper});
      }
    }
    ref.save(opt.reference,
             "# repro_grid reference: key alg_flow opt_lower opt_upper "
             "(hex floats), written by perfbench_driver --write-reference\n");
    return 0;
  }
  const Reference ref = Reference::load(opt.reference);

  // The seed fixes the order of the instance sets: each cycle runs every
  // set once, in a seeded random order, so every run times every cell.
  parsched::Rng rng(opt.seed);
  std::vector<int> order;
  std::size_t at = 0;
  auto next_set = [&] {
    if (at == order.size()) {
      order.resize(static_cast<std::size_t>(s.pool));
      for (int k = 0; k < s.pool; ++k) order[static_cast<std::size_t>(k)] = k;
      for (std::size_t k = order.size() - 1; k > 0; --k) {
        std::swap(order[k], order[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(k)))]);
      }
      at = 0;
    }
    return order[at++];
  };
  FastestRepeat cells(pool.size());
  std::uint64_t timed_cells = 0;
  CpuRotation cpus;
  auto run_pass = [&](int k, bool record) {
    for (int c = 0; c < kCells; ++c) {
      const std::size_t cell = static_cast<std::size_t>(k * kCells + c);
      parsched::IntermediateSrpt alg;
      if (record) cpus.next();
      const double t0 = now_s();
      const auto rep = parsched::compare_to_opt(pool[cell], alg);
      const double dt = now_s() - t0;
      if (record) {
        cells.add(cell, dt * 1e3);
        ++timed_cells;
      }
      check_cell(ref, k, c, rep.alg_flow, rep.opt_lower, rep.opt_upper);
    }
  };

  run_pass(next_set(), false);  // warm-up

  if (!opt.trace) {
    // Set-up samples are spread over the run, between passes, so their
    // median does not rest on the host's state in one stretch of it.
    std::vector<double> setup;
    auto setup_sample = [&] {
      double fastest = 0.0;
      for (int k = 0; k < kSetupsPerSample; ++k) {
        pool.clear();  // freeing the previous pool is not set-up
        cpus.next();
        const double t0 = now_s();
        pool = generate_pool(s);
        const double dt = now_s() - t0;
        if (k == 0 || dt < fastest) fastest = dt;
      }
      setup.push_back(fastest);
    };
    const double t0 = now_s();
    for (;;) {
      const double elapsed = now_s() - t0;
      if (setup.size() < kSetupSamples &&
          elapsed >= opt.seconds * static_cast<double>(setup.size()) /
                         kSetupSamples) {
        setup_sample();
      } else if (elapsed >= opt.seconds) {
        break;
      }
      run_pass(next_set(), true);
    }
    r.attempted = timed_cells;  // each one checked against the reference
    r.note("cpus_rotated", std::to_string(cpus.cpus()));
    report_timed(r, sequential_rate(cells), cells.best().size(), cells, 0.9);
    r.metric("setup_s", median(setup), "s", setup.size());
    return 0;
  }

  // Traced run: a fixed section of whole passes, first as timed
  // compare_to_opt calls (the untraced baseline), then decomposed.
  declare_layer_metrics(r);
  std::vector<int> sets;
  for (int i = 0; i < s.traced_passes; ++i) sets.push_back(next_set());
  double t0 = now_s();
  for (int k : sets) run_pass(k, false);
  const double untraced_s = now_s() - t0;

  TracedGrid tg;
  tg.policy_allocate_s.assign(parsched::standard_policy_names().size(), 0.0);
  t0 = now_s();
  for (int k : sets) {
    for (int c = 0; c < kCells; ++c) tg.cell(ref, s, k, c);
  }
  const double traced_s = now_s() - t0;
  r.attempted = sets.size() * kCells;

  const double simcore_self = tg.sim_wall_s - tg.allocate_s - tg.obs.busy_s;
  r.metric("workload.generate_s", tg.generate_s, "s");
  r.metric("sched.allocate_s", tg.allocate_s, "s");
  r.metric("sched.allocate_calls", static_cast<double>(tg.allocate_calls),
           "count");
  const std::vector<std::string> names = parsched::standard_policy_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    r.metric("sched.allocate_s." + policy_key(names[i]),
             tg.policy_allocate_s[i], "s");
  }
  r.metric("sched_opt.lower_bound_s", tg.lower_bound_s, "s");
  r.metric("analysis.compare_to_opt_s", untraced_s, "s");
  r.metric("simcore.self_s", simcore_self, "s");
  report_engine_counts(r, tg.obs, tg.events, replay_rate_batch(tg.obs, 0.05));
  r.metric("trace.overhead_pct",
           100.0 * ((traced_s - tg.generate_s) / untraced_s - 1.0), "%");
  report_layers(r,
                {{"workload", tg.generate_s},
                 {"sched", tg.allocate_s},
                 {"sched_opt", tg.lower_bound_s},
                 {"simcore", simcore_self},
                 {"observer probe", tg.obs.busy_s}},
                traced_s);
  return 0;
}

}  // namespace perfbench
