// dense_isrpt / dense_equi — the n = 10^6 streaming step.
//
// 10^6 jobs released at t = 0 with E11's deterministic dense-alive sizes
// (alpha = 0.5, m = 16; sizes in [1, 2), so no share ever exceeds 1 and no
// rate needs pow()). The policy drives them through the streaming Engine
// (begin / admit / advance_to) and the run stops after a fixed number of
// decisions, the shape of E11's drive_dense_bounded. The instance does not
// depend on --seed: both workloads are deterministic, so seed-to-seed
// spread is machine noise only.
//
//   dense_isrpt: 16 jobs run and ~10^6 stay idle, so the ordering heaps
//                and the engine's idle advance path carry the step.
//   dense_equi:  every job runs at share m/n, so the rates pass and the
//                advance sweep take their full path over all n jobs.
//
// One repetition = a fresh Engine, admission of the instance, and one
// bounded drive whose decision count and fractional flow must equal the
// committed reference bit for bit. The step latency is the interval
// between successive allocate() entries, stamped by the forwarding
// wrapper, so timed runs attach no Observer. Every repetition makes the
// same decisions, and the timed figures use each step's fastest repeat
// (FastestRepeat, common.hpp), so drives are short and repetitions many;
// each repetition runs on the next CPU (CpuRotation). The instance is
// generated afresh only for the set-up samples (generate + admit), which
// are spread over the run; the other repetitions re-admit it.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "sched/registry.hpp"
#include "simcore/engine.hpp"

namespace perfbench {
namespace {

using parsched::Engine;
using parsched::Instance;
using parsched::Job;

constexpr int kMachines = 16;
/// setup_s is the median of this many generate + admit samples.
constexpr std::size_t kSetupSamples = 4;

struct Shape {
  std::size_t n;
  std::uint64_t target;  ///< decisions before the drive stops
  double t_start;        ///< first advance_to: just short of the first
                         ///< completion
  double dt;             ///< creep step across the completion front
};

// Decision budgets are sized so one drive takes ~1-2 s on a 2020s x86
// core (ISRPT ~110 decisions/s, EQUI ~28 decisions/s at n = 10^6): short
// enough for a run to repeat every step many times.
Shape shape(const std::string& policy, bool tiny) {
  const std::size_t n = tiny ? 10'000 : 1'000'000;
  if (policy == "isrpt") return {n, tiny ? 64u : 100u, 0.875, 1e-4};
  // EQUI: every job runs at rate m/n, so the first completion is at
  // t = n/m (size 1); successive completions are ~n/(m * 99991) apart.
  const double per_size_step =
      static_cast<double>(n) / (kMachines * 99991.0);
  return {n, tiny ? 64u : 50u, static_cast<double>(n) / kMachines - 1.0,
          0.5 * per_size_step};
}

/// The step-latency tail both dense workloads report: p90. ISRPT's drive
/// has 100 steps, so p90 is its highest percentile with ten steps beyond
/// it; EQUI (49 steps) reports the same percentile.
constexpr double kTailQuantile = 0.9;

constexpr std::uint64_t kWarmupDecisions = 20;

Instance dense_alive_instance(std::size_t n) {
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Job j;
    j.id = static_cast<parsched::JobId>(i);
    j.release = 0.0;
    j.size = 1.0 + static_cast<double>((i * 7919u) % 99991u) / 99991.0;
    j.curve = parsched::SpeedupCurve::power_law(0.5);
    jobs.push_back(j);
  }
  return Instance(kMachines, jobs);
}

struct Generated {
  Instance inst;
  double generate_s;
};

Generated generate(const Shape& s) {
  const double t0 = now_s();
  Instance inst = dense_alive_instance(s.n);
  return {std::move(inst), now_s() - t0};
}

struct Rep {
  double wall_s = 0.0;  ///< set-up + drive, without the engine teardown
  double generate_s = 0.0;
  double admit_s = 0.0;
  double drive_s = 0.0;
  double allocate_s = 0.0;
  std::uint64_t allocate_calls = 0;
  std::uint64_t decisions = 0;
  std::uint64_t events = 0;
  double fractional_flow = 0.0;
  double completed = 0.0;
};

/// Admission of `g`'s instance into a fresh Engine + one bounded drive.
/// `entries` receives the allocate() entry stamps; `traced` times
/// allocate() and attaches `obs`. The set-up figures count `g`'s
/// generation time.
Rep run_rep(const std::string& policy, const Shape& s, const Generated& g,
            bool traced, CountingObserver* obs,
            std::vector<double>* entries) {
  Rep rep;
  const double start = now_s();
  TimedScheduler sched(parsched::make_scheduler(policy), traced, entries);
  Engine eng(kMachines);
  if (obs != nullptr) eng.add_observer(obs);
  rep.generate_s = g.generate_s;
  {
    const double t0 = now_s();
    eng.begin(sched);
    for (const Job& j : g.inst.jobs()) eng.admit(j);
    rep.admit_s = now_s() - t0;
  }
  if (entries != nullptr) entries->reserve(entries->size() + s.target + 64);
  double t = s.t_start;
  const double t0 = now_s();
  eng.advance_to(t);
  while (eng.partial().decisions < s.target && !eng.drained()) {
    t += s.dt;
    eng.advance_to(t);
  }
  rep.drive_s = now_s() - t0;
  rep.wall_s = g.generate_s + (now_s() - start);
  rep.allocate_s = sched.busy_s();
  rep.allocate_calls = sched.calls();
  rep.decisions = eng.partial().decisions;
  rep.events = eng.partial().events;
  rep.fractional_flow = eng.partial().fractional_flow;
  rep.completed = static_cast<double>(eng.partial().records.size());
  return rep;
}

std::string ref_key(const std::string& policy, const Shape& s) {
  return policy + ".n" + std::to_string(s.n) + ".d" +
         std::to_string(s.target);
}

/// What the reference pins: the stop point's decision count, fractional
/// flow and completed-job count.
std::vector<double> outcome(const Rep& rep) {
  return {static_cast<double>(rep.decisions), rep.fractional_flow,
          rep.completed};
}

void check_rep(const Reference& ref, const std::string& policy,
               const Shape& s, const Rep& rep) {
  ref.expect(ref_key(policy, s), outcome(rep));
}

}  // namespace

int run_dense(const Options& opt, const std::string& policy, Report& r) {
  const Shape s = shape(policy, opt.tiny);
  if (opt.write_reference) {
    const Rep rep = run_rep(policy, s, generate(s), false, nullptr, nullptr);
    Reference ref;
    ref.set(ref_key(policy, s), outcome(rep));
    ref.save(opt.reference,
             "# dense reference: key decisions fractional_flow completed "
             "(hex floats), written by perfbench_driver --write-reference\n");
    return 0;
  }
  const Reference ref = Reference::load(opt.reference);

  // Warm-up: one set-up and a short drive fault in the engine's memory.
  Shape warm = s;
  warm.target = kWarmupDecisions;
  auto g = std::make_unique<Generated>(generate(s));
  (void)run_rep(policy, warm, *g, false, nullptr, nullptr);

  if (!opt.trace) {
    // A set-up sample generates the instance afresh; the samples are
    // spread over the run like the other workloads', and the repetitions
    // in between re-admit the last instance generated.
    std::vector<double> setup;
    FastestRepeat steps(s.target + 64);
    CpuRotation cpus;
    const double t0 = now_s();
    for (;;) {
      const double elapsed = now_s() - t0;
      const bool fresh =
          setup.size() < kSetupSamples &&
          elapsed >= opt.seconds * static_cast<double>(setup.size()) /
                         kSetupSamples;
      if (!fresh && elapsed >= opt.seconds) break;
      cpus.next();
      if (fresh) {
        g.reset();  // freeing the previous instance is not set-up
        g = std::make_unique<Generated>(generate(s));
      }
      std::vector<double> entries;
      const Rep rep = run_rep(policy, s, *g, false, nullptr, &entries);
      check_rep(ref, policy, s, rep);
      if (fresh) setup.push_back(rep.generate_s + rep.admit_s);
      r.attempted += rep.decisions;
      check(entries.size() <= s.target + 64,
            "dense: more allocate() calls than decisions budgeted");
      for (std::size_t i = 1; i < entries.size(); ++i) {
        steps.add(i - 1, (entries[i] - entries[i - 1]) * 1e3);
      }
    }
    r.note("cpus_rotated", std::to_string(cpus.cpus()));
    report_timed(r, sequential_rate(steps), steps.best().size(), steps,
                 kTailQuantile);
    r.metric("setup_s", median(setup), "s", setup.size());
    return 0;
  }

  declare_layer_metrics(r);
  g.reset();
  std::vector<double> entries;
  const Rep base = run_rep(policy, s, generate(s), false, nullptr, &entries);
  check_rep(ref, policy, s, base);
  CountingObserver obs;
  const Rep rep = run_rep(policy, s, generate(s), true, &obs, nullptr);
  check_rep(ref, policy, s, rep);
  r.attempted = rep.decisions;

  const double simcore_self = rep.drive_s - rep.allocate_s - obs.busy_s;
  r.metric("workload.generate_s", rep.generate_s, "s");
  r.metric("simcore.admit_s", rep.admit_s, "s");
  r.metric("sched.allocate_s", rep.allocate_s, "s");
  r.metric("sched.allocate_calls", static_cast<double>(rep.allocate_calls),
           "count");
  r.metric("sched.allocate_s." + policy_key(policy), rep.allocate_s, "s");
  r.metric("simcore.self_s", simcore_self, "s");
  report_engine_counts(r, obs, rep.events, replay_rate_batch(obs, 0.2));
  r.metric("trace.overhead_pct", 100.0 * (rep.drive_s / base.drive_s - 1.0),
           "%");
  report_layers(r,
                {{"workload", rep.generate_s},
                 {"simcore.admit", rep.admit_s},
                 {"sched", rep.allocate_s},
                 {"simcore", simcore_self},
                 {"observer probe", obs.busy_s}},
                rep.wall_s);
  return 0;
}

}  // namespace perfbench
