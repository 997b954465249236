// parsched — shared plumbing for the experiment binaries (E1..E10).
// The adversary-measurement methodology lives in the library (tested):
// analysis/adversary_eval.hpp. This header keeps the benches' historical
// `bench::` spelling.
//
// Setting PARSCHED_AUDIT=1 in the environment attaches an
// InvariantAuditor to every ALG run and aborts the bench (via
// AuditFailure) on the first violated simulation invariant. CI smoke
// runs set it; leave it unset for timed measurements — the auditor adds
// per-decision bookkeeping that would pollute perf numbers.
// Setting PARSCHED_REPORT=1 makes every experiment additionally emit a
// machine-readable BENCH_<slug>.json (obs/report.hpp schema) next to its
// CSV: emit_experiment() mirrors tables automatically, and benches that
// want per-run wall time + profiling buckets use timed_run() /
// write_bench_report() below. PARSCHED_REPORT_DIR redirects the output
// (the directory is created on first use if missing).
//
// Sweep-ported benches (E1, E2, E5, E11) run their parameter grids
// through sweep_runner() — an exec::SweepRunner honoring PARSCHED_JOBS
// (default: all hardware threads; 1 = one worker, tasks in index order).
// Results merge in task-index order, so the emitted CSV/JSON bytes are
// identical at any job count.
#pragma once

#include <string>
#include <vector>

#include "analysis/adversary_eval.hpp"
#include "check/invariant_auditor.hpp"
#include "exec/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sched/opt/relaxations.hpp"
#include "sched/registry.hpp"
#include "simcore/engine.hpp"
#include "util/env.hpp"

namespace parsched::bench {

using parsched::AdversaryPoint;
using parsched::P_for_phases;

inline bool audit_enabled() { return env::get_flag("PARSCHED_AUDIT"); }

/// Drop-in for parsched::run_adversary_point that honors PARSCHED_AUDIT:
/// when enabled, the ALG run is audited and any invariant violation
/// raises AuditFailure with the full report.
inline AdversaryPoint run_adversary_point(const std::string& policy,
                                          const AdversaryConfig& cfg,
                                          double stream_cap = 4096.0) {
  if (!audit_enabled()) {
    return parsched::run_adversary_point(policy, cfg, stream_cap);
  }
  AuditConfig audit;
  audit.policy_name = make_scheduler(policy)->name();
  audit.policy = policy_lint_for(audit.policy_name);
  InvariantAuditor auditor(cfg.machines, audit);
  const AdversaryPoint pt =
      parsched::run_adversary_point(policy, cfg, stream_cap, {&auditor});
  auditor.require_clean();
  return pt;
}

inline std::vector<std::string> fast_portfolio() {
  return adversary_portfolio();
}

/// The sweep runner every ported bench shares: parallelism from
/// PARSCHED_JOBS (or all hardware threads), per-task engine metrics
/// merged into the global registry in task-index order. Pass jobs > 0
/// to pin the parallelism explicitly (E11's speedup measurement).
inline exec::SweepRunner sweep_runner(std::uint64_t base_seed = 0,
                                      int jobs = 0) {
  exec::SweepRunner::Config cfg;
  cfg.jobs = exec::resolve_jobs(jobs);
  cfg.base_seed = base_seed;
  cfg.merge_metrics = &obs::MetricsRegistry::global();
  return exec::SweepRunner(cfg);
}

/// Simulate `policy` on `inst` with wall-time measurement and (when
/// reporting is enabled) per-phase engine profiling, returning the
/// RunReport for a BenchReport. The SimResult is discarded; timed runs
/// exist for the report.
inline obs::RunReport timed_run(const std::string& policy,
                                const Instance& inst,
                                EngineConfig config = {}) {
  auto sched = make_scheduler(policy);
  if (obs::report_enabled()) config.collect_stats = true;
  const double t0 = obs::monotonic_seconds();
  const SimResult r = simulate(inst, *sched, config);
  const double wall = obs::monotonic_seconds() - t0;
  return obs::RunReport::from_result(sched->name(), inst.machines(), r,
                                     wall);
}

/// Write `runs` as BENCH_<slug>.json when PARSCHED_REPORT=1 (no-op
/// otherwise); attaches the global metrics registry snapshot.
inline void write_bench_report(const std::string& slug,
                               std::vector<obs::RunReport> runs) {
  if (!obs::report_enabled()) return;
  obs::BenchReport report(slug);
  for (obs::RunReport& r : runs) report.add_run(std::move(r));
  report.set_metrics(obs::MetricsRegistry::global().snapshot());
  report.write(obs::report_path(slug));
}

}  // namespace parsched::bench
