// parsched — sharded parameter sweeps with a determinism contract.
//
// A sweep is N independent simulation tasks indexed 0..N-1. SweepRunner
// runs them on a ThreadPool (exec/thread_pool.hpp) and merges the
// results back **in task-index order**, so every table row, CSV byte,
// and BENCH_*.json report an experiment emits is identical at any job
// count. The contract, relied on by tests/test_exec.cpp and the
// CI artifact-diff step:
//
//   same base seed  =>  same artifact bytes, for any --jobs value.
//
// Three mechanisms enforce it:
//
//  * per-task seeds are derived, not shared: task_seed(base, index) is a
//    splitmix64 finalizer over the base seed advanced index+1 golden-gamma
//    steps — no task ever observes another task's RNG stream;
//  * per-task state is private: each task gets its own MetricsRegistry
//    (TaskContext::metrics) to hand to EngineConfig::metrics, folded into
//    the runner's merge registry in index order after the last task;
//  * results land in preallocated slots and are concatenated by index,
//    never by completion order.
//
// Job-count resolution (resolve_jobs): an explicit --jobs beats the
// PARSCHED_JOBS environment variable beats hardware_concurrency. Every
// job count runs the tasks on a pool of that many workers; jobs == 1 is
// one worker taking them in index order.
//
//   exec::SweepRunner runner({.jobs = exec::resolve_jobs(0)});
//   auto rows = runner.map<Row>(points.size(), [&](const auto& ctx) {
//     return measure(points[ctx.index], ctx.seed);
//   });
//   for (auto& r : rows) table.add_row(r);   // index order, stable bytes
//
// last_stats() reports wall/merge/task seconds and pool idle time — the
// numbers behind E11's parallel-speedup table.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "check/contract.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace parsched::exec {

/// Deterministic per-task seed: splitmix64 finalizer of `base_seed`
/// advanced (task_index + 1) golden-gamma steps. Pinned by
/// tests/test_exec.cpp so a reseeding bug fails loudly.
[[nodiscard]] std::uint64_t task_seed(std::uint64_t base_seed,
                                      std::uint64_t task_index);

/// PARSCHED_JOBS as an int, or 0 when unset/empty/non-positive/garbage.
[[nodiscard]] int env_jobs();

/// Job-count resolution: `requested` > 0 wins, else PARSCHED_JOBS,
/// else ThreadPool::hardware_threads().
[[nodiscard]] int resolve_jobs(int requested = 0);

/// What a sweep task sees: its index, its derived seed, and a private
/// registry (never shared with another task) for engine instrumentation.
struct TaskContext {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Instrumentation from the last map() call.
struct SweepStats {
  int jobs = 0;
  std::size_t tasks = 0;
  double wall_seconds = 0.0;       ///< end-to-end map() wall time
  double task_seconds = 0.0;       ///< summed per-task wall time
  double merge_seconds = 0.0;      ///< registry merge + result assembly
  double pool_idle_seconds = 0.0;  ///< summed worker wait time

  /// Fraction of worker capacity spent idle: idle / (jobs * wall).
  [[nodiscard]] double idle_fraction() const {
    const double capacity = static_cast<double>(jobs) * wall_seconds;
    return capacity <= 0.0 ? 0.0 : pool_idle_seconds / capacity;
  }
};

class SweepRunner {
 public:
  struct Config {
    /// Pool workers; <= 0 resolves via resolve_jobs(0).
    int jobs = 0;
    /// Base seed for task_seed derivation.
    std::uint64_t base_seed = 0;
    /// Optional registry the per-task registries are merged into (index
    /// order). Borrowed; null discards the per-task instrumentation.
    obs::MetricsRegistry* merge_metrics = nullptr;
  };

  SweepRunner() : SweepRunner(Config()) {}
  explicit SweepRunner(Config cfg);

  [[nodiscard]] int jobs() const { return jobs_; }
  [[nodiscard]] const SweepStats& last_stats() const { return stats_; }

  /// Run `fn` for indices 0..tasks-1 and return the results in index
  /// order. A task's exception propagates to the caller (the lowest
  /// throwing index wins; remaining tasks still run to completion).
  template <typename R>
  std::vector<R> map(std::size_t tasks,
                     const std::function<R(const TaskContext&)>& fn) {
    std::vector<std::optional<R>> slots(tasks);
    run_tasks(tasks, [&](const TaskContext& ctx) {
      slots[ctx.index].emplace(fn(ctx));
    });
    const double t0 = obs::monotonic_seconds();
    std::vector<R> out;
    out.reserve(tasks);
    for (std::size_t i = 0; i < tasks; ++i) {
      PARSCHED_CHECK(slots[i].has_value(), "sweep task produced no result");
      out.push_back(std::move(*slots[i]));
    }
    stats_.merge_seconds += obs::monotonic_seconds() - t0;
    return out;
  }

 private:
  /// Runs every task: seeds, per-task registries, pool execution,
  /// index-order registry merge, stats.
  void run_tasks(std::size_t tasks,
                 const std::function<void(const TaskContext&)>& body);

  int jobs_;
  std::uint64_t base_seed_;
  obs::MetricsRegistry* merge_metrics_;
  SweepStats stats_;
};

}  // namespace parsched::exec
