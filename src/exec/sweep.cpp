#include "exec/sweep.hpp"

#include <deque>
#include <exception>
#include <string>

#include "util/env.hpp"

namespace parsched::exec {

std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // Advance the splitmix64 state (task_index + 1) golden-gamma steps from
  // the base seed, then apply the finalizer once. Equivalent streams for
  // distinct indices are decorrelated by the finalizer's avalanche; the
  // +1 keeps task 0 from reusing the base seed verbatim.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int env_jobs() {
  // Malformed values (PARSCHED_JOBS=abc, 0, -3, 1e9) warn on stderr via
  // env::get_int and fall back to 0 (= "unset": all hardware threads).
  return static_cast<int>(env::get_int("PARSCHED_JOBS", 0, 1, 4096));
}

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (const int env = env_jobs(); env > 0) return env;
  return ThreadPool::hardware_threads();
}

SweepRunner::SweepRunner(Config cfg)
    : jobs_(cfg.jobs > 0 ? cfg.jobs : resolve_jobs(0)),
      base_seed_(cfg.base_seed),
      merge_metrics_(cfg.merge_metrics) {}

void SweepRunner::run_tasks(
    std::size_t tasks, const std::function<void(const TaskContext&)>& body) {
  stats_ = {};
  stats_.jobs = jobs_;
  stats_.tasks = tasks;
  const double t0 = obs::monotonic_seconds();

  // One private registry per task; deque for reference stability
  // (MetricsRegistry is non-movable).
  std::deque<obs::MetricsRegistry> task_registries(tasks);
  // Written only by the task owning the index — disjoint, race-free.
  std::vector<double> task_walls(tasks, 0.0);

  const auto run_one = [&](std::size_t i) {
    TaskContext ctx;
    ctx.index = i;
    ctx.seed = task_seed(base_seed_, i);
    ctx.metrics = &task_registries[i];
    const double start = obs::monotonic_seconds();
    body(ctx);
    task_walls[i] = obs::monotonic_seconds() - start;
  };

  obs::MetricsRegistry pool_metrics;
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  {
    ThreadPool pool({jobs_, &pool_metrics});
    for (std::size_t i = 0; i < tasks; ++i) {
      futures.push_back(pool.submit([&run_one, i] { run_one(i); }));
    }
    // Collect in index order so the *lowest* failing task's exception
    // is the one rethrown, independent of completion order. get() on
    // the rest still happens below — wait for everything first so a
    // throw cannot leave tasks running against dead stack frames.
    pool.wait_idle();
  }  // pool joined here
  const obs::MetricsSnapshot pool_snap = pool_metrics.snapshot();
  if (const auto* idle = pool_snap.find("exec.pool.idle")) {
    stats_.pool_idle_seconds = idle->value;
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  const double merge_start = obs::monotonic_seconds();
  if (merge_metrics_ != nullptr) {
    for (std::size_t i = 0; i < tasks; ++i) {
      merge_metrics_->merge(task_registries[i].snapshot());
    }
  }
  for (const double w : task_walls) stats_.task_seconds += w;
  const double end = obs::monotonic_seconds();
  stats_.merge_seconds = end - merge_start;
  stats_.wall_seconds = end - t0;
}

}  // namespace parsched::exec
