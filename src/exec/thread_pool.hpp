// parsched — the thread pool.
//
// Execution substrate for parallel parameter sweeps (exec/sweep.hpp),
// loadgen's client workers and the serving plane's shards. One pool owns
// N worker threads and one FIFO task queue; an idle worker takes the
// oldest task. Every caller submits independent tasks, so nothing is
// gained from per-worker queues: one mutex guards the queue, the
// outstanding-task count and the accepting flag, and two condition
// variables go with it (workers sleep on one, wait_idle() on the other).
//
// The pool is TSan-clean by construction (the `thread` leg of CI runs
// the stress suite against it). Like obs/metrics.hpp, this header is the
// project's only sanctioned home for raw threads: parsched_lint's
// `raw-thread` rule bans `std::thread` / `std::async` in src/ outside
// these two files so no subsystem can spin up unaccounted concurrency.
//
// Tasks are arbitrary callables; submit() returns a std::future that
// carries the task's result or its exception to the caller. Shutdown is
// explicit or via the destructor, and always runs the queued tasks first:
//
//   ThreadPool pool({.threads = 8, .metrics = &registry});
//   auto f = pool.submit([] { return heavy_work(); });
//   f.get();                  // value or rethrown exception
//   pool.shutdown();          // drain pending work, then join
//
// With a MetricsRegistry attached the pool maintains an exec.pool.tasks
// counter, an exec.pool.idle timer (summed worker wait time — the
// numerator of the idle fraction reported by E11's parallel-speedup
// table) and an exec.pool.threads gauge.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"

namespace parsched::exec {

class ThreadPool {
 public:
  struct Config {
    /// Worker count; <= 0 means hardware_threads().
    int threads = 0;
    /// Optional registry for pool instrumentation (borrowed; must outlive
    /// the pool). Null disables all clock reads on the worker path.
    obs::MetricsRegistry* metrics = nullptr;
  };

  ThreadPool() : ThreadPool(Config()) {}
  explicit ThreadPool(Config cfg);
  ~ThreadPool();  // shutdown()

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run `fn` on some worker; the future carries the result or the
  /// task's exception. Safe to call from inside a task (nested
  /// submission). Throws std::runtime_error after shutdown began.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Block until every submitted task (including nested ones) finished.
  void wait_idle();

  /// Stop accepting tasks, run every queued one, then join the workers.
  /// Idempotent, and safe to call from several threads at once.
  void shutdown();

  /// max(1, std::thread::hardware_concurrency()).
  [[nodiscard]] static int hardware_threads();

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  obs::Counter* tasks_counter_ = nullptr;
  obs::TimerStat* idle_timer_ = nullptr;

  // Held for the whole of shutdown(): concurrent shutdown callers (the
  // destructor racing an explicit call) serialize here, so the second
  // caller cannot return — and the destructor cannot free workers_ —
  // until the first has finished joining.
  std::mutex shutdown_mu_;

  // mu_ guards everything below. Lock order: shutdown_mu_ → mu_.
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers sleep here
  std::condition_variable idle_cv_;  // wait_idle sleeps here
  std::deque<std::function<void()>> queue_;
  std::uint64_t outstanding_ = 0;  // queued + running tasks
  bool accepting_ = true;
};

}  // namespace parsched::exec
