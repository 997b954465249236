#include "exec/thread_pool.hpp"

#include <stdexcept>
#include <utility>

namespace parsched::exec {

int ThreadPool::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(Config cfg) {
  const int n = cfg.threads > 0 ? cfg.threads : hardware_threads();
  if (cfg.metrics != nullptr) {
    tasks_counter_ = &cfg.metrics->counter("exec.pool.tasks");
    idle_timer_ = &cfg.metrics->timer("exec.pool.idle");
    cfg.metrics->gauge("exec.pool.threads").set(static_cast<double>(n));
  }
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!accepting_) {
      throw std::runtime_error("ThreadPool::submit after shutdown");
    }
    queue_.push_back(std::move(task));
    ++outstanding_;
  }
  if (tasks_counter_ != nullptr) tasks_counter_->inc();
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  const auto ready = [this] { return !queue_.empty() || !accepting_; };
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (queue_.empty()) {
      // Once the pool stops accepting, an empty queue stays empty: a
      // task still running elsewhere cannot submit more.
      if (!accepting_) return;
      if (idle_timer_ != nullptr) {
        const double t0 = obs::monotonic_seconds();
        work_cv_.wait(lk, ready);
        idle_timer_->add(obs::monotonic_seconds() - t0);
      } else {
        work_cv_.wait(lk, ready);
      }
      continue;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lk.unlock();
    task();  // packaged_task: exceptions are captured into the future
    task = nullptr;  // release the captures before reporting completion
    lk.lock();
    if (--outstanding_ == 0) idle_cv_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return outstanding_ == 0; });
}

void ThreadPool::shutdown() {
  // Serialize concurrent shutdowns end-to-end: a second caller (e.g. the
  // destructor racing an explicit shutdown from another thread) must not
  // return until the first has finished joining, or it could destroy
  // workers_ while the first caller's join is still touching them.
  std::lock_guard<std::mutex> serial(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    accepting_ = false;
  }
  // Workers run the queue dry, then return.
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

}  // namespace parsched::exec
