// exec/ — the ThreadPool and the SweepRunner determinism contract.
//
// The differential harness is the heart of this file: the same sweep is
// run serially (jobs=1, the exact legacy path) and sharded (jobs=8),
// and every artifact — the raw results, the CSV bytes, the BENCH json,
// the merged metrics — must be bit-for-bit identical. The seed
// derivation is pinned to hardcoded splitmix64 values so a silent
// reseeding change fails loudly rather than shifting every published
// number.
//
// The ThreadPool stress suite runs under the `thread` (TSan) CI leg:
// multiple producer threads, nested submission, every worker running at
// once, exception propagation, and concurrent shutdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>  // lint: thread-ok
#include <vector>

#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sched/intermediate_srpt.hpp"
#include "simcore/engine.hpp"
#include "util/table.hpp"
#include "workload/random.hpp"

namespace parsched {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ------------------------------------------------------- seed derivation

// Pinned splitmix64 values. task_seed(0, 0) is the canonical first
// output of splitmix64 from state 0 (0xe220a8397b1dcdaf), so the
// derivation is cross-checkable against the reference implementation.
TEST(TaskSeed, PinnedSplitmixValues) {
  EXPECT_EQ(exec::task_seed(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(exec::task_seed(0, 1), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(exec::task_seed(0, 2), 0x06c45d188009454fULL);
  EXPECT_EQ(exec::task_seed(1, 0), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(exec::task_seed(42, 7), 0xccf635ee9e9e2fa4ULL);
  EXPECT_EQ(exec::task_seed(0xdeadbeefULL, 100), 0x15cfac28b186dda7ULL);
}

TEST(TaskSeed, FirstThousandIndicesDistinct) {
  std::vector<std::uint64_t> seen;
  seen.reserve(1000);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.push_back(exec::task_seed(7, i));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "derived seeds collide within one sweep";
}

TEST(TaskSeed, BaseSeedChangesEveryTask) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_NE(exec::task_seed(1, i), exec::task_seed(2, i));
  }
}

// ------------------------------------------------------- jobs resolution

struct JobsEnvGuard {
  JobsEnvGuard() { unsetenv("PARSCHED_JOBS"); }
  ~JobsEnvGuard() { unsetenv("PARSCHED_JOBS"); }
};

TEST(ResolveJobs, ExplicitBeatsEnvBeatsHardware) {
  JobsEnvGuard guard;
  EXPECT_EQ(exec::env_jobs(), 0);
  EXPECT_EQ(exec::resolve_jobs(0), exec::ThreadPool::hardware_threads());

  setenv("PARSCHED_JOBS", "3", 1);
  EXPECT_EQ(exec::env_jobs(), 3);
  EXPECT_EQ(exec::resolve_jobs(0), 3);
  EXPECT_EQ(exec::resolve_jobs(5), 5) << "--jobs must beat PARSCHED_JOBS";
}

TEST(ResolveJobs, GarbageEnvFallsBack) {
  JobsEnvGuard guard;
  for (const char* bad : {"", "abc", "0", "-4", "3x", "99999"}) {
    setenv("PARSCHED_JOBS", bad, 1);
    EXPECT_EQ(exec::env_jobs(), 0) << "PARSCHED_JOBS=" << bad;
  }
}

// ------------------------------------------------- differential harness

struct SweepArtifacts {
  std::vector<double> flows;
  std::string csv;
  std::string json;
  double decisions = 0.0;
  double runs = 0.0;
};

// One fixed 16-task sweep: every task simulates Intermediate-SRPT on a
// random instance drawn from its derived seed, with a task-private
// metrics registry. Returns every artifact a bench would emit.
SweepArtifacts run_differential_sweep(int jobs, const std::string& tag) {
  obs::MetricsRegistry merged;
  exec::SweepRunner::Config rc;
  rc.jobs = jobs;
  rc.base_seed = 123;
  rc.merge_metrics = &merged;
  exec::SweepRunner runner(rc);

  const auto flows =
      runner.map<double>(16, [](const exec::TaskContext& ctx) {
        RandomWorkloadConfig cfg;
        cfg.machines = 4;
        cfg.jobs = 60;
        cfg.P = 32.0;
        cfg.load = 1.0;
        cfg.alpha_lo = cfg.alpha_hi = 0.5;
        cfg.seed = ctx.seed;
        const Instance inst = make_random_instance(cfg);
        IntermediateSrpt sched;
        EngineConfig ec;
        ec.metrics = ctx.metrics;
        return simulate(inst, sched, ec).total_flow;
      });

  Table t({"task", "total_flow"}, 6);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    t.add_row({static_cast<std::int64_t>(i), flows[i]});
  }
  const std::string csv_path =
      testing::TempDir() + "exec_sweep_" + tag + ".csv";
  t.write_csv(csv_path);

  obs::BenchReport report("exec_sweep");
  report.add_table("flows", t);
  report.set_metrics(merged.snapshot());

  SweepArtifacts out;
  out.flows = flows;
  out.csv = slurp(csv_path);
  out.json = report.to_json();
  const obs::MetricsSnapshot snap = merged.snapshot();
  if (const auto* d = snap.find("engine.decisions")) out.decisions = d->value;
  if (const auto* r = snap.find("engine.runs")) out.runs = r->value;
  return out;
}

// The contract itself: serial and 8-way-sharded sweeps of the same base
// seed produce bit-identical results, CSV bytes, report json, and
// merged engine counters.
TEST(SweepRunner, DifferentialSerialVsParallelByteIdentical) {
  const SweepArtifacts serial = run_differential_sweep(1, "j1");
  const SweepArtifacts parallel = run_differential_sweep(8, "j8");

  ASSERT_EQ(serial.flows.size(), parallel.flows.size());
  for (std::size_t i = 0; i < serial.flows.size(); ++i) {
    EXPECT_EQ(serial.flows[i], parallel.flows[i]) << "task " << i;
  }
  EXPECT_EQ(serial.csv, parallel.csv) << "CSV bytes diverged";
  EXPECT_EQ(serial.json, parallel.json) << "BENCH json diverged";
  EXPECT_EQ(serial.runs, 16.0);
  EXPECT_EQ(serial.decisions, parallel.decisions);
  EXPECT_GT(serial.decisions, 0.0);
}

// ------------------------------------------------- sweep: edge cases

TEST(SweepRunner, MapZeroTasksReturnsEmpty) {
  for (int jobs : {1, 4}) {
    exec::SweepRunner::Config rc;
    rc.jobs = jobs;
    exec::SweepRunner runner(rc);
    const auto out = runner.map<int>(
        0, [](const exec::TaskContext&) -> int {
          ADD_FAILURE() << "task body ran for an empty sweep";
          return 0;
        });
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(runner.last_stats().tasks, 0u);
  }
}

TEST(SweepRunner, MapOneTaskMatchesInlineSeed) {
  for (int jobs : {1, 4}) {
    exec::SweepRunner::Config rc;
    rc.jobs = jobs;
    rc.base_seed = 99;
    exec::SweepRunner runner(rc);
    const auto out = runner.map<std::uint64_t>(
        1, [](const exec::TaskContext& ctx) { return ctx.seed; });
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], exec::task_seed(99, 0));
  }
}

// Many more tasks than workers: every worker goes back to the queue
// many times, and the artifact bytes must still match the one-worker
// run exactly.
TEST(SweepRunner, TasksFarExceedingJobsStayByteIdentical) {
  auto run = [](int jobs) {
    obs::MetricsRegistry merged;
    exec::SweepRunner::Config rc;
    rc.jobs = jobs;
    rc.base_seed = 7;
    rc.merge_metrics = &merged;
    exec::SweepRunner runner(rc);
    const auto vals = runner.map<double>(
        257, [](const exec::TaskContext& ctx) {
          // Cheap but seed-dependent: a collision or reorder shifts it.
          return static_cast<double>(ctx.seed % 1000003) +
                 static_cast<double>(ctx.index) * 1e-3;
        });
    Table t({"task", "value"}, 6);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      t.add_row({static_cast<std::int64_t>(i), vals[i]});
    }
    std::ostringstream os;
    os << t;
    return os.str();
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(16));
}

// wait_idle() must return promptly once the last task finishes — a
// lost-wakeup regression turns this into a multi-second stall. Bound
// the wait loosely (CI machines are noisy) but well under a hang.
TEST(ThreadPool, WaitIdleReturnsPromptlyAfterLastTask) {
  exec::ThreadPool::Config cfg;
  cfg.threads = 4;
  exec::ThreadPool pool(cfg);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    (void)pool.submit(
        [&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  const double t0 = obs::monotonic_seconds();
  pool.wait_idle();
  const double waited = obs::monotonic_seconds() - t0;
  EXPECT_EQ(done.load(), 64);
  EXPECT_LT(waited, 5.0) << "wait_idle stalled after the pool drained";
}

TEST(SweepRunner, StatsDescribeTheRun) {
  exec::SweepRunner::Config rc;
  rc.jobs = 2;
  exec::SweepRunner runner(rc);
  const auto vals = runner.map<int>(
      8, [](const exec::TaskContext& ctx) { return static_cast<int>(ctx.index); });
  for (int i = 0; i < 8; ++i) EXPECT_EQ(vals[static_cast<std::size_t>(i)], i);

  const exec::SweepStats& st = runner.last_stats();
  EXPECT_EQ(st.jobs, 2);
  EXPECT_EQ(st.tasks, 8u);
  EXPECT_GE(st.wall_seconds, 0.0);
  EXPECT_GE(st.merge_seconds, 0.0);
  EXPECT_GE(st.idle_fraction(), 0.0);
}

TEST(SweepRunner, LowestIndexExceptionWins) {
  exec::SweepRunner::Config rc;
  rc.jobs = 4;
  exec::SweepRunner runner(rc);
  try {
    (void)runner.map<int>(12, [](const exec::TaskContext& ctx) {
      if (ctx.index == 3 || ctx.index == 7) {
        throw std::runtime_error("boom " + std::to_string(ctx.index));
      }
      return 0;
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

// One worker keeps the contract too: a throwing task does not stop the
// tasks after it, and the exception still reaches the caller.
TEST(SweepRunner, OneWorkerRunsEveryTaskPastAThrow) {
  exec::SweepRunner::Config rc;
  rc.jobs = 1;
  exec::SweepRunner runner(rc);
  std::atomic<int> ran{0};
  try {
    (void)runner.map<int>(2, [&ran](const exec::TaskContext& ctx) -> int {
      ran.fetch_add(1);
      if (ctx.index == 0) throw std::runtime_error("task 0");
      return 1;
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 0");
  }
  EXPECT_EQ(ran.load(), 2) << "task 1 must still run";
}

// ------------------------------------------------- thread pool: basics

exec::ThreadPool::Config pool_config(int threads,
                                     obs::MetricsRegistry* reg = nullptr) {
  exec::ThreadPool::Config cfg;
  cfg.threads = threads;
  cfg.metrics = reg;
  return cfg;
}

TEST(ThreadPool, SubmitReturnsValues) {
  exec::ThreadPool pool(pool_config(4));
  std::vector<std::future<int>> futs;
  futs.reserve(100);
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  exec::ThreadPool pool(pool_config(2));
  auto f = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  // Join before consuming: the worker's last release of the shared
  // state goes through refcount atomics inside the precompiled
  // libstdc++, which TSan cannot see; the join gives it a visible
  // happens-before edge. (SweepRunner orders the same way.)
  pool.shutdown();
  try {
    (void)f.get();
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  exec::ThreadPool pool(pool_config(2));
  pool.shutdown();
  EXPECT_THROW((void)pool.submit([] { return 1; }), std::runtime_error);
  pool.shutdown();  // idempotent
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  exec::ThreadPool pool(pool_config(2));
  pool.wait_idle();  // nothing submitted: must not block
  auto f = pool.submit([] { return 7; });
  pool.wait_idle();
  EXPECT_EQ(f.get(), 7);
}

// ------------------------------------------------- thread pool: stress

// N producer threads hammer the pool concurrently while every fourth
// task submits a nested child from inside the pool, so the queue is
// pushed from outside and inside at once; the per-producer batch sizes
// differ. Run under TSan in the `thread` CI leg.
TEST(ThreadPool, StressProducersNestingAndStealing) {
  obs::MetricsRegistry reg;
  exec::ThreadPool pool(pool_config(4, &reg));
  std::atomic<int> executed{0};

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;  // lint: thread-ok
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &executed, p] {
      for (int i = 0; i < kPerProducer + p * 37; ++i) {
        (void)pool.submit([&pool, &executed, i] {
          executed.fetch_add(1, std::memory_order_relaxed);
          if (i % 4 == 0) {
            (void)pool.submit([&executed] {
              executed.fetch_add(1, std::memory_order_relaxed);
            });
          }
        });
      }
    });
  }
  int expected = 0;
  for (int p = 0; p < kProducers; ++p) {
    const int outer = kPerProducer + p * 37;
    expected += outer + (outer + 3) / 4;  // outer + nested children
  }
  for (auto& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(executed.load(), expected);

  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto* tasks = snap.find("exec.pool.tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->value, static_cast<double>(expected));
}

TEST(ThreadPool, NestedSubmissionCompletesBeforeWaitIdleReturns) {
  exec::ThreadPool pool(pool_config(2));
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    (void)pool.submit([&pool, &done] {
      (void)pool.submit([&pool, &done] {
        (void)pool.submit(
            [&done] { done.fetch_add(1, std::memory_order_relaxed); });
        done.fetch_add(1, std::memory_order_relaxed);
      });
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 96);
}

// k workers, k tasks, and each task waits until all k have started: it
// passes only if one queue wakes every idle worker. The wait is bounded
// so a lost wakeup fails the test instead of hanging it.
TEST(ThreadPool, EveryWorkerRunsAtOnce) {
  constexpr int kWorkers = 4;
  std::atomic<int> started{0};
  // True once all k tasks have started; false after ~10 s without that.
  const auto all_started = [&started] {
    const double deadline = obs::monotonic_seconds() + 10.0;
    while (started.load(std::memory_order_acquire) < kWorkers) {
      if (obs::monotonic_seconds() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  exec::ThreadPool pool(pool_config(kWorkers));
  std::vector<std::future<bool>> futs;
  futs.reserve(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    futs.push_back(pool.submit([&started, &all_started] {
      started.fetch_add(1, std::memory_order_release);
      return all_started();
    }));
  }
  // Wait here too: shutdown() wakes every worker, which would hide a
  // lost wakeup if it came first.
  EXPECT_TRUE(all_started()) << "only " << started.load() << " of "
                             << kWorkers << " tasks started";
  pool.shutdown();
  for (auto& f : futs) {
    EXPECT_TRUE(f.get()) << "a task timed out waiting for its siblings";
  }
}

// Concurrent shutdown calls must serialize end-to-end: the loser may not
// return (letting the pool be destroyed) while the winner is still
// joining worker threads. TSan flags the use-after-free if this breaks.
TEST(ThreadPool, ConcurrentShutdownCallsAreSafe) {
  for (int round = 0; round < 8; ++round) {
    std::atomic<int> done{0};
    exec::ThreadPool pool(pool_config(4));
    for (int i = 0; i < 32; ++i) {
      (void)pool.submit(
          [&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    std::thread racer([&pool] { pool.shutdown(); });  // lint: thread-ok
    pool.shutdown();
    racer.join();
    EXPECT_EQ(done.load(), 32);
  }
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> done{0};
  {
    exec::ThreadPool pool(pool_config(2));
    for (int i = 0; i < 64; ++i) {
      (void)pool.submit(
          [&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool == shutdown(): everything must have run
  EXPECT_EQ(done.load(), 64);
}

}  // namespace
}  // namespace parsched
