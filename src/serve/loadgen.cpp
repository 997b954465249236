#include "serve/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <future>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "serve/binproto.hpp"
#include "serve/cluster.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"
#include "speedup/curve.hpp"

namespace parsched::serve {

namespace {

constexpr int kMaxRetries = 64;

void backoff_sleep(int attempt) {
  timespec ts{};
  // 1ms, doubling, capped at 50ms — enough for a strand to drain a few
  // ops without turning the soak into a sleep benchmark.
  long ns = 1'000'000L << (attempt < 6 ? attempt : 6);
  if (ns > 50'000'000L) ns = 50'000'000L;
  ts.tv_nsec = ns;
  nanosleep(&ts, nullptr);
}

/// splitmix64 step — the same generator family exec::task_seed uses, so
/// streams stay decorrelated across sessions.
std::uint64_t next_u64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double next_unit(std::uint64_t& state) {
  return static_cast<double>(next_u64(state) >> 11) * 0x1.0p-53;
}

struct Shared {
  std::mutex mu;
  LoadgenResult result;
  obs::Counter* requests = nullptr;
  obs::Counter* rejects = nullptr;
  obs::Counter* errors = nullptr;
  obs::Histogram* latency_ms = nullptr;
};

/// A client of the wire the run drives.
Client open_client(const LoadgenConfig& cfg) {
  return Client(cfg.socket_path, cfg.connect_timeout,
                cfg.binary ? Wire::kFrame : Wire::kLine);
}

// ---- the deterministic workload -------------------------------------------

/// Everything a session will send, decided up front from (cfg, index) —
/// never from the worker that happens to drive it.
struct SessionPlan {
  int index = 0;
  int admissions = 0;
  std::uint64_t key = 0;  ///< consistent-hash routing key (0 = default)
};

double release_time(const LoadgenConfig& cfg, const SessionPlan& plan,
                    int i) {
  const double rate = cfg.rate > 0.0 ? cfg.rate : 1.0;
  switch (cfg.shape) {
    case LoadShape::kUniform:
    case LoadShape::kZipf:
      // zipf skews *how many* jobs a session gets, not their spacing.
      return static_cast<double>(i) / rate;
    case LoadShape::kBurst:
      return burst_release(i, cfg.burst_per,
                           static_cast<double>(cfg.burst_per) / rate);
    case LoadShape::kDiurnal:
      return diurnal_release(i, plan.admissions,
                             static_cast<double>(plan.admissions) / rate,
                             cfg.diurnal_peak);
  }
  return 0.0;
}

std::vector<SessionPlan> plan_fleet(const LoadgenConfig& cfg, int shards) {
  const auto n = static_cast<std::size_t>(cfg.sessions);
  std::vector<SessionPlan> plans(n);
  for (std::size_t i = 0; i < n; ++i) {
    plans[i].index = static_cast<int>(i);
    plans[i].admissions = cfg.admissions;
  }
  if (cfg.shape == LoadShape::kZipf) {
    const std::vector<int> counts = zipf_admission_counts(
        n, cfg.sessions * cfg.admissions, cfg.zipf_theta);
    for (std::size_t i = 0; i < n; ++i) plans[i].admissions = counts[i];
  }
  if (cfg.shape == LoadShape::kBurst) {
    // Adversarial routing: every session keys itself onto the shard
    // that owns key 1 — the ring's worst case, N-1 shards idle.
    const int target = consistent_shard(1, shards);
    std::uint64_t k = 1;
    for (std::size_t i = 0; i < n; ++i) {
      k = key_for_shard(target, shards, k);
      plans[i].key = k++;
    }
  }
  return plans;
}

// ---- the driver -----------------------------------------------------------

/// One timed request with reject-retry. Latencies go to the local batch
/// (merged once per worker); throws on errors or exhausted retries.
BinResponse timed(Client& wire, const Request& req, Shared& shared,
                  std::vector<double>& local_lat) {
  for (int attempt = 0;; ++attempt) {
    const double t0 = obs::monotonic_seconds();
    BinResponse reply = wire.call(req);
    const double ms = (obs::monotonic_seconds() - t0) * 1e3;
    if (shared.requests != nullptr) shared.requests->inc();
    if (shared.latency_ms != nullptr) shared.latency_ms->observe(ms);
    local_lat.push_back(ms);
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      ++shared.result.requests;
    }
    if (reply.status == BinStatus::kOk) return reply;
    if (reply.status == BinStatus::kError) {
      throw std::runtime_error("server error: " + reply.error);
    }
    // Backpressure (includes a migration's draining window): count,
    // back off, retry the same request.
    if (shared.rejects != nullptr) shared.rejects->inc();
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      ++shared.result.rejects;
    }
    if (attempt >= kMaxRetries) {
      throw std::runtime_error(
          "request rejected " + std::to_string(kMaxRetries) + " times (" +
          to_string(static_cast<Submit>(reply.verdict)) + ")");
    }
    backoff_sleep(attempt);
  }
}

/// Drive one worker's block of sessions over a single connection. All
/// sessions open first (the whole fleet is concurrently live), then
/// admissions proceed round-robin across the block, then each session
/// is queried, finished and closed.
void drive_block(const LoadgenConfig& cfg,
                 const std::vector<SessionPlan>& plans, std::size_t first,
                 std::size_t count, Shared& shared) {
  std::vector<double> local_lat;
  Client wire = open_client(cfg);

  struct Live {
    const SessionPlan* plan = nullptr;
    std::uint64_t rng = 0;
    std::uint64_t session = 0;
    double t0 = 0.0;
  };
  std::vector<Live> live(count);
  int max_admissions = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const SessionPlan& plan = plans[first + k];
    live[k].plan = &plan;
    live[k].rng = exec::task_seed(cfg.seed,
                                  static_cast<std::uint64_t>(plan.index));
    live[k].t0 = obs::monotonic_seconds();
    const BinResponse opened = timed(wire,
                                     {.op = BinOp::kOpen,
                                      .policy = cfg.policy,
                                      .machines = cfg.machines,
                                      .speed = 1.0,
                                      .key = plan.key},
                                     shared, local_lat);
    if (opened.session == 0) {
      throw std::runtime_error("open returned no session");
    }
    live[k].session = opened.session;
    max_admissions = std::max(max_admissions, plan.admissions);
  }

  for (int i = 0; i < max_admissions; ++i) {
    for (Live& s : live) {
      if (i >= s.plan->admissions) continue;
      Request admit{.op = BinOp::kAdmit, .session = s.session};
      admit.job.id = static_cast<JobId>(i);
      admit.job.release = release_time(cfg, *s.plan, i);
      admit.job.size = 0.5 + 1.5 * next_unit(s.rng);
      admit.job.curve =
          SpeedupCurve::power_law(0.25 + 0.5 * next_unit(s.rng));
      timed(wire, admit, shared, local_lat);
      if (cfg.advance_every > 0 && (i + 1) % cfg.advance_every == 0) {
        timed(wire,
              {.op = BinOp::kAdvance,
               .session = s.session,
               .to = admit.job.release},
              shared, local_lat);
      }
      if (cfg.stats_every > 0 && (i + 1) % cfg.stats_every == 0) {
        // Live-telemetry probe riding inside the load: the exposition
        // writer races every hot strand of the server while we scrape.
        if (timed(wire, {.op = BinOp::kStats}, shared, local_lat)
                .text.empty()) {
          throw std::runtime_error("stats returned an empty exposition");
        }
        std::lock_guard<std::mutex> lock(shared.mu);
        ++shared.result.stats_scrapes;
      }
    }
  }

  for (Live& s : live) {
    timed(wire, {.op = BinOp::kQuery, .session = s.session}, shared,
          local_lat);
    const BinResponse fin = timed(
        wire, {.op = BinOp::kFinish, .session = s.session}, shared, local_lat);
    timed(wire, {.op = BinOp::kClose, .session = s.session}, shared,
          local_lat);
    const SessionOutcome out{s.plan->index,       fin.jobs,
                             fin.total_flow,      fin.weighted_flow,
                             fin.fractional_flow, fin.makespan,
                             fin.decisions,       fin.events,
                             obs::monotonic_seconds() - s.t0};
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.result.sessions[static_cast<std::size_t>(s.plan->index)] = out;
  }

  std::lock_guard<std::mutex> lock(shared.mu);
  shared.result.latencies_ms.insert(shared.result.latencies_ms.end(),
                                    local_lat.begin(), local_lat.end());
}

/// Ask the server how many shards it runs (the "cluster" verb).
int probe_shards(const LoadgenConfig& cfg) {
  const BinResponse resp = open_client(cfg).call({.op = BinOp::kCluster});
  if (resp.status != BinStatus::kOk) {
    throw std::runtime_error("cluster probe failed: " + resp.error);
  }
  return resp.shards > 0 ? resp.shards : 1;
}

}  // namespace

std::uint64_t LoadgenResult::jobs_completed() const {
  std::uint64_t n = 0;
  for (const SessionOutcome& s : sessions) n += s.jobs;
  return n;
}

double LoadgenResult::total_flow() const {
  double f = 0.0;
  for (const SessionOutcome& s : sessions) f += s.total_flow;
  return f;
}

double LoadgenResult::latency_quantile_ms(double q) const {
  if (latencies_ms.empty()) return 0.0;
  std::vector<double> sorted = latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

LoadgenResult run_loadgen(const LoadgenConfig& cfg) {
  if (cfg.socket_path.empty()) {
    throw std::runtime_error("loadgen requires a socket path");
  }
  if (cfg.sessions < 1 || cfg.admissions < 1) {
    throw std::runtime_error("loadgen needs sessions >= 1, admissions >= 1");
  }
  if (cfg.burst_per < 1 || !(cfg.diurnal_peak >= 1.0)) {
    throw std::runtime_error(
        "loadgen needs burst_per >= 1, diurnal_peak >= 1");
  }

  Shared shared;
  if (cfg.metrics != nullptr) {
    shared.requests = &cfg.metrics->counter("serve.client.requests");
    shared.rejects = &cfg.metrics->counter("serve.client.rejects");
    shared.errors = &cfg.metrics->counter("serve.client.errors");
    shared.latency_ms = &cfg.metrics->histogram("serve.client.latency_ms",
                                                latency_bounds_ms());
  }
  shared.result.sessions.resize(static_cast<std::size_t>(cfg.sessions));

  const double t0 = obs::monotonic_seconds();
  const int shards = probe_shards(cfg);
  shared.result.shards = shards;
  const std::vector<SessionPlan> plans = plan_fleet(cfg, shards);

  int workers = cfg.workers;
  if (workers <= 0) workers = std::min(cfg.sessions, 8);
  workers = std::min(workers, cfg.sessions);

  exec::ThreadPool pool(exec::ThreadPool::Config{workers, cfg.metrics});
  std::vector<std::future<void>> tasks;
  tasks.reserve(static_cast<std::size_t>(workers));
  const auto n = static_cast<std::size_t>(cfg.sessions);
  const std::size_t per = n / static_cast<std::size_t>(workers);
  const std::size_t extra = n % static_cast<std::size_t>(workers);
  std::size_t first = 0;
  for (int w = 0; w < workers; ++w) {
    const std::size_t count =
        per + (static_cast<std::size_t>(w) < extra ? 1 : 0);
    tasks.push_back(pool.submit([&cfg, &plans, &shared, first, count] {
      try {
        drive_block(cfg, plans, first, count, shared);
      } catch (const std::exception&) {
        if (shared.errors != nullptr) shared.errors->inc();
        {
          std::lock_guard<std::mutex> lock(shared.mu);
          ++shared.result.errors;
        }
        throw;
      }
    }));
    first += count;
  }
  std::string first_error;
  for (auto& t : tasks) {
    try {
      t.get();
    } catch (const std::exception& e) {
      if (first_error.empty()) first_error = e.what();
    }
  }
  pool.shutdown();

  if (cfg.shutdown_after) {
    (void)open_client(cfg).call({.op = BinOp::kShutdown});
  }

  shared.result.wall_seconds = obs::monotonic_seconds() - t0;
  if (!first_error.empty() && shared.result.errors == 0) {
    // A connect failure throws before any request is counted.
    shared.result.errors = 1;
  }
  LoadgenResult out = std::move(shared.result);
  if (!first_error.empty()) {
    // Sessions that failed leave zeroed outcomes; callers treat
    // errors > 0 as a failed soak. Surface the first cause.
    out.sessions.erase(
        std::remove_if(out.sessions.begin(), out.sessions.end(),
                       [](const SessionOutcome& s) { return s.jobs == 0; }),
        out.sessions.end());
  }
  return out;
}

}  // namespace parsched::serve
