#include "serve/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "obs/json.hpp"
#include "serve/binproto.hpp"
#include "serve/cluster.hpp"
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

/// One protocol reply, normalized across NDJSON and PBIN. A non-empty
/// `reject` is retryable backpressure; a non-empty `error` is a caller
/// bug or server failure.
struct WireReply {
  bool ok = false;
  std::string reject;
  std::string error;
  std::uint64_t session = 0;   // open
  SessionOutcome result;       // finish (jobs/flows/decisions/events)
  std::string exposition;      // stats
};

/// One worker connection: the protocol verbs the generator issues,
/// abstracted over the wire format so the driver is written once.
class WireClient {
 public:
  virtual ~WireClient() = default;
  virtual WireReply open(const std::string& policy, int machines,
                         std::uint64_t key) = 0;
  virtual WireReply admit(std::uint64_t session, std::uint32_t job,
                          double release, double size, double alpha) = 0;
  virtual WireReply advance(std::uint64_t session, double to) = 0;
  virtual WireReply query(std::uint64_t session) = 0;
  virtual WireReply finish(std::uint64_t session) = 0;
  virtual WireReply close(std::uint64_t session) = 0;
  virtual WireReply stats() = 0;
};

// ---- NDJSON wire ----------------------------------------------------------

class JsonWire final : public WireClient {
 public:
  JsonWire(const std::string& path, double timeout)
      : client_(path, timeout) {}

  WireReply open(const std::string& policy, int machines,
                 std::uint64_t key) override {
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("op", "open");
    w.kv("id", rid_++);
    w.kv("policy", policy);
    w.kv("machines", machines);
    if (key != 0) w.kv("key", key);
    w.end_object();
    return call(os.str());
  }

  WireReply admit(std::uint64_t session, std::uint32_t job, double release,
                  double size, double alpha) override {
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("op", "admit");
    w.kv("id", rid_++);
    w.kv("session", session);
    w.key("job");
    w.begin_object();
    w.kv("id", job);
    w.kv("release", release);
    w.kv("size", size);
    w.kv("curve", "pow:" + obs::json_number(alpha));
    w.end_object();
    w.end_object();
    return call(os.str());
  }

  WireReply advance(std::uint64_t session, double to) override {
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("op", "advance");
    w.kv("id", rid_++);
    w.kv("session", session);
    w.kv("to", to);
    w.end_object();
    return call(os.str());
  }

  WireReply query(std::uint64_t session) override {
    return call(simple("query", session));
  }
  WireReply finish(std::uint64_t session) override {
    return call(simple("finish", session));
  }
  WireReply close(std::uint64_t session) override {
    return call(simple("close", session));
  }

  WireReply stats() override {
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("op", "stats");
    w.kv("id", rid_++);
    w.end_object();
    return call(os.str());
  }

 private:
  std::string simple(const char* op, std::uint64_t session) {
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("op", op);
    w.kv("id", rid_++);
    w.kv("session", session);
    w.end_object();
    return os.str();
  }

  WireReply call(const std::string& line) {
    const std::string resp = client_.request(line);
    obs::JsonValue v;
    std::string err;
    if (!obs::json_parse(resp, v, &err)) {
      throw std::runtime_error("unparseable response: " + err);
    }
    WireReply out;
    out.ok = v.bool_or("ok", false);
    if (!out.ok) {
      out.reject = v.string_or("reject", "");
      out.error = v.string_or("error", "unknown");
      return out;
    }
    out.session = static_cast<std::uint64_t>(v.number_or("session", 0.0));
    out.exposition = v.string_or("exposition", "");
    SessionOutcome& r = out.result;
    r.jobs = static_cast<std::uint64_t>(v.number_or("jobs", 0.0));
    r.total_flow = v.number_or("total_flow", 0.0);
    r.weighted_flow = v.number_or("weighted_flow", 0.0);
    r.fractional_flow = v.number_or("fractional_flow", 0.0);
    r.makespan = v.number_or("makespan", 0.0);
    r.decisions = static_cast<std::uint64_t>(v.number_or("decisions", 0.0));
    r.events = static_cast<std::uint64_t>(v.number_or("events", 0.0));
    return out;
  }

  Client client_;
  int rid_ = 0;
};

// ---- PBIN wire ------------------------------------------------------------

class BinWire final : public WireClient {
 public:
  BinWire(const std::string& path, double timeout) : client_(path, timeout) {}

  WireReply open(const std::string& policy, int machines,
                 std::uint64_t key) override {
    return call(bin_open(rid_++, policy, machines, 1.0, key));
  }

  WireReply admit(std::uint64_t session, std::uint32_t job, double release,
                  double size, double alpha) override {
    Job j;
    j.id = job;
    j.release = release;
    j.size = size;
    j.curve = SpeedupCurve::power_law(alpha);
    return call(bin_admit(rid_++, session, j));
  }

  WireReply advance(std::uint64_t session, double to) override {
    return call(bin_advance(rid_++, session, to));
  }
  WireReply query(std::uint64_t session) override {
    return call(bin_query(rid_++, session));
  }
  WireReply finish(std::uint64_t session) override {
    return call(bin_finish(rid_++, session));
  }
  WireReply close(std::uint64_t session) override {
    return call(bin_close(rid_++, session));
  }
  WireReply stats() override { return call(bin_stats(rid_++)); }

 private:
  WireReply call(const std::string& payload) {
    const BinResponse resp = client_.call(payload);
    WireReply out;
    switch (resp.status) {
      case BinStatus::kOk:
        out.ok = true;
        break;
      case BinStatus::kReject:
        out.reject = to_string(static_cast<Submit>(resp.verdict));
        out.error = "rejected: " + out.reject;
        return out;
      case BinStatus::kError:
        out.error = resp.error;
        return out;
    }
    out.session = resp.session;
    out.exposition = resp.text;
    SessionOutcome& r = out.result;
    r.jobs = resp.jobs;
    r.total_flow = resp.total_flow;
    r.weighted_flow = resp.weighted_flow;
    r.fractional_flow = resp.fractional_flow;
    r.makespan = resp.makespan;
    r.decisions = resp.decisions;
    r.events = resp.events;
    return out;
  }

  BinClient client_;
  std::uint64_t rid_ = 0;
};

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
WireReply timed(const std::function<WireReply()>& op, Shared& shared,
                std::vector<double>& local_lat) {
  for (int attempt = 0;; ++attempt) {
    const double t0 = obs::monotonic_seconds();
    const WireReply reply = op();
    const double ms = (obs::monotonic_seconds() - t0) * 1e3;
    if (shared.requests != nullptr) shared.requests->inc();
    if (shared.latency_ms != nullptr) shared.latency_ms->observe(ms);
    local_lat.push_back(ms);
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      ++shared.result.requests;
    }
    if (reply.ok) return reply;
    if (reply.reject.empty()) {
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
      throw std::runtime_error("request rejected " +
                               std::to_string(kMaxRetries) + " times (" +
                               reply.reject + ")");
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
  std::unique_ptr<WireClient> wire;
  if (cfg.binary) {
    wire = std::make_unique<BinWire>(cfg.socket_path, cfg.connect_timeout);
  } else {
    wire = std::make_unique<JsonWire>(cfg.socket_path, cfg.connect_timeout);
  }

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
    const WireReply opened = timed(
        [&] { return wire->open(cfg.policy, cfg.machines, plan.key); },
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
      const double release = release_time(cfg, *s.plan, i);
      const double size = 0.5 + 1.5 * next_unit(s.rng);
      const double alpha = 0.25 + 0.5 * next_unit(s.rng);
      timed(
          [&] {
            return wire->admit(s.session, static_cast<std::uint32_t>(i),
                               release, size, alpha);
          },
          shared, local_lat);
      if (cfg.advance_every > 0 && (i + 1) % cfg.advance_every == 0) {
        timed([&] { return wire->advance(s.session, release); }, shared,
              local_lat);
      }
      if (cfg.stats_every > 0 && (i + 1) % cfg.stats_every == 0) {
        // Live-telemetry probe riding inside the load: the exposition
        // writer races every hot strand of the server while we scrape.
        const WireReply stats =
            timed([&] { return wire->stats(); }, shared, local_lat);
        if (stats.exposition.empty()) {
          throw std::runtime_error("stats returned an empty exposition");
        }
        std::lock_guard<std::mutex> lock(shared.mu);
        ++shared.result.stats_scrapes;
      }
    }
  }

  for (Live& s : live) {
    timed([&] { return wire->query(s.session); }, shared, local_lat);
    const WireReply fin =
        timed([&] { return wire->finish(s.session); }, shared, local_lat);
    timed([&] { return wire->close(s.session); }, shared, local_lat);
    SessionOutcome out = fin.result;
    out.session_index = s.plan->index;
    out.wall_seconds = obs::monotonic_seconds() - s.t0;
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.result.sessions[static_cast<std::size_t>(s.plan->index)] =
        std::move(out);
  }

  std::lock_guard<std::mutex> lock(shared.mu);
  shared.result.latencies_ms.insert(shared.result.latencies_ms.end(),
                                    local_lat.begin(), local_lat.end());
}

/// Ask the server how many shards it runs (the NDJSON "cluster" verb —
/// the admin path works regardless of what the workers speak).
int probe_shards(const LoadgenConfig& cfg) {
  Client admin(cfg.socket_path, cfg.connect_timeout);
  const std::string resp = admin.request(R"({"op":"cluster","id":0})");
  obs::JsonValue v;
  std::string err;
  if (!obs::json_parse(resp, v, &err) || !v.bool_or("ok", false)) {
    throw std::runtime_error("cluster probe failed: " + resp);
  }
  const int shards = static_cast<int>(v.number_or("shards", 1.0));
  return shards > 0 ? shards : 1;
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
  pool.shutdown(true);

  if (cfg.shutdown_after) {
    Client admin(cfg.socket_path, cfg.connect_timeout);
    (void)admin.request(R"({"op":"shutdown","id":0})");
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
