// serve_fleet — the online user's path.
//
// Set-up: a ProtocolHandler as `parsched serve` ships it — 2 shards x 1
// pool thread, a metrics registry and a flight recorder attached. Load:
// one client thread drives 64 sessions closed-loop, one request at a time
// (isrpt, m = 16, pow:0.5 jobs of seeded sizes and Poisson releases). For
// each job index every session admits its job; every 16 admissions every
// session advances; the client scrapes `stats` every 256 admissions, and
// each session ends with finish + close. The NDJSON codec, routing, the
// strand handoff to the pool thread and the engine's small share of work
// are on the request path.
//
// The timed run (--trace 0) calls ProtocolHandler::handle_line directly
// and waits for the answer the pool thread writes back. The traced run
// also sends the same rounds over a Unix socket to the socket loop, so
// the transport's share (serve_cluster.transport_us_p50) stays measured.
// Every round sends the same script, and the timed figures use each
// request's fastest repeat (FastestRepeat, common.hpp).
//
// The process confines itself to one CPU of its affinity mask before any
// thread starts: with the client and the pool threads on one CPU every
// request pays the same handoffs, where unpinned runs measured the OS
// scheduler's placement of cross-CPU wake-ups.
//
// Correctness: every session's finish result must equal a batch
// simulate() of its job log double for double, and no request may error.
//
// The traced run replays the same request log at the layer boundaries —
// directly on serve::Session and through ProtocolHandler::handle_frame
// (PBIN) — and runs the batch simulations plainly and behind a
// TimedScheduler and a CountingObserver.
#include <sched.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sched/registry.hpp"
#include "serve/binproto.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "simcore/engine.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using parsched::Job;
namespace serve = parsched::serve;
namespace obs = parsched::obs;

constexpr int kMachines = 16;
constexpr int kAdvanceEvery = 16;
constexpr int kStatsEvery = 256;
/// One set-up (fleet generation + handler start + first ping) takes a few
/// milliseconds, and a CPU's slow state (see CpuRotation in common.hpp)
/// can double it: each setup_s sample is the fastest of a batch of
/// back-to-back set-ups, each on the next CPU, and the metric is the
/// median over the samples.
constexpr std::size_t kSetupSamples = 9;
constexpr int kSetupsPerSample = 128;
/// Rounds (and replays) of each kind behind the traced run's medians.
constexpr int kTracedRepeats = 7;
constexpr std::size_t kFlightCapacity = 4096;  // `parsched serve` default
constexpr double kArrivalRate = 1.5;  // per session: offered load ~0.5
constexpr const char* kPolicy = "isrpt";

struct Shape {
  int sessions;
  int jobs;  ///< admissions per session
};

Shape shape(bool tiny) { return tiny ? Shape{4, 64} : Shape{64, 256}; }

using Fleet = std::vector<std::vector<Job>>;

Fleet generate_fleet(std::uint64_t seed, const Shape& s) {
  parsched::Rng root(seed);
  Fleet fleet(static_cast<std::size_t>(s.sessions));
  for (auto& jobs : fleet) {
    parsched::Rng rng = root.split();
    double t = 0.0;
    for (int j = 0; j < s.jobs; ++j) {
      t += rng.exponential(kArrivalRate);
      Job job;
      job.id = static_cast<parsched::JobId>(j);
      job.release = t;
      job.size = rng.log_uniform(1.0, 16.0);
      job.curve = parsched::SpeedupCurve::power_law(0.5);
      jobs.push_back(job);
    }
  }
  return fleet;
}

enum class Op : std::uint8_t { kOpen, kAdmit, kAdvance, kStats, kFinish, kClose };

struct Request {
  Op op;
  int session = -1;
  int job = -1;
  double to = 0.0;
  /// The NDJSON request after its id and session fields, rendered once
  /// so the timed client loop only splices in the ids.
  std::string tail = "}";
};

const Job& job_of(const Fleet& fleet, const Request& q) {
  return fleet[static_cast<std::size_t>(q.session)]
              [static_cast<std::size_t>(q.job)];
}

/// One round of the fleet's requests, in the order the client sends them:
/// the sessions' opens, then for each job index every session's admit
/// (and, every kAdvanceEvery jobs, every session's advance), then the
/// finishes and closes.
std::vector<Request> fleet_script(const Fleet& fleet, const Shape& s) {
  std::vector<Request> script;
  const std::string open_tail = std::string(",\"policy\":\"") + kPolicy +
                                "\",\"machines\":" +
                                std::to_string(kMachines) + "}";
  for (int i = 0; i < s.sessions; ++i) {
    script.push_back({Op::kOpen, i, -1, 0.0, open_tail});
  }
  int admitted = 0;
  for (int j = 0; j < s.jobs; ++j) {
    for (int i = 0; i < s.sessions; ++i) {
      Request admit{Op::kAdmit, i, j};
      const Job& job = job_of(fleet, admit);
      admit.tail = ",\"job\":{\"id\":" + std::to_string(job.id) +
                   ",\"release\":" + obs::json_number(job.release) +
                   ",\"size\":" + obs::json_number(job.size) +
                   ",\"curve\":\"pow:0.5\"}}";
      script.push_back(std::move(admit));
      if (++admitted % kStatsEvery == 0) script.push_back({Op::kStats});
    }
    if ((j + 1) % kAdvanceEvery != 0) continue;
    for (int i = 0; i < s.sessions; ++i) {
      const double to = job_of(fleet, Request{Op::kAdvance, i, j}).release;
      script.push_back(
          {Op::kAdvance, i, j, to, ",\"to\":" + obs::json_number(to) + "}"});
    }
  }
  for (int i = 0; i < s.sessions; ++i) script.push_back({Op::kFinish, i});
  for (int i = 0; i < s.sessions; ++i) script.push_back({Op::kClose, i});
  return script;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kOpen: return "open";
    case Op::kAdmit: return "admit";
    case Op::kAdvance: return "advance";
    case Op::kStats: return "stats";
    case Op::kFinish: return "finish";
    case Op::kClose: return "close";
  }
  return "";
}

std::string ndjson_line(const Request& q, std::uint64_t rid,
                        std::uint64_t sid) {
  std::string line;
  line.reserve(64 + q.tail.size());
  line += "{\"op\":\"";
  line += op_name(q.op);
  line += "\",\"id\":";
  line += std::to_string(rid);
  if (q.session >= 0) {
    line += ",\"session\":";
    line += std::to_string(sid);
  }
  line += q.tail;
  return line;
}

std::string pbin_payload(const Request& q, const Fleet& fleet,
                         std::uint64_t rid, std::uint64_t sid) {
  switch (q.op) {
    case Op::kOpen: return serve::bin_open(rid, kPolicy, kMachines, 1.0);
    case Op::kAdmit: return serve::bin_admit(rid, sid, job_of(fleet, q));
    case Op::kAdvance: return serve::bin_advance(rid, sid, q.to);
    case Op::kStats: return serve::bin_stats(rid);
    case Op::kFinish: return serve::bin_finish(rid, sid);
    case Op::kClose: return serve::bin_close(rid, sid);
  }
  return {};
}

bool is_hot(Op op) { return op == Op::kAdmit || op == Op::kAdvance; }

struct Round {
  double wall_s = 0.0;
  std::vector<double> hot_us;  ///< admit + advance round trips
  std::vector<double> us_at;   ///< every round trip, by script index
  std::vector<double> stats_us;
  std::uint64_t requests = 0;
  std::uint64_t rejects = 0;
  std::uint64_t errors = 0;
  std::vector<double> exposition_bytes;
  std::vector<std::string> finish;  ///< NDJSON finish lines, per session
};

void record(Round& r, Op op, double us) {
  if (is_hot(op)) r.hot_us.push_back(us);
  if (op == Op::kStats) r.stats_us.push_back(us);
}

/// Sends one NDJSON request and returns the accepted response; a load
/// rejection is counted and retried, and the latency runs from the first
/// send to the accepted answer.
template <typename Exchange>
std::string ndjson_call(Exchange& ex, const std::string& line, Round& r,
                        double& us) {
  const double t0 = now_s();
  for (;;) {
    ++r.requests;
    std::string resp = ex(line);
    if (resp.find("\"reject\"") == std::string::npos) {
      us = (now_s() - t0) * 1e6;
      if (resp.find("\"ok\":true") == std::string::npos) {
        ++r.errors;
        std::cerr << "perfbench: serve error: " << resp << '\n';
      }
      return resp;
    }
    ++r.rejects;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::uint64_t parse_session(const std::string& resp) {
  const std::size_t at = resp.find("\"session\":");
  check(at != std::string::npos, "open: no session id in " + resp);
  return std::strtoull(resp.c_str() + at + 10, nullptr, 10);
}

/// One pass over the script, one request at a time. Request ids count
/// from 1 within the pass.
template <typename Exchange>
Round ndjson_round(Exchange& ex, const std::vector<Request>& script,
                   const Fleet& fleet) {
  Round r;
  std::vector<std::uint64_t> sids(fleet.size(), 0);
  r.finish.resize(fleet.size());
  r.us_at.reserve(script.size());
  const double t0 = now_s();
  for (std::size_t k = 0; k < script.size(); ++k) {
    const Request& q = script[k];
    const std::uint64_t sid =
        q.session >= 0 ? sids[static_cast<std::size_t>(q.session)] : 0;
    double us = 0.0;
    std::string resp = ndjson_call(ex, ndjson_line(q, k + 1, sid), r, us);
    record(r, q.op, us);
    r.us_at.push_back(us);
    if (q.op == Op::kOpen) {
      sids[static_cast<std::size_t>(q.session)] = parse_session(resp);
    } else if (q.op == Op::kFinish) {
      r.finish[static_cast<std::size_t>(q.session)] = std::move(resp);
    } else if (q.op == Op::kStats) {
      r.exposition_bytes.push_back(static_cast<double>(resp.size()));
    }
  }
  r.wall_s = now_s() - t0;
  return r;
}

/// Closed-loop adapter over ProtocolHandler: responses arrive on a pool
/// thread (or inline), and the caller blocks until the one it awaits.
class Waiter {
 public:
  Waiter() = default;
  Waiter(const Waiter&) = delete;  // fn() hands out `this`
  Waiter& operator=(const Waiter&) = delete;

  serve::ProtocolHandler::WriteFn fn() {
    return [this](const std::string& s) {
      std::lock_guard<std::mutex> g(mu_);
      resp_ = s;
      ready_ = true;
      cv_.notify_one();
    };
  }
  std::string wait() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [this] { return ready_; });
    ready_ = false;
    return std::move(resp_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::string resp_;
  bool ready_ = false;
};

serve::Cluster::Config cluster_config(int sessions, obs::MetricsRegistry* m,
                                      obs::FlightRecorder* rec) {
  serve::Cluster::Config c;
  c.shards = 2;
  c.threads_per_shard = 1;
  c.max_sessions = static_cast<std::size_t>(sessions) + 64;
  c.max_queue = 128;
  c.metrics = m;
  c.recorder = rec;
  return c;
}

/// The server under test: the handler and its socket loop on a thread of
/// this process.
class LiveServer {
 public:
  LiveServer(const std::string& path, int sessions)
      : path_(path),
        recorder_(kFlightCapacity),
        handler_(cluster_config(sessions, &registry_, &recorder_)),
        thread_([this] {
          try {
            serve::serve_unix_socket(handler_, path_);
          } catch (const std::exception& e) {
            std::cerr << "perfbench: server failed: " << e.what() << '\n';
          }
        }) {}
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  ~LiveServer() {
    try {
      serve::Client c(path_, 10.0);
      (void)c.request("{\"op\":\"shutdown\",\"id\":0}");
    } catch (const std::exception& e) {
      std::cerr << "perfbench: shutdown failed: " << e.what() << '\n';
    }
    thread_.join();  // the socket loop unlinks its path on the way out
  }

 private:
  std::string path_;
  obs::MetricsRegistry registry_;
  obs::FlightRecorder recorder_;
  serve::ProtocolHandler handler_;
  std::thread thread_;
};

/// The server of the timed run: the handler the socket loop would drive,
/// called directly by the client thread, which blocks on each answer.
class InProcessServer {
 public:
  explicit InProcessServer(int sessions)
      : recorder_(kFlightCapacity),
        handler_(cluster_config(sessions, &registry_, &recorder_)) {}
  InProcessServer(const InProcessServer&) = delete;
  InProcessServer& operator=(const InProcessServer&) = delete;
  ~InProcessServer() { handler_.drain(); }

  std::string operator()(const std::string& line) {
    handler_.handle_line(line, waiter_.fn());
    return waiter_.wait();
  }

 private:
  obs::MetricsRegistry registry_;
  obs::FlightRecorder recorder_;
  serve::ProtocolHandler handler_;
  Waiter waiter_;
};

/// Confine the process to the highest-numbered CPU of its affinity mask.
/// Must run before any thread starts: threads inherit the mask.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (CPU_ISSET(c, &set)) return pin_thread_to(c) ? c : -1;
  }
  return -1;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Finish response of session `i` against its batch simulate().
void check_finish(const std::string& line, const parsched::SimResult& want,
                  int i) {
  const std::string where = "serve_fleet session " + std::to_string(i);
  obs::JsonValue v;
  check(obs::json_parse(line, v), where + ": unparseable finish: " + line);
  const bool totals =
      same_bits(v.number_or("total_flow", -1.0), want.total_flow) &&
      same_bits(v.number_or("fractional_flow", -1.0), want.fractional_flow) &&
      same_bits(v.number_or("makespan", -1.0), want.makespan) &&
      v.number_or("decisions", -1.0) == static_cast<double>(want.decisions) &&
      v.number_or("events", -1.0) == static_cast<double>(want.events);
  check(totals, where + ": finish totals differ from batch simulate()");
  const obs::JsonValue* recs = v.find("records");
  check(recs != nullptr && recs->array.size() == want.records.size(),
        where + ": finish records differ in count from batch simulate()");
  for (std::size_t k = 0; k < want.records.size(); ++k) {
    const obs::JsonValue& rec = recs->array[k];
    const parsched::JobRecord& w = want.records[k];
    check(rec.number_or("job", -1.0) == static_cast<double>(w.job.id) &&
              same_bits(rec.number_or("release", -1.0), w.job.release) &&
              same_bits(rec.number_or("completion", -1.0), w.completion),
          where + ": record " + std::to_string(k) +
              " differs from batch simulate()");
  }
}

std::vector<parsched::SimResult> batch_results(const Fleet& fleet) {
  std::vector<parsched::SimResult> out;
  for (const auto& jobs : fleet) {
    auto sched = parsched::make_scheduler(kPolicy);
    out.push_back(
        parsched::simulate(parsched::Instance(kMachines, jobs), *sched));
  }
  return out;
}

void check_round(const Round& r, const std::vector<parsched::SimResult>& want) {
  check(r.errors == 0, "serve_fleet: " + std::to_string(r.errors) +
                           " requests answered with an error");
  for (std::size_t i = 0; i < want.size(); ++i) {
    check_finish(r.finish[i], want[i], static_cast<int>(i));
  }
}

/// Replays the script's session operations directly on serve::Session
/// (configured as the cluster's shards configure theirs).
struct SessionReplay {
  std::vector<double> admit_us;
  std::vector<double> advance_us;
  double total_s = 0.0;
};

SessionReplay replay_sessions(const std::vector<Request>& script,
                              const Fleet& fleet) {
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(kFlightCapacity);
  std::vector<std::unique_ptr<serve::Session>> sessions(fleet.size());
  SessionReplay out;
  for (const Request& q : script) {
    if (q.op == Op::kStats) continue;
    auto& s = sessions[static_cast<std::size_t>(q.session)];
    const double t0 = now_s();
    switch (q.op) {
      case Op::kOpen: {
        serve::Session::Config cfg;
        cfg.policy = kPolicy;
        cfg.machines = kMachines;
        cfg.metrics = &registry;
        cfg.recorder = &recorder;
        s = std::make_unique<serve::Session>(cfg);
        break;
      }
      case Op::kAdmit: s->admit(job_of(fleet, q)); break;
      case Op::kAdvance: s->advance(q.to); break;
      case Op::kFinish: s->finish(); break;
      case Op::kClose: s.reset(); break;
      case Op::kStats: break;
    }
    const double dt = now_s() - t0;
    out.total_s += dt;
    if (q.op == Op::kAdmit) out.admit_us.push_back(dt * 1e6);
    if (q.op == Op::kAdvance) out.advance_us.push_back(dt * 1e6);
  }
  return out;
}

/// Replays the script through ProtocolHandler::handle_frame (PBIN),
/// stats excluded; returns the round with admit/advance timings.
Round replay_pbin(const std::vector<Request>& script, const Fleet& fleet,
                  int sessions) {
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(kFlightCapacity);
  serve::ProtocolHandler handler(cluster_config(sessions, &registry, &recorder));
  Waiter w;
  Round r;
  std::vector<std::uint64_t> sids(fleet.size(), 0);
  std::uint64_t rid = 0;
  for (const Request& q : script) {
    if (q.op == Op::kStats) continue;
    const std::uint64_t sid =
        sids[static_cast<std::size_t>(q.session)];
    const std::string payload = pbin_payload(q, fleet, ++rid, sid);
    const double t0 = now_s();
    handler.handle_frame(payload, w.fn());
    const serve::BinResponse resp = serve::parse_bin_response(w.wait());
    record(r, q.op, (now_s() - t0) * 1e6);
    ++r.requests;
    if (resp.status == serve::BinStatus::kReject) ++r.rejects;
    if (resp.status == serve::BinStatus::kError) ++r.errors;
    if (q.op == Op::kOpen) sids[static_cast<std::size_t>(q.session)] = resp.session;
  }
  handler.drain();
  return r;
}

}  // namespace

int run_serve_fleet(const Options& opt, Report& r) {
  CpuRotation setup_cpus;  // the whole mask, read before pinning
  const int cpu = pin_to_one_cpu();
  check(cpu >= 0, "serve_fleet: cannot confine the process to one CPU");
  r.note("cpu_pinned", std::to_string(cpu));
  if (opt.write_reference) return 0;  // the oracle is batch simulate()

  const Shape s = shape(opt.tiny);
  std::vector<double> setup;
  std::vector<double> generate;
  // One set-up sample: the fastest of a batch of back-to-back set-ups,
  // each a fleet generation, a handler start and a first ping. Each
  // set-up runs on the next CPU, its handler's threads on the same one
  // (they inherit the client thread's CPU), and is shut down before the
  // next, untimed. The client thread then returns to the pinned CPU.
  auto setup_sample = [&] {
    double fastest = 0.0;
    for (int k = 0; k < kSetupsPerSample; ++k) {
      setup_cpus.next();
      const double g0 = now_s();
      const Fleet f = generate_fleet(opt.seed, s);
      const double g1 = now_s();
      auto started = std::make_unique<InProcessServer>(s.sessions);
      const std::string pong = (*started)("{\"op\":\"ping\",\"id\":0}");
      const double dt = now_s() - g0;
      check(pong.find("\"ok\":true") != std::string::npos,
            "serve_fleet: ping failed: " + pong);
      generate.push_back(g1 - g0);
      if (k == 0 || dt < fastest) fastest = dt;
    }
    setup.push_back(fastest);
    check(pin_thread_to(cpu), "serve_fleet: cannot return to the pinned CPU");
  };

  const Fleet fleet = generate_fleet(opt.seed, s);
  auto server = std::make_unique<InProcessServer>(s.sessions);
  const std::vector<Request> script = fleet_script(fleet, s);
  const std::vector<parsched::SimResult> want = batch_results(fleet);
  check_round(ndjson_round(*server, script, fleet), want);  // warm

  if (!opt.trace) {
    // Every round sends the same script, so request q of one round is the
    // same unit of work as in another. Set-up samples are spread over the
    // run, between rounds.
    FastestRepeat all_ms(script.size());
    FastestRepeat hot_ms(script.size());
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
      const Round rd = ndjson_round(*server, script, fleet);
      check_round(rd, want);
      r.attempted += rd.requests;
      r.failed += rd.rejects + rd.errors;
      for (std::size_t q = 0; q < script.size(); ++q) {
        all_ms.add(q, rd.us_at[q] * 1e-3);
        if (is_hot(script[q].op)) hot_ms.add(q, rd.us_at[q] * 1e-3);
      }
    }
    server.reset();
    report_timed(r, sequential_rate(all_ms), script.size(), hot_ms, 0.99);
    r.note("error_ratio", static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted));
    r.metric("setup_s", median(setup), "s", setup.size());
    return 0;
  }
  setup_sample();  // for workload.generate_s

  declare_layer_metrics(r);
  // The timed path (handle_line in process) and the same rounds over a
  // Unix socket served by the socket loop, in alternation; the layer split
  // uses the median wall of each, because two single rounds measured
  // apart can differ by more host noise than the transport's share.
  Round in_process;
  Round live;
  std::vector<double> in_process_s;
  std::vector<double> socket_s;
  {
    const std::string path =
        opt.scratch_dir + "/pf" + std::to_string(::getpid()) + ".sock";
    LiveServer live_server(path, s.sessions);
    serve::Client client(path, 30.0);
    auto over_socket = [&](const std::string& line) {
      return client.request(line);
    };
    check_round(ndjson_round(over_socket, script, fleet), want);  // warm
    for (int i = 0; i < kTracedRepeats; ++i) {
      in_process = ndjson_round(*server, script, fleet);
      check_round(in_process, want);
      in_process_s.push_back(in_process.wall_s);
      live = ndjson_round(over_socket, script, fleet);
      check_round(live, want);
      socket_s.push_back(live.wall_s);
    }
  }
  server.reset();
  const Round pbin = replay_pbin(script, fleet, s.sessions);

  // The engine's share: the same jobs as plain batch runs (a streaming
  // session makes the same decisions as the batch run), alternating with
  // the Session replay, medians again; then the batch runs once more
  // behind the probes for the allocate time and the counts.
  std::vector<double> engine_s;
  std::vector<double> session_s;
  SessionReplay sess;
  for (int i = 0; i < kTracedRepeats; ++i) {
    double wall = 0.0;
    for (const auto& jobs : fleet) {
      const parsched::Instance inst(kMachines, jobs);
      auto sched = parsched::make_scheduler(kPolicy);
      const double t0 = now_s();
      (void)parsched::simulate(inst, *sched);
      wall += now_s() - t0;
    }
    engine_s.push_back(wall);
    sess = replay_sessions(script, fleet);
    session_s.push_back(sess.total_s);
  }
  CountingObserver cobs;
  double allocate = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t events = 0;
  for (const auto& jobs : fleet) {
    const parsched::Instance inst(kMachines, jobs);
    TimedScheduler sched(parsched::make_scheduler(kPolicy), true);
    events += parsched::simulate(inst, sched, {}, {&cobs}).events;
    allocate += sched.busy_s();
    calls += sched.calls();
  }
  r.attempted = in_process.requests;
  r.failed = in_process.rejects + in_process.errors;

  // Wall-time decomposition of a socket round: the engine (batch runs),
  // the session layer (Session replay minus the engine), the cluster
  // plane (in-process round minus the Session replay: codec, routing,
  // strand handoffs, stats, the client loop) and the transport (socket
  // round minus the in-process round).
  const double engine = median(engine_s);
  const double simcore_self = engine - allocate;
  const double serve_self = median(session_s) - engine;
  const double cluster_self = median(in_process_s) - median(session_s);
  const double transport = median(socket_s) - median(in_process_s);
  r.metric("workload.generate_s", median(generate), "s");
  r.metric("sched.allocate_s", allocate, "s");
  r.metric("sched.allocate_calls", static_cast<double>(calls), "count");
  r.metric("sched.allocate_s." + policy_key(kPolicy), allocate, "s");
  r.metric("simcore.self_s", simcore_self, "s");
  report_engine_counts(r, cobs, events, replay_rate_batch(cobs, 0.05));
  r.metric("serve.session_admit_us_p50", percentile(sess.admit_us, 0.5), "us");
  r.metric("serve.session_advance_us_p50", percentile(sess.advance_us, 0.5),
           "us");
  const double ndjson_p50 = percentile(in_process.hot_us, 0.5);
  r.metric("serve_cluster.ndjson_us_p50", ndjson_p50, "us");
  r.metric("serve_cluster.pbin_us_p50", percentile(pbin.hot_us, 0.5), "us");
  r.metric("serve_cluster.transport_us_p50",
           percentile(live.hot_us, 0.5) - ndjson_p50, "us");
  r.metric("serve_cluster.rejects", static_cast<double>(live.rejects),
           "count");
  r.metric("serve_cluster.errors",
           static_cast<double>(in_process.errors + live.errors + pbin.errors),
           "count");
  r.metric("obs.stats_ms_p50", percentile(in_process.stats_us, 0.5) * 1e-3,
           "ms");
  r.metric("obs.exposition_bytes", median(in_process.exposition_bytes),
           "bytes");
  // Every probe here runs on a replay, none on the timed path, so tracing
  // adds nothing to it (the difference of two identical rounds would
  // only report host noise).
  r.metric("trace.overhead_pct", 0.0, "%");
  check(pbin.errors == 0,
        "serve_fleet: a replayed request answered with an error");
  report_layers(r,
                {{"sched", allocate},
                 {"simcore", simcore_self},
                 {"serve", serve_self},
                 {"serve_cluster", cluster_self},
                 {"transport", transport}},
                median(socket_s));
  return 0;
}

}  // namespace perfbench
