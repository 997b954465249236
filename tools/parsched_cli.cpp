// parsched — the command-line front end.
//
//   parsched gen --kind=random --jobs=200 --machines=16 --out=inst.txt
//   parsched run --instance=inst.txt --policy=isrpt --gantt
//   parsched compare --instance=inst.txt
//   parsched bound --instance=inst.txt
//
// Commands:
//   gen      generate an instance file (kinds: random, batch, phased,
//            greedy-killer; see --help output per kind below)
//   run      simulate one policy on an instance file; optional --speed,
//            --trace=out.csv (allocation segments), --gantt (terminal
//            timeline)
//   trace    simulate one policy and export run telemetry: a Chrome
//            trace-event file (open in Perfetto / chrome://tracing) and
//            optionally a JSONL event log, plus the engine's per-phase
//            timing buckets
//   compare  run every registry policy plus the OPT sandwich
//   bound    print the provable lower bounds only
//   sweep    run a (policy x P x alpha x seed) grid of random-instance
//            simulations, sharded across a thread pool
//            (--jobs=N, else PARSCHED_JOBS, else all hardware threads).
//            Table/CSV/report bytes are identical at any job count:
//            per-task seeds derive from exec::task_seed(base, index)
//            and results merge in task-index order. Job count and wall
//            time go to stderr only, never into artifacts.
#include <algorithm>
#include <atomic>
#include <ctime>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>  // lint: thread-ok (stats-interval emitter)

#include "analysis/trace.hpp"
#include "exec/sweep.hpp"
#include "obs/expose.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/trace_export.hpp"
#include "sched/opt/search.hpp"
#include "sched/opt/portfolio.hpp"
#include "sched/opt/relaxations.hpp"
#include "sched/registry.hpp"
#include "sched/weighted.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"
#include "simcore/engine.hpp"
#include "simcore/io.hpp"
#include "util/fsio.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/greedy_killer.hpp"
#include "workload/phased.hpp"
#include "workload/random.hpp"

using namespace parsched;

namespace {

int usage() {
  std::cerr <<
      "usage: parsched <command> [--key=value ...]\n"
      "  gen     --kind=random|batch|phased|greedy-killer --out=FILE\n"
      "          [--machines=M --jobs=N --P=.. --load=.. --alpha=..\n"
      "           --seed=..]\n"
      "  run     --instance=FILE [--policy=isrpt] [--speed=1.0]\n"
      "          [--trace=FILE.csv] [--gantt] [--width=72]\n"
      "  trace   --instance=FILE [--policy=isrpt] [--out=trace.json]\n"
      "          [--jsonl=FILE.jsonl] [--speed=1.0] [--no-decisions]\n"
      "  compare --instance=FILE [--policies=a,b,c] [--search]\n"
      "  bound   --instance=FILE\n"
      "  sweep   [--policies=isrpt,equi] [--P=32,64] [--alpha=0.25,0.5]\n"
      "          [--seeds=3] [--seed=1] [--machines=8] [--n=200]\n"
      "          [--jobs=N] [--csv=FILE.csv]\n"
      "  serve   --stdio | --socket=PATH [--shards=1] [--threads=N]\n"
      "          [--max-sessions=64] [--max-queue=128]\n"
      "          [--stats-interval=SECS [--stats-out=FILE.jsonl]]\n"
      "          [--flight-capacity=4096] [--flight-dump=FILE.jsonl]\n"
      "  loadgen --socket=PATH [--sessions=8] [--admissions=200]\n"
      "          [--rate=64] [--advance-every=16] [--policy=equi]\n"
      "          [--machines=4] [--seed=1] [--stats-every=0]\n"
      "          [--shape=uniform|zipf|burst|diurnal] [--zipf-theta=1]\n"
      "          [--burst-per=32] [--diurnal-peak=4] [--workers=0]\n"
      "          [--binary] [--report-name=serve_loadgen] [--shutdown]\n"
      "  ctl     --socket=PATH [--timeout=10] '<json request>' ...\n";
  return 2;
}

// The sharded sweep: every (policy, P, alpha) cell is measured over
// `seeds` repetitions, one sweep task per repetition, each with its own
// derived seed and private metrics registry. Rows aggregate in cell
// order after the index-order merge, so the emitted bytes cannot depend
// on the worker count.
int cmd_sweep(const Options& opt) {
  std::vector<std::string> policies{"isrpt", "equi"};
  if (opt.has("policies")) {
    policies.clear();
    std::stringstream ss(opt.get("policies", ""));
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) policies.push_back(tok);
    }
  }
  const auto Ps = opt.get_doubles("P", {32.0, 64.0});
  const auto alphas = opt.get_doubles("alpha", {0.25, 0.5});
  const int m = static_cast<int>(opt.get_int("machines", 8));
  const std::size_t n = static_cast<std::size_t>(opt.get_int("n", 200));
  const int reps = static_cast<int>(opt.get_int("seeds", 3));
  if (policies.empty() || Ps.empty() || alphas.empty() || reps <= 0) {
    std::cerr << "sweep: need at least one policy, P, alpha, and seed\n";
    return 2;
  }

  exec::SweepRunner::Config rc;
  rc.jobs =
      exec::resolve_jobs(static_cast<int>(opt.get_int("jobs", 0)));
  rc.base_seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  rc.merge_metrics = &obs::MetricsRegistry::global();
  exec::SweepRunner runner(rc);

  const std::size_t per_policy = Ps.size() * alphas.size();
  const std::size_t cells = policies.size() * per_policy;
  const std::size_t reps_sz = static_cast<std::size_t>(reps);
  const auto ratios = runner.map<double>(
      cells * reps_sz, [&](const exec::TaskContext& ctx) {
        const std::size_t cell = ctx.index / reps_sz;
        const std::size_t in_policy = cell % per_policy;
        RandomWorkloadConfig cfg;
        cfg.machines = m;
        cfg.jobs = n;
        cfg.P = Ps[in_policy / alphas.size()];
        cfg.alpha_lo = cfg.alpha_hi = alphas[in_policy % alphas.size()];
        cfg.load = 1.0;
        cfg.seed = ctx.seed;  // exec::task_seed(base, index)
        const Instance inst = make_random_instance(cfg);
        auto sched = make_scheduler(policies[cell / per_policy]);
        EngineConfig ec;
        ec.metrics = ctx.metrics;
        return simulate(inst, *sched, ec).total_flow /
               opt_lower_bound(inst);
      });

  Table t({"policy", "P", "alpha", "ratio_mean", "ratio_max"});
  for (std::size_t cell = 0; cell < cells; ++cell) {
    RunningStats stats;
    for (std::size_t r = 0; r < reps_sz; ++r) {
      stats.add(ratios[cell * reps_sz + r]);
    }
    const std::size_t in_policy = cell % per_policy;
    t.add_row({policies[cell / per_policy], Ps[in_policy / alphas.size()],
               alphas[in_policy % alphas.size()], stats.mean(),
               stats.max()});
  }
  std::cout << t;

  // Runtime facts stay out of the artifacts: stderr only.
  const exec::SweepStats& st = runner.last_stats();
  std::cerr << "sweep: " << st.tasks << " tasks on " << st.jobs
            << " worker(s), wall " << st.wall_seconds << "s (merge "
            << st.merge_seconds << "s, idle fraction "
            << st.idle_fraction() << ")\n";

  if (opt.has("csv")) {
    const std::string csv = opt.get("csv", "sweep.csv");
    t.write_csv(csv);
    std::cout << "sweep table written to " << csv << "\n";
  }
  if (obs::report_enabled()) {
    obs::BenchReport report("sweep");
    report.add_table("sweep", t);
    report.set_meta("seed", static_cast<double>(rc.base_seed));
    report.set_meta("seeds_per_cell", static_cast<double>(reps));
    report.set_metrics(obs::MetricsRegistry::global().snapshot());
    report.write(obs::report_path("sweep"));
    std::cout << "sweep report written to " << obs::report_path("sweep")
              << "\n";
  }
  return 0;
}

int cmd_gen(const Options& opt) {
  const std::string kind = opt.get("kind", "random");
  const std::string out = opt.get("out", "");
  if (out.empty()) {
    std::cerr << "gen: --out=FILE is required\n";
    return 2;
  }
  if (kind == "random" || kind == "batch") {
    RandomWorkloadConfig cfg;
    cfg.machines = static_cast<int>(opt.get_int("machines", 16));
    cfg.jobs = static_cast<std::size_t>(opt.get_int("jobs", 200));
    cfg.P = opt.get_double("P", 64.0);
    cfg.load = opt.get_double("load", 0.9);
    cfg.alpha_lo = cfg.alpha_hi = opt.get_double("alpha", 0.5);
    cfg.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
    if (kind == "batch") {
      BatchWorkloadConfig b;
      b.machines = cfg.machines;
      b.jobs = cfg.jobs;
      b.P = cfg.P;
      b.seed = cfg.seed;
      write_instance_file(out, make_batch_instance(b));
    } else {
      write_instance_file(out, make_random_instance(cfg));
    }
  } else if (kind == "phased") {
    PhasedWorkloadConfig cfg;
    cfg.machines = static_cast<int>(opt.get_int("machines", 16));
    cfg.jobs = static_cast<std::size_t>(opt.get_int("jobs", 200));
    cfg.P = opt.get_double("P", 64.0);
    cfg.load = opt.get_double("load", 0.9);
    cfg.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
    write_instance_file(out, make_phased_instance(cfg));
  } else if (kind == "greedy-killer") {
    GreedyKillerConfig cfg;
    cfg.machines = static_cast<int>(opt.get_int("machines", 16));
    cfg.alpha = opt.get_double("alpha", 0.5);
    cfg.stream_time = opt.get_double("stream", -1.0);
    write_instance_file(out, make_greedy_killer(cfg).instance);
  } else {
    std::cerr << "gen: unknown kind " << kind << "\n";
    return 2;
  }
  std::cout << "wrote " << out << "\n";
  return 0;
}

int cmd_run(const Options& opt) {
  const std::string path = opt.get("instance", "");
  if (path.empty()) {
    std::cerr << "run: --instance=FILE is required\n";
    return 2;
  }
  const Instance inst = read_instance_file(path);
  auto sched = make_scheduler(opt.get("policy", "isrpt"));
  EngineConfig ec;
  ec.speed = opt.get_double("speed", 1.0);
  AllocationTrace trace;
  std::vector<Observer*> observers;
  const bool want_trace = opt.has("trace") || opt.get_bool("gantt", false);
  if (want_trace) observers.push_back(&trace);
  const SimResult r = simulate(inst, *sched, ec, observers);

  std::cout << sched->name() << " on " << inst.size() << " jobs / "
            << inst.machines() << " machines (P=" << inst.P()
            << ", speed=" << ec.speed << ")\n"
            << "  total flow    " << r.total_flow << "\n"
            << "  weighted flow " << r.weighted_flow << "\n"
            << "  avg / max     " << r.avg_flow() << " / " << r.max_flow()
            << "\n"
            << "  makespan      " << r.makespan << "\n"
            << "  OPT lower bnd " << opt_lower_bound(inst) << "\n";
  if (opt.get_bool("gantt", false)) {
    std::cout << "\n";
    trace.render_gantt(std::cout,
                       static_cast<int>(opt.get_int("width", 72)));
  }
  if (opt.has("trace")) {
    const std::string tpath = opt.get("trace", "trace.csv");
    trace.write_csv(tpath);
    std::cout << "allocation segments written to " << tpath << "\n";
  }
  return 0;
}

int cmd_trace(const Options& opt) {
  const std::string path = opt.get("instance", "");
  if (path.empty()) {
    std::cerr << "trace: --instance=FILE is required\n";
    return 2;
  }
  const Instance inst = read_instance_file(path);
  auto sched = make_scheduler(opt.get("policy", "isrpt"));

  EngineConfig ec;
  ec.speed = opt.get_double("speed", 1.0);
  ec.collect_stats = true;  // the trace view wants the phase breakdown

  obs::TraceExporter::Config tc;
  tc.decision_instants = !opt.get_bool("no-decisions", false);
  obs::TraceExporter exporter(tc);
  const SimResult r = simulate(inst, *sched, ec, {&exporter});

  const std::string out = opt.get("out", "trace.json");
  exporter.write_chrome_trace(out);
  std::cout << sched->name() << " on " << inst.size() << " jobs / "
            << inst.machines() << " machines\n"
            << "Chrome trace written to " << out
            << " (open in https://ui.perfetto.dev or chrome://tracing)\n";
  if (opt.has("jsonl")) {
    const std::string jsonl = opt.get("jsonl", "trace.jsonl");
    exporter.write_jsonl(jsonl);
    std::cout << "JSONL event log written to " << jsonl << "\n";
  }
  if (exporter.dropped() > 0) {
    std::cout << "warning: " << exporter.dropped()
              << " events dropped past the exporter cap\n";
  }
  if (r.stats.has_value()) {
    const obs::RunStats& s = *r.stats;
    std::cout << "engine profile: wall " << s.wall_seconds << "s = decide "
              << s.decide_seconds << "s + solver " << s.solver_seconds
              << "s + observers " << s.observer_seconds << "s ("
              << s.decisions << " decisions, mean alive "
              << s.alive_count.mean() << ")\n";
    std::cout << "solver split: rates " << s.rates_seconds << "s + advance "
              << s.advance_seconds << "s + heap upkeep "
              << s.heap_upkeep_seconds << "s + completion "
              << s.completion_seconds << "s + admit " << s.admit_seconds
              << "s\n";
  }
  return 0;
}

int cmd_compare(const Options& opt) {
  const std::string path = opt.get("instance", "");
  if (path.empty()) {
    std::cerr << "compare: --instance=FILE is required\n";
    return 2;
  }
  const Instance inst = read_instance_file(path);
  std::vector<std::string> policies = standard_policy_names();
  if (opt.has("policies")) {
    policies.clear();
    std::stringstream ss(opt.get("policies", ""));
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) policies.push_back(tok);
    }
  }
  const double lb = opt_lower_bound(inst);
  Table t({"policy", "total_flow", "avg_flow", "max_flow", "vs_LB"}, 3);
  double best = 0.0;
  std::string best_name;
  for (const auto& name : policies) {
    auto sched = make_scheduler(name);
    const SimResult r = simulate(inst, *sched);
    if (best_name.empty() || r.total_flow < best) {
      best = r.total_flow;
      best_name = sched->name();
    }
    t.add_row({sched->name(), r.total_flow, r.avg_flow(), r.max_flow(),
               r.total_flow / lb});
  }
  std::cout << t;
  std::cout << "best feasible: " << best_name << " (" << best
            << "); provable OPT lower bound: " << lb << "\n"
            << "=> OPT lies in [" << lb << ", " << best << "]\n";
  if (opt.get_bool("search", false)) {
    std::cout << "running priority-list local search...\n";
    const SearchResult sr = local_search_opt(inst, 2000, 1);
    std::cout << "local search best: " << sr.best_flow << " ("
              << sr.evaluations << " evaluations)\n";
  }
  return 0;
}

int cmd_bound(const Options& opt) {
  const std::string path = opt.get("instance", "");
  if (path.empty()) {
    std::cerr << "bound: --instance=FILE is required\n";
    return 2;
  }
  const Instance inst = read_instance_file(path);
  std::cout << "speed-m SRPT relaxation: " << srpt_speed_m_lower_bound(inst)
            << "\n"
            << "per-job span bound:      " << span_lower_bound(inst) << "\n"
            << "weighted span bound:     " << weighted_span_lower_bound(inst)
            << "\n"
            << "combined (flow):         " << opt_lower_bound(inst) << "\n";
  return 0;
}

// The periodic metrics emitter behind `serve --stats-interval`: a
// background thread appending schema-versioned snapshot lines (see
// obs::metrics_snapshot_header for the JSONL shape) until told to stop.
// Sleeps in short hops so shutdown latency stays well under a second
// regardless of the interval, and always writes one final snapshot so
// even a run shorter than the interval records something.
class StatsEmitter {
 public:
  StatsEmitter(std::string path, double interval)
      : path_(std::move(path)), interval_(interval) {
    thread_ = std::thread([this] { run(); });  // lint: thread-ok
  }

  ~StatsEmitter() {
    stop_.store(true, std::memory_order_release);
    thread_.join();  // lint: thread-ok
  }

  StatsEmitter(const StatsEmitter&) = delete;
  StatsEmitter& operator=(const StatsEmitter&) = delete;

 private:
  void run() {
    auto out = open_output(path_, "metrics snapshots");
    out << obs::metrics_snapshot_header(interval_) << '\n';
    std::uint64_t seq = 0;
    double next = obs::monotonic_seconds() + interval_;
    while (!stop_.load(std::memory_order_acquire)) {
      timespec hop{0, 50 * 1000 * 1000};  // 50ms
      nanosleep(&hop, nullptr);
      const double now = obs::monotonic_seconds();
      if (now < next) continue;
      next = now + interval_;
      out << obs::metrics_snapshot_line(
                 obs::MetricsRegistry::global().snapshot(), seq++, now)
          << '\n';
      out.flush();  // scrape-able while the server is still up
    }
    out << obs::metrics_snapshot_line(
               obs::MetricsRegistry::global().snapshot(), seq++,
               obs::monotonic_seconds())
        << '\n';
    finish_output(out, path_);
  }

  std::string path_;
  double interval_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // lint: thread-ok
};

// The online service: NDJSON requests over stdin/stdout or a Unix
// socket, sessions multiplexed over the exec pool. Blocks until a
// client sends {"op":"shutdown"} (or stdin reaches EOF). A flight
// recorder is always attached (so the `dump` verb answers); its
// capacity and crash-dump path are tunable.
int cmd_serve(const Options& opt) {
  const bool stdio = opt.get_bool("stdio", false);
  const std::string socket_path = opt.get("socket", "");
  if (stdio == !socket_path.empty()) {
    std::cerr << "serve: exactly one of --stdio or --socket=PATH is "
                 "required\n";
    return usage();
  }
  serve::Cluster::Config cfg;
  cfg.shards = static_cast<int>(opt.get_int("shards", 1));
  cfg.threads_per_shard = static_cast<int>(opt.get_int("threads", 0));
  cfg.max_sessions =
      static_cast<std::size_t>(opt.get_int("max-sessions", 64));
  cfg.max_queue = static_cast<std::size_t>(opt.get_int("max-queue", 128));
  cfg.metrics = &obs::MetricsRegistry::global();

  obs::FlightRecorder recorder(
      static_cast<std::size_t>(opt.get_int("flight-capacity", 4096)));
  if (opt.has("flight-dump")) {
    recorder.set_dump_path(opt.get("flight-dump", "flight.jsonl"));
  }
  cfg.recorder = &recorder;

  std::optional<StatsEmitter> emitter;
  const double stats_interval = opt.get_double("stats-interval", 0.0);
  if (stats_interval > 0.0) {
    emitter.emplace(opt.get("stats-out", "serve_stats.jsonl"),
                    stats_interval);
  }

  serve::ProtocolHandler handler(cfg);
  if (stdio) {
    serve_stdio(handler);
  } else {
    std::cerr << "serve: listening on " << socket_path << " ("
              << cfg.shards << " shard" << (cfg.shards == 1 ? "" : "s")
              << ")\n";
    serve_unix_socket(handler, socket_path);
  }
  return 0;
}

// The soak client: N concurrent sessions replaying seeded arrival
// streams against a running server. Exit is nonzero when any session
// hit a protocol error — rejections (backpressure) are retried and do
// not fail the run.
int cmd_loadgen(const Options& opt) {
  serve::LoadgenConfig cfg;
  cfg.socket_path = opt.get("socket", "");
  if (cfg.socket_path.empty()) {
    std::cerr << "loadgen: --socket=PATH is required\n";
    return usage();
  }
  cfg.sessions = static_cast<int>(opt.get_int("sessions", 8));
  cfg.admissions = static_cast<int>(opt.get_int("admissions", 200));
  cfg.rate = opt.get_double("rate", 64.0);
  cfg.advance_every = static_cast<int>(opt.get_int("advance-every", 16));
  cfg.policy = opt.get("policy", "equi");
  cfg.machines = static_cast<int>(opt.get_int("machines", 4));
  cfg.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  cfg.stats_every = static_cast<int>(opt.get_int("stats-every", 0));
  cfg.shutdown_after = opt.get_bool("shutdown", false);
  cfg.shape = serve::parse_load_shape(opt.get("shape", "uniform"));
  cfg.zipf_theta = opt.get_double("zipf-theta", 1.0);
  cfg.burst_per = static_cast<int>(opt.get_int("burst-per", 32));
  cfg.diurnal_peak = opt.get_double("diurnal-peak", 4.0);
  cfg.workers = static_cast<int>(opt.get_int("workers", 0));
  cfg.binary = opt.get_bool("binary", false);
  cfg.metrics = &obs::MetricsRegistry::global();
  const std::string report_name =
      opt.get("report-name", "serve_loadgen");

  const serve::LoadgenResult r = serve::run_loadgen(cfg);

  std::cout << "loadgen: " << r.sessions.size() << "/" << cfg.sessions
            << " sessions finished, " << r.requests << " requests ("
            << r.rejects << " rejected+retried, " << r.errors
            << " errors) in " << r.wall_seconds << "s\n"
            << "  shape " << serve::load_shape_name(cfg.shape) << ", "
            << r.shards << " shard(s), "
            << (cfg.binary ? "PBIN" : "NDJSON") << " wire\n"
            << "  jobs completed " << r.jobs_completed() << "\n"
            << "  total flow     " << r.total_flow() << "\n";

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const obs::MetricSample* lat = snap.find("serve.client.latency_ms");
  if (lat != nullptr && lat->histogram.total > 0) {
    const obs::HistogramData& h = lat->histogram;
    std::cout << "  latency ms     p50 " << h.quantile(0.5) << " / p95 "
              << h.quantile(0.95) << " / p99 " << h.quantile(0.99)
              << " / mean " << h.mean() << " (" << h.total
              << " samples)\n";
  }
  if (r.stats_scrapes > 0) {
    std::cout << "  stats scrapes  " << r.stats_scrapes << "\n";
  }

  if (obs::report_enabled()) {
    obs::BenchReport report(report_name);
    const bool cluster_report = report_name == "serve_cluster";
    if (cluster_report) {
      // One fleet-aggregate run: sums and maxes over the sessions, so
      // the report stays small at 10^3+ sessions and the determinism
      // gate (totals independent of workers and wire protocol) has a
      // single row to pin.
      obs::RunReport run;
      run.policy = cfg.policy;
      run.machines = cfg.machines;
      run.jobs = r.jobs_completed();
      run.total_flow = r.total_flow();
      for (const serve::SessionOutcome& s : r.sessions) {
        run.weighted_flow += s.weighted_flow;
        run.fractional_flow += s.fractional_flow;
        run.makespan = std::max(run.makespan, s.makespan);
        run.decisions += s.decisions;
        run.events += s.events;
      }
      run.wall_seconds = r.wall_seconds;
      report.add_run(std::move(run));
    } else {
      for (const serve::SessionOutcome& s : r.sessions) {
        obs::RunReport run;
        run.policy = cfg.policy;
        run.jobs = s.jobs;
        run.machines = cfg.machines;
        run.total_flow = s.total_flow;
        run.weighted_flow = s.weighted_flow;
        run.fractional_flow = s.fractional_flow;
        run.makespan = s.makespan;
        run.decisions = s.decisions;
        run.events = s.events;
        run.wall_seconds = s.wall_seconds;
        report.add_run(std::move(run));
      }
    }
    report.set_meta("sessions", static_cast<double>(cfg.sessions));
    report.set_meta("admissions", static_cast<double>(cfg.admissions));
    report.set_meta("rate", cfg.rate);
    report.set_meta("seed", static_cast<double>(cfg.seed));
    report.set_meta("requests", static_cast<double>(r.requests));
    report.set_meta("rejects", static_cast<double>(r.rejects));
    report.set_meta("errors", static_cast<double>(r.errors));
    report.set_meta("stats_scrapes", static_cast<double>(r.stats_scrapes));
    report.set_meta("shape", serve::load_shape_name(cfg.shape));
    report.set_meta("shards", static_cast<double>(r.shards));
    report.set_meta("workers", static_cast<double>(cfg.workers));
    report.set_meta("wire", cfg.binary ? "pbin" : "ndjson");
    if (lat != nullptr && lat->histogram.total > 0) {
      const obs::HistogramData& h = lat->histogram;
      Table lt({"metric", "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms"},
               4);
      lt.add_row({"client_latency", static_cast<double>(h.total), h.mean(),
                  h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)});
      report.add_table("client_latency", lt);
    }
    if (cluster_report) {
      // Exact (nearest-rank) quantiles from the raw samples — the
      // histogram above is bucketed, too coarse for a p99 gate.
      Table cl({"metric", "count", "p50_ms", "p95_ms", "p99_ms"}, 4);
      cl.add_row({"latency",
                  static_cast<double>(r.latencies_ms.size()),
                  r.latency_quantile_ms(0.5), r.latency_quantile_ms(0.95),
                  r.latency_quantile_ms(0.99)});
      report.add_table("cluster_latency", cl);

      const double wall = r.wall_seconds > 0.0 ? r.wall_seconds : 1.0;
      Table tp({"metric", "sessions", "shards", "requests",
                "requests_per_sec", "jobs_per_sec"},
               4);
      tp.add_row({"throughput", static_cast<double>(cfg.sessions),
                  static_cast<double>(r.shards),
                  static_cast<double>(r.requests),
                  static_cast<double>(r.requests) / wall,
                  static_cast<double>(r.jobs_completed()) / wall});
      report.add_table("cluster_throughput", tp);
    }
    report.set_metrics(snap);
    report.write(obs::report_path(report_name));
    std::cout << "loadgen report written to "
              << obs::report_path(report_name) << "\n";
  }
  return r.errors == 0 ? 0 : 1;
}

// Administrative one-shots against a live server: each positional
// argument is sent as one NDJSON request line over the socket and the
// response is echoed to stdout. Exit is nonzero when any response is
// not ok — so CI can `parsched ctl --socket=S '{"op":"evacuate",...}'`
// and fail the leg if the migration did not happen.
int cmd_ctl(const Options& opt) {
  const std::string socket_path = opt.get("socket", "");
  if (socket_path.empty() || opt.positional().empty()) {
    std::cerr << "ctl: --socket=PATH and at least one JSON request are "
                 "required\n";
    return usage();
  }
  serve::Client client(socket_path, opt.get_double("timeout", 10.0));
  bool all_ok = true;
  for (const std::string& line : opt.positional()) {
    const std::string resp = client.request(line);
    std::cout << resp << "\n";
    obs::JsonValue v;
    std::string err;
    all_ok = all_ok && obs::json_parse(resp, v, &err) &&
             v.bool_or("ok", false);
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  Options opt(argc - 1, argv + 1);
  try {
    if (command == "gen") return cmd_gen(opt);
    if (command == "run") return cmd_run(opt);
    if (command == "trace") return cmd_trace(opt);
    if (command == "compare") return cmd_compare(opt);
    if (command == "bound") return cmd_bound(opt);
    if (command == "sweep") return cmd_sweep(opt);
    if (command == "serve") return cmd_serve(opt);
    if (command == "loadgen") return cmd_loadgen(opt);
    if (command == "ctl") return cmd_ctl(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "parsched: unknown command '" << command << "'\n";
  return usage();
}
