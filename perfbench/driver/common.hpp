// Shared plumbing of the benchmark driver: options, the result report,
// clocks and percentiles, the committed-reference files, and the two
// probes the traced runs attach from outside the library — a forwarding
// Scheduler that times allocate(), and an Observer that counts the
// engine's work.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/observer.hpp"
#include "simcore/scheduler.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;            ///< self-test scale
  std::string reference;        ///< committed reference file
  bool write_reference = false; ///< regenerate `reference` and exit
  std::string scratch_dir = ".";  ///< where serve_fleet puts its socket
};

/// A correctness check failed: the run reports correct=false and exits 1.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure with `what` unless `ok`.
void check(bool ok, const std::string& what);

[[nodiscard]] double now_s();

/// Linear interpolation between closest ranks (numpy's default); q in
/// [0, 1]. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// The same over an already sorted sample, without a copy.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double q);
[[nodiscard]] double median(const std::vector<double>& v);

[[nodiscard]] double peak_rss_mb();

/// Doubles as C99 hex-float text, so a reference round-trips bit for bit.
[[nodiscard]] std::string hexd(double v);
[[nodiscard]] double parse_hexd(const std::string& s);

/// A committed reference: one record per line, `key v1 v2 ...`, values
/// in hex-float text. `#` lines are comments.
class Reference {
 public:
  static Reference load(const std::string& path);
  void set(const std::string& key, std::vector<double> values);
  /// Throws CheckFailure unless `key` is present with exactly `values`.
  void expect(const std::string& key, const std::vector<double>& values) const;
  void save(const std::string& path, const std::string& header) const;

 private:
  std::map<std::string, std::vector<double>> rows_;
};

/// Result of one run: the metrics printed as the final JSON line, plus
/// human-readable lines (sample counts, machine facts) printed before it.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  void print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Forwarding Scheduler: timestamps every allocate() entry (the dense
/// workloads' step clock) and, when `time_calls`, accumulates the time
/// spent inside the wrapped policy.
class TimedScheduler final : public parsched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<parsched::Scheduler> inner, bool time_calls,
                 std::vector<double>* entries = nullptr)
      : inner_(std::move(inner)), time_calls_(time_calls), entries_(entries) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void allocate(const parsched::SchedulerContext& ctx,
                parsched::Allocation& out) override;
  void reset() override { inner_->reset(); }

  [[nodiscard]] double busy_s() const { return busy_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  std::unique_ptr<parsched::Scheduler> inner_;
  bool time_calls_;
  std::vector<double>* entries_;
  double busy_ = 0.0;
  std::uint64_t calls_ = 0;
};

/// Counting Observer for traced runs: decisions, the alive population
/// each decision hands the rate kernel, and how many of those shares
/// exceed 1 (the only ones whose power-law rate needs pow()). It also
/// keeps a copy of the largest decision population seen, which the
/// rate_batch replay runs on. Its own time is accumulated in `busy_s`.
class CountingObserver final : public parsched::Observer {
 public:
  void on_decision(double t, std::span<const parsched::AliveJob> alive,
                   std::span<const double> shares) override;

  std::uint64_t decisions = 0;
  std::uint64_t rate_elems = 0;
  std::uint64_t pow_elems = 0;
  double busy_s = 0.0;
  // Captured population (kernel input arrays).
  std::vector<std::uint8_t> kinds;
  std::vector<double> alphas;
  std::vector<double> shares;
};

/// Replays speedup::rate_batch over a captured population until at least
/// `min_seconds` have passed; returns ns per element (0 when empty).
[[nodiscard]] double replay_rate_batch(const CountingObserver& obs,
                                       double min_seconds);

/// Declares every per-layer metric at 0 so each traced run emits the full
/// set; a workload overwrites the layers it exercises. 0 therefore means
/// "this workload does not reach the layer".
void declare_layer_metrics(Report& r);

/// Engine counts and kernel figures of a traced section; `events` is the
/// engines' own SimResult::events total.
void report_engine_counts(Report& r, const CountingObserver& obs,
                          std::uint64_t events, double ns_per_elem);

/// The fastest repeat of each unit of a timed run that repeats identical
/// units of work (grid cells, decision steps, serve requests).
///
/// On a shared host, neighbours slow a run in stretches of seconds: the
/// same serve rounds ran at ~85k and ~150k requests/s seconds apart, and
/// whole-run medians of the simulation workloads moved by 20% between
/// sets of runs. Interference only ever adds time, so the fastest of a
/// unit's repeats is the steadiest measure of the code itself, and every
/// timed figure is computed from these per-unit minimums.
class FastestRepeat {
 public:
  explicit FastestRepeat(std::size_t units)
      : best_(units, -1.0), repeats_(units, 0) {}
  void add(std::size_t unit, double ms);
  /// The fastest time of every unit timed at least once.
  [[nodiscard]] std::vector<double> best() const;
  /// Fewest repeats of any unit timed at least once.
  [[nodiscard]] std::size_t fewest_repeats() const;

 private:
  std::vector<double> best_;
  std::vector<std::size_t> repeats_;
};

/// Confines the calling thread to `cpu`; threads it starts inherit that.
bool pin_thread_to(int cpu);

/// Moves the calling thread round-robin over the CPUs of its affinity
/// mask at construction, one CPU per next(); the destructor restores the
/// mask.
///
/// On the shared 4-vCPU host the benchmark was sized on, each vCPU
/// switches between a fast state and one ~1.9x slower, independently of
/// the others, in stretches of 0.1-2 s (a fixed loop pinned to each CPU
/// in turn). A thread left on one CPU can sit in its slow state for a
/// whole unit's repeats; spreading the repeats over every CPU lets the
/// fastest repeat find a fast one.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();
  [[nodiscard]] std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

/// Reports throughput_per_s (given), latency_p50_ms and latency_tail_ms
/// (at `tail_q`) over the units' fastest repeats, with notes naming the
/// units and repeats behind them.
void report_timed(Report& r, double throughput, std::size_t throughput_n,
                  const FastestRepeat& latency, double tail_q);

/// Throughput of back-to-back units: units per second of their fastest
/// repeats.
[[nodiscard]] double sequential_rate(const FastestRepeat& units);

/// One layer's self-time in a traced section.
struct LayerTime {
  std::string name;
  double seconds;
};

/// How far, as a share of the traced wall, the layer split may be off.
constexpr double kLayerTolerance = 0.05;

/// Checks and reports the layer self-times of a traced section. Some are
/// timed directly; others are differences (a total minus the layers
/// inside it, measured in separate passes), so the sum comes close to the
/// wall by construction. What can fail the run: a layer below 0 by more
/// than the tolerance (the layers inside a difference measured more than
/// its total), and a sum off the wall by more than the tolerance. The
/// sum's share of the wall is reported as trace.layer_sum_pct.
void report_layers(Report& r, const std::vector<LayerTime>& layers,
                   double traced_wall_s);

/// Metric-name suffix of a portfolio policy spec ("laps:0.5" -> "laps").
[[nodiscard]] std::string policy_key(const std::string& spec);

int run_repro_grid(const Options& opt, Report& r);
int run_dense(const Options& opt, const std::string& policy, Report& r);
int run_serve_fleet(const Options& opt, Report& r);

}  // namespace perfbench
