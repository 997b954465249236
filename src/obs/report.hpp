// parsched — machine-readable run and bench reports.
//
// Observability pillar 3. A RunReport captures one (policy, instance)
// simulation — flow metrics, decision counts, wall time, and the optional
// RunStats profiling buckets. A BenchReport aggregates RunReports, result
// tables, free-form metadata, and a MetricsRegistry snapshot, and writes
// them to a stable versioned JSON schema:
//
//   {
//     "schema": 2,
//     "kind": "parsched-bench-report",
//     "name": "<bench slug>",
//     "meta": { "<key>": "<string>" | <number>, ... },
//     "runs": [ { "policy": ..., "jobs": ..., "machines": ...,
//                 "total_flow": ..., "decisions": ..., "wall_seconds": ...,
//                 "stats": { "decide_seconds": ..., "solver_seconds": ...,
//                            "observer_seconds": ..., "wall_seconds": ...,
//                            "rates_seconds": ..., "advance_seconds": ...,
//                            "heap_upkeep_seconds": ...,
//                            "completion_seconds": ...,
//                            "admit_seconds": ...,
//                            "decision_interval": {histogram},
//                            "alive_count": {histogram} } | null, ... } ],
//     "tables": [ { "name": ..., "columns": [...], "rows": [[...]] } ],
//     "metrics": [ { "name": ..., "kind": ..., ... } ]
//   }
//
// A histogram serializes as {"bounds": [...], "counts": [...],
// "total": n, "sum": x, "p50": q, "p90": q, "p99": q}; counts has one
// trailing +inf bucket and the quantiles are the bucket-interpolated
// estimates of HistogramData::summary(). (Schema history: 1 had no
// quantile keys — the version bump to 2 is exactly their addition, so a
// schema-2 reader can still consume schema-1 payloads by treating the
// quantiles as absent.)
//
// Reporting is opt-in via the environment (PARSCHED_REPORT=1); benches
// call report_enabled() / report_path("<slug>") and write
// BENCH_<slug>.json next to their CSV — the artifacts that seed the
// perf trajectory.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/run_stats.hpp"
#include "simcore/result.hpp"

namespace parsched {
class Table;  // util/table.hpp
}  // namespace parsched

namespace parsched::obs {

/// True when PARSCHED_REPORT is set to a non-empty, non-"0" value.
[[nodiscard]] bool report_enabled();

/// "BENCH_<slug>.json", under $PARSCHED_REPORT_DIR when set (created,
/// parents included, if missing), else the current directory. Throws
/// std::runtime_error when the directory cannot be created.
[[nodiscard]] std::string report_path(const std::string& slug);

/// JSONL metrics-snapshot stream (the `parsched serve --stats-interval`
/// payload; tools/validate_report.py knows the shape). The stream is one
/// header line followed by one snapshot line per scrape:
///
///   {"ev": "header", "kind": "parsched-metrics-snapshot", "schema": 1,
///    "interval_seconds": 2.5}
///   {"ev": "snapshot", "seq": 0, "t": <monotonic_seconds>,
///    "metrics": [ { "name": ..., "kind": ..., ... } ]}   (sorted by name)
///
/// Both lines are compact single-line JSON without a trailing newline.
[[nodiscard]] std::string metrics_snapshot_header(double interval_seconds);
[[nodiscard]] std::string metrics_snapshot_line(const MetricsSnapshot& snap,
                                                std::uint64_t seq, double t);

/// One simulated (policy, instance) measurement.
struct RunReport {
  std::string policy;
  std::size_t jobs = 0;
  int machines = 0;
  double total_flow = 0.0;
  double weighted_flow = 0.0;
  double fractional_flow = 0.0;
  double makespan = 0.0;
  std::uint64_t decisions = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  std::optional<RunStats> stats;  ///< copied from SimResult::stats

  /// Build from a finished simulation. `wall_seconds` is the caller's
  /// end-to-end measurement (monotonic_seconds() around the run); pass 0
  /// when untimed.
  static RunReport from_result(std::string policy, int machines,
                               const SimResult& result,
                               double wall_seconds = 0.0);
};

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void add_run(RunReport run) { runs_.push_back(std::move(run)); }
  void set_meta(const std::string& key, const std::string& value);
  void set_meta(const std::string& key, double value);
  /// Embed a result table (columns + typed rows).
  void add_table(const std::string& table_name, const Table& table);
  /// Attach a registry snapshot (serialized under "metrics").
  void set_metrics(MetricsSnapshot snapshot) {
    metrics_ = std::move(snapshot);
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<RunReport>& runs() const { return runs_; }

  /// Serialize to `path`; throws on open/write failure.
  void write(const std::string& path) const;

  /// Serialize to a string (tests, logging).
  [[nodiscard]] std::string to_json() const;

 private:
  struct TableDump {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<std::variant<std::string, std::int64_t,
                                         double>>>
        rows;
  };

  std::string name_;
  std::vector<std::pair<std::string,
                        std::variant<std::string, double>>>
      meta_;
  std::vector<RunReport> runs_;
  std::vector<TableDump> tables_;
  std::optional<MetricsSnapshot> metrics_;
};

}  // namespace parsched::obs
