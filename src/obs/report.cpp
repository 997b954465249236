#include "obs/report.hpp"

#include <filesystem>
#include <sstream>

#include "obs/json.hpp"
#include "util/env.hpp"
#include "util/fsio.hpp"
#include "util/table.hpp"

namespace parsched::obs {

bool report_enabled() { return env::get_flag("PARSCHED_REPORT"); }

std::string report_path(const std::string& slug) {
  std::string dir = env::get_string("PARSCHED_REPORT_DIR");
  if (!dir.empty()) {
    // Create the directory on first use so a fresh checkout (or a CI
    // step pointing at a scratch path) does not fail its first
    // open_output with a confusing "cannot open" error.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      throw std::runtime_error("cannot create PARSCHED_REPORT_DIR '" +
                               dir + "': " + ec.message());
    }
    if (dir.back() != '/') dir += '/';
  }
  return dir + "BENCH_" + slug + ".json";
}

RunReport RunReport::from_result(std::string policy, int machines,
                                 const SimResult& result,
                                 double wall_seconds) {
  RunReport r;
  r.policy = std::move(policy);
  r.jobs = result.jobs();
  r.machines = machines;
  r.total_flow = result.total_flow;
  r.weighted_flow = result.weighted_flow;
  r.fractional_flow = result.fractional_flow;
  r.makespan = result.makespan;
  r.decisions = result.decisions;
  r.events = result.events;
  r.wall_seconds = wall_seconds;
  r.stats = result.stats;
  return r;
}

void BenchReport::set_meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

void BenchReport::set_meta(const std::string& key, double value) {
  meta_.emplace_back(key, value);
}

void BenchReport::add_table(const std::string& table_name,
                            const Table& table) {
  TableDump dump;
  dump.name = table_name;
  dump.columns = table.headers();
  dump.rows = table.cell_rows();
  tables_.push_back(std::move(dump));
}

namespace {

void write_histogram(JsonWriter& w, const HistogramData& h) {
  w.begin_object();
  w.key("bounds").begin_array();
  for (const double b : h.bounds) w.value(b);
  w.end_array();
  w.key("counts").begin_array();
  for (const std::uint64_t c : h.counts) w.value(c);
  w.end_array();
  w.kv("total", h.total);
  w.kv("sum", h.sum);
  // The schema-2 addition: bucket-interpolated tail quantiles, so report
  // consumers get p50/p90/p99 without re-deriving them from the buckets.
  const HistogramData::Summary s = h.summary();
  w.kv("p50", s.p50);
  w.kv("p90", s.p90);
  w.kv("p99", s.p99);
  w.end_object();
}

void write_run_stats(JsonWriter& w, const RunStats& s) {
  w.begin_object();
  w.kv("wall_seconds", s.wall_seconds);
  w.kv("decide_seconds", s.decide_seconds);
  w.kv("solver_seconds", s.solver_seconds);
  w.kv("observer_seconds", s.observer_seconds);
  w.kv("rates_seconds", s.rates_seconds);
  w.kv("advance_seconds", s.advance_seconds);
  w.kv("heap_upkeep_seconds", s.heap_upkeep_seconds);
  w.kv("completion_seconds", s.completion_seconds);
  w.kv("admit_seconds", s.admit_seconds);
  w.kv("decisions", s.decisions);
  w.kv("arrivals", s.arrivals);
  w.kv("completions", s.completions);
  w.key("decision_interval");
  write_histogram(w, s.decision_interval);
  w.key("alive_count");
  write_histogram(w, s.alive_count);
  w.end_object();
}

void write_run(JsonWriter& w, const RunReport& r) {
  w.begin_object();
  w.kv("policy", r.policy);
  w.kv("jobs", static_cast<std::uint64_t>(r.jobs));
  w.kv("machines", r.machines);
  w.kv("total_flow", r.total_flow);
  w.kv("weighted_flow", r.weighted_flow);
  w.kv("fractional_flow", r.fractional_flow);
  w.kv("makespan", r.makespan);
  w.kv("decisions", r.decisions);
  w.kv("events", r.events);
  w.kv("wall_seconds", r.wall_seconds);
  w.key("stats");
  if (r.stats.has_value()) {
    write_run_stats(w, *r.stats);
  } else {
    w.null();
  }
  w.end_object();
}

void write_metric(JsonWriter& w, const MetricSample& s) {
  w.begin_object();
  w.kv("name", s.name);
  switch (s.kind) {
    case MetricSample::Kind::kCounter:
      w.kv("kind", "counter").kv("value", s.value);
      break;
    case MetricSample::Kind::kGauge:
      w.kv("kind", "gauge").kv("value", s.value);
      break;
    case MetricSample::Kind::kTimer:
      w.kv("kind", "timer").kv("seconds", s.value).kv("count", s.count);
      break;
    case MetricSample::Kind::kHistogram:
      w.kv("kind", "histogram");
      w.key("histogram");
      write_histogram(w, s.histogram);
      break;
  }
  w.end_object();
}

}  // namespace

std::string metrics_snapshot_header(double interval_seconds) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("ev", "header");
  w.kv("kind", "parsched-metrics-snapshot");
  w.kv("schema", std::int64_t{1});
  w.kv("interval_seconds", interval_seconds);
  w.end_object();
  return os.str();
}

std::string metrics_snapshot_line(const MetricsSnapshot& snap,
                                  std::uint64_t seq, double t) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("ev", "snapshot");
  w.kv("seq", seq);
  w.kv("t", t);
  w.key("metrics").begin_array();
  for (const MetricSample& s : snap.samples) write_metric(w, s);
  w.end_array();
  w.end_object();
  return os.str();
}

std::string BenchReport::to_json() const {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.begin_object();
  w.kv("schema", std::int64_t{2});
  w.kv("kind", "parsched-bench-report");
  w.kv("name", name_);
  w.key("meta").begin_object();
  for (const auto& [key, value] : meta_) {
    w.key(key);
    if (const auto* s = std::get_if<std::string>(&value)) {
      w.value(*s);
    } else {
      w.value(std::get<double>(value));
    }
  }
  w.end_object();
  w.key("runs").begin_array();
  for (const RunReport& r : runs_) write_run(w, r);
  w.end_array();
  w.key("tables").begin_array();
  for (const TableDump& t : tables_) {
    w.begin_object();
    w.kv("name", t.name);
    w.key("columns").begin_array();
    for (const std::string& c : t.columns) w.value(c);
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : t.rows) {
      w.begin_array();
      for (const auto& cell : row) {
        if (const auto* s = std::get_if<std::string>(&cell)) {
          w.value(*s);
        } else if (const auto* i = std::get_if<std::int64_t>(&cell)) {
          w.value(*i);
        } else {
          w.value(std::get<double>(cell));
        }
      }
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("metrics").begin_array();
  if (metrics_.has_value()) {
    for (const MetricSample& s : metrics_->samples) write_metric(w, s);
  }
  w.end_array();
  w.end_object();
  return os.str();
}

void BenchReport::write(const std::string& path) const {
  auto out = open_output(path, "bench report");
  out << to_json() << '\n';
  finish_output(out, path);
}

}  // namespace parsched::obs
