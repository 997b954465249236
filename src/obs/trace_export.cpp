#include "obs/trace_export.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "util/fsio.hpp"

namespace parsched::obs {

void TraceExporter::on_decision(double t, std::span<const AliveJob> alive,
                                std::span<const double> shares) {
  const double allocated = recorder_.decide(t, alive, shares);
  end_time_ = std::max(end_time_, t);
  if (cfg_.decision_instants && room()) {
    events_.push_back({Event::Kind::kDecision, t, kInvalidJob, 0.0});
  }
  if (room()) {
    counters_.push_back({t, alive.size(), allocated});
  }
}

void TraceExporter::on_arrival(double t, const Job& job) {
  end_time_ = std::max(end_time_, t);
  if (room()) {
    events_.push_back({Event::Kind::kArrival, t, job.id, job.size});
  }
}

void TraceExporter::on_completion(double t, const Job& job) {
  recorder_.complete(t, job.id);
  end_time_ = std::max(end_time_, t);
  if (room()) {
    events_.push_back({Event::Kind::kCompletion, t, job.id, 0.0});
  }
}

void TraceExporter::on_done(double t) {
  recorder_.done(t);
  end_time_ = std::max(end_time_, t);
}

void TraceExporter::write_chrome_trace(const std::string& path) const {
  auto out = open_output(path, "Chrome trace output");
  JsonWriter w(out, 0);
  const double scale = cfg_.time_scale;
  const std::int64_t pid = 1;

  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData").begin_object();
  w.kv("tool", "parsched");
  w.kv("schema", std::int64_t{1});
  w.kv("dropped_events", dropped_);
  w.end_object();
  w.key("traceEvents").begin_array();

  auto meta = [&](std::int64_t tid, std::string_view name) {
    w.begin_object();
    w.kv("name", "thread_name").kv("ph", "M").kv("pid", pid).kv("tid", tid);
    w.key("args").begin_object().kv("name", name).end_object();
    w.end_object();
  };

  w.begin_object();
  w.kv("name", "process_name").kv("ph", "M").kv("pid", pid);
  w.key("args").begin_object().kv("name", "parsched run").end_object();
  w.end_object();
  meta(0, "engine");

  // Job tracks: tid = job id + 1 (tid 0 is the engine's decision track).
  std::vector<JobId> job_ids;
  for (const Segment& s : segments()) job_ids.push_back(s.job);
  std::sort(job_ids.begin(), job_ids.end());
  job_ids.erase(std::unique(job_ids.begin(), job_ids.end()), job_ids.end());
  for (const JobId id : job_ids) {
    meta(static_cast<std::int64_t>(id) + 1, "job " + std::to_string(id));
  }

  // Allocation segments as complete ("X") events on the job's track.
  for (const Segment& s : segments()) {
    w.begin_object();
    // Built via append: GCC 12's -Werror=restrict misfires on
    // operator+(const char*, std::string&&) here.
    std::string label = "x";
    label += json_number(s.share);
    w.kv("name", label);
    w.kv("ph", "X").kv("pid", pid);
    w.kv("tid", static_cast<std::int64_t>(s.job) + 1);
    w.kv("ts", s.t0 * scale);
    w.kv("dur", (s.t1 - s.t0) * scale);
    w.key("args").begin_object().kv("share", s.share).end_object();
    w.end_object();
  }

  // Instant events: arrivals/completions on the job track, decisions on
  // the engine track.
  for (const Event& e : events_) {
    w.begin_object();
    switch (e.kind) {
      case Event::Kind::kArrival:
        w.kv("name", "arrival").kv("ph", "i").kv("s", "t");
        w.kv("pid", pid).kv("tid", static_cast<std::int64_t>(e.job) + 1);
        w.kv("ts", e.t * scale);
        w.key("args").begin_object().kv("size", e.size).end_object();
        break;
      case Event::Kind::kCompletion:
        w.kv("name", "completion").kv("ph", "i").kv("s", "t");
        w.kv("pid", pid).kv("tid", static_cast<std::int64_t>(e.job) + 1);
        w.kv("ts", e.t * scale);
        break;
      case Event::Kind::kDecision:
        w.kv("name", "decision").kv("ph", "i").kv("s", "t");
        w.kv("pid", pid).kv("tid", std::int64_t{0});
        w.kv("ts", e.t * scale);
        break;
    }
    w.end_object();
  }

  // Counter ("C") tracks: alive jobs and allocated processors.
  for (const CounterSample& c : counters_) {
    w.begin_object();
    w.kv("name", "alive").kv("ph", "C").kv("pid", pid).kv("ts", c.t * scale);
    w.key("args").begin_object().kv("jobs", c.alive).end_object();
    w.end_object();
    w.begin_object();
    w.kv("name", "utilization").kv("ph", "C").kv("pid", pid);
    w.kv("ts", c.t * scale);
    w.key("args").begin_object().kv("processors", c.allocated).end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  out << '\n';
  finish_output(out, path);
}

void TraceExporter::write_jsonl(const std::string& path) const {
  auto out = open_output(path, "JSONL trace output");
  auto line = [&](auto fill) {
    JsonWriter w(out, 0);
    w.begin_object();
    fill(w);
    w.end_object();
    out << '\n';
  };

  line([&](JsonWriter& w) {
    w.kv("ev", "header").kv("schema", std::int64_t{1});
    w.kv("kind", "parsched-trace");
    w.kv("end_time", end_time_).kv("dropped", dropped_);
  });
  for (const Event& e : events_) {
    line([&](JsonWriter& w) {
      switch (e.kind) {
        case Event::Kind::kArrival:
          w.kv("ev", "arrival").kv("t", e.t).kv("job", e.job);
          w.kv("size", e.size);
          break;
        case Event::Kind::kCompletion:
          w.kv("ev", "completion").kv("t", e.t).kv("job", e.job);
          break;
        case Event::Kind::kDecision:
          w.kv("ev", "decision").kv("t", e.t);
          break;
      }
    });
  }
  for (const CounterSample& c : counters_) {
    line([&](JsonWriter& w) {
      w.kv("ev", "counters").kv("t", c.t).kv("alive", c.alive);
      w.kv("allocated", c.allocated);
    });
  }
  for (const Segment& s : segments()) {
    line([&](JsonWriter& w) {
      w.kv("ev", "segment").kv("job", s.job).kv("t0", s.t0).kv("t1", s.t1);
      w.kv("share", s.share);
    });
  }
  finish_output(out, path);
}

}  // namespace parsched::obs
