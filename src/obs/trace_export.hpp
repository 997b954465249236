// parsched — run telemetry: Chrome trace-event JSON and JSONL logs.
//
// Observability pillar 2. TraceExporter is an Observer that records the
// full schedule — per-job allocation segments, arrival/completion/decision
// events, and per-decision counter samples (alive jobs, allocated
// processors) — and exports it in two machine-readable forms:
//
//   write_chrome_trace()  Chrome trace-event JSON ("JSON Object Format"):
//                         one track (tid) per job built from allocation
//                         segments, instant events for arrivals and
//                         completions, an engine track of decision
//                         instants, and counter tracks for alive count
//                         and utilization. Open it in Perfetto
//                         (https://ui.perfetto.dev) or chrome://tracing.
//
//   write_jsonl()         newline-delimited JSON, one event per line, in
//                         deterministic order — the stable offline-tooling
//                         format (golden-file tested on a fixed seed).
//
// Simulated time is unitless; both exporters scale it by `time_scale`
// (default 1e6, i.e. one sim time unit renders as one second of trace
// time since the trace format counts microseconds).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/segments.hpp"
#include "simcore/observer.hpp"

namespace parsched::obs {

class TraceExporter final : public Observer {
 public:
  struct Config {
    /// Trace-time units (microseconds) per simulated time unit.
    double time_scale = 1e6;
    /// Record a decision instant per decision point (the densest stream;
    /// disable for very long runs).
    bool decision_instants = true;
    /// Hard cap on stored events + counter samples; once reached further
    /// ones are counted in dropped() instead of stored. Allocation
    /// segments are never dropped.
    std::size_t max_events = 1'000'000;
  };

  using Segment = AllocationSegment;

  struct Event {
    enum class Kind : std::uint8_t { kArrival, kCompletion, kDecision };
    Kind kind = Kind::kDecision;
    double t = 0.0;
    JobId job = kInvalidJob;  ///< kInvalidJob for decisions
    double size = 0.0;        ///< arrivals: job size
  };

  /// One per-decision counter sample.
  struct CounterSample {
    double t = 0.0;
    std::uint64_t alive = 0;
    double allocated = 0.0;  ///< sum of shares (processors in use)
  };

  TraceExporter() = default;
  explicit TraceExporter(Config config) : cfg_(config) {}

  void on_decision(double t, std::span<const AliveJob> alive,
                   std::span<const double> shares) override;
  void on_arrival(double t, const Job& job) override;
  void on_completion(double t, const Job& job) override;
  void on_done(double t) override;

  [[nodiscard]] const std::vector<Segment>& segments() const {
    return recorder_.segments();
  }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] const std::vector<CounterSample>& counters() const {
    return counters_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] double end_time() const { return end_time_; }

  /// Write the Chrome trace-event file; throws on open/write failure.
  void write_chrome_trace(const std::string& path) const;

  /// Write the JSONL event log; throws on open/write failure.
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] bool room() {
    if (events_.size() + counters_.size() < cfg_.max_events) return true;
    ++dropped_;
    return false;
  }

  Config cfg_;
  SegmentRecorder recorder_;
  std::vector<Event> events_;
  std::vector<CounterSample> counters_;
  double end_time_ = 0.0;
  std::uint64_t dropped_ = 0;
};

}  // namespace parsched::obs
