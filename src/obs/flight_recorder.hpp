// parsched — the flight recorder: a fixed-capacity ring of recent events.
//
// Observability pillar 2 (see docs/API.md §obs/). A FlightRecorder is the
// black box that preserves the last moments of a run: the engine records
// decision steps, admissions, completions and guard/contract trips; the
// serve layer records submit verdicts and strand dispatches. When
// something goes wrong — a SimulationStall, a contract-policy trip, a
// wedged soak — the ring is dumped as deterministic JSONL and the tail
// of history that led to the failure is on disk instead of gone.
//
// Concurrency model: lock-free-enough. Writers claim a slot by a relaxed
// fetch_add ticket and publish it with a per-slot sequence word
// (seqlock-style: odd while the fields are being written, ticket-derived
// even once complete). Every event field is an atomic written with
// relaxed stores, so concurrent writers wrapping the ring race benignly
// (no UB, TSan-clean); the reader re-checks the sequence word after
// copying and simply skips a slot that was mid-overwrite. record() is a
// handful of relaxed atomic stores and never allocates, locks, or reads
// a clock — cheap enough to leave on in the engine hot path (the E11
// flight_recorder_overhead table holds it within 3% of the bare decision
// rate).
//
// Reading (snapshot/dump) is intended for quiescent or failure moments —
// concurrent writers cannot corrupt a dump, but they can race slots out
// of it. Dumps over a quiet ring are byte-deterministic: events appear
// in ticket order with sim-time timestamps only (no wall clock), so two
// identical runs produce identical dumps.
//
// This header sits in the obs_core unit (tools/layers.toml) next to
// metrics.hpp so simcore may record into it without a layering
// back-edge.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace parsched::obs {

/// What happened. Names must stay in sync with flight_event_name().
enum class FlightEvent : std::uint8_t {
  kDecision = 0,   ///< engine decision step: id=step#, t=now, v=dt, a=alive
  kAdmit = 1,      ///< job admitted: id=job, t=now, v=release, a=alive
  kComplete = 2,   ///< job completed: id=job, t=now, v=flow, a=alive
  kGuardTrip = 3,  ///< alloc-guard / contract trip escaping a step: t=now
  kStall = 4,      ///< SimulationStall raised: id=job (or 0), t=now
  kSubmit = 5,     ///< serve submit verdict: id=session, v=verdict code
  kDispatch = 6,   ///< serve strand dispatch: id=session, v=queue depth
  kNote = 7,       ///< free-form marker (tests, drain, operator dump)
  kMigrate = 8,    ///< cluster session migration: id=session,
                   ///< v=target shard, a=source shard
  kReroute = 9,    ///< submit routed to a migrated session's new shard:
                   ///< id=session, v=current shard, a=placement shard
};

/// Stable lower-case token for an event kind ("decision", "admit", ...).
[[nodiscard]] std::string_view flight_event_name(FlightEvent ev);

/// Fixed-capacity event ring. See file comment for the concurrency
/// contract. Capacity is fixed at construction; the ring never
/// reallocates.
class FlightRecorder {
 public:
  /// One recorded event, as read back out of the ring. Field meaning is
  /// per-kind (see FlightEvent); `seq` is the global ticket (monotone
  /// across the whole run, not just the retained window).
  struct Event {
    std::uint64_t seq = 0;
    FlightEvent kind = FlightEvent::kNote;
    std::uint64_t id = 0;  ///< job / session / step identifier
    double t = 0.0;        ///< sim-time (engine) or mono-seconds (serve)
    double v = 0.0;        ///< per-kind value (dt, flow, verdict, depth)
    std::uint32_t a = 0;   ///< per-kind auxiliary count (alive, queue)
  };

  /// `capacity` slots are allocated up front; 0 is clamped to 1.
  explicit FlightRecorder(std::size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one event. Wait-free, allocation-free, safe from any thread.
  void record(FlightEvent kind, std::uint64_t id, double t, double v = 0.0,
              std::uint32_t a = 0) noexcept;

  /// Copy out the retained window in ticket order, skipping slots that
  /// were mid-overwrite. Allocates; not for hot paths.
  [[nodiscard]] std::vector<Event> snapshot() const;

  /// Write the retained window as JSONL: one header line
  /// ({"ev":"header","kind":"parsched-flight-record","schema":1,...})
  /// then one line per event in ticket order. Deterministic over a quiet
  /// ring. `reason` labels why the dump happened ("simulation_stall",
  /// "drain", "dump_verb", ...).
  void dump_jsonl(std::ostream& os, std::string_view reason) const;

  /// Dump to the path set_dump_path() armed, via the checked fsio
  /// writers. A no-op when no dump path is set; swallows write errors
  /// (the black box must never turn a failure into a different failure)
  /// but returns false on them.
  bool dump_to_file(std::string_view reason) const noexcept;

  /// Arm automatic dumping: engine/serve failure hooks call
  /// dump_to_file(), which writes here. Not thread-safe against
  /// concurrent record()+set_dump_path on the same recorder — configure
  /// before the run starts.
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }

  /// Total events ever recorded (monotone; >= retained window size).
  [[nodiscard]] std::uint64_t recorded() const {
    return next_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    // Odd = write in progress, 2*ticket+2 = slot holds ticket's event.
    std::atomic<std::uint64_t> state{0};
    std::atomic<std::uint8_t> kind{0};
    std::atomic<std::uint32_t> a{0};
    std::atomic<std::uint64_t> id{0};
    std::atomic<double> t{0.0};
    std::atomic<double> v{0.0};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::string dump_path_;
};

}  // namespace parsched::obs
