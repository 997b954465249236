// parsched — the serve load generator.
//
// run_loadgen() replays a deterministic synthetic arrival log against a
// running `parsched serve --socket` instance. The fleet is N protocol
// sessions, all open concurrently, driven by W worker threads (one
// connection each, sessions interleaved round-robin) — so 10^3–10^4
// concurrent sessions need only a handful of sockets and threads.
// Per-request round-trip latencies land in the metrics registry as the
// serve.client.latency_ms histogram and, raw, in
// LoadgenResult::latencies_ms (exact quantiles for the cluster bench),
// together with serve.client.{requests,rejects,errors} counters.
//
// Traffic shapes (serve/shapes.hpp): `uniform` is the PR-4 fleet,
// `zipf` skews per-session job counts by a Zipf(theta) popularity law,
// `burst` keys every session onto one shard and releases jobs in
// volleys, `diurnal` ramps the arrival rate to a peak and back. The
// simulated workload — and therefore the total flow — depends only on
// (seed, sessions, admissions, rate, shape parameters), never on the
// worker count or the wire protocol, so a run is comparable across
// --workers settings and across NDJSON vs PBIN (--binary).
//
// Backpressure discipline: a load rejection (queue full, draining —
// including the transient kDraining window of a live migration) is
// counted and retried with backoff; a protocol error is counted and
// fails the session. The soak invariant is rejects >= 0 but
// errors == 0 — the server under overload must shed load, never wedge
// or corrupt.
//
// Job streams are derived with exec::task_seed(seed, session), so a
// given configuration produces the same workload every run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/shapes.hpp"

namespace parsched::serve {

struct LoadgenConfig {
  std::string socket_path;
  int sessions = 8;
  int admissions = 200;  ///< jobs per session (fleet mean under zipf)
  double rate = 64.0;    ///< arrivals per simulated second
  int advance_every = 16;  ///< advance the replay clock every k admissions
  std::string policy = "equi";
  int machines = 4;
  std::uint64_t seed = 1;
  double connect_timeout = 10.0;
  bool shutdown_after = false;  ///< send the shutdown verb when done
  /// Every k admissions, each session also scrapes the stats verb and
  /// checks the exposition payload is non-empty — a live-telemetry probe
  /// riding inside the load (the TSan soak uses it to race the
  /// exposition writer against hot strands). 0 disables.
  int stats_every = 0;
  obs::MetricsRegistry* metrics = nullptr;  ///< borrowed; may be null

  LoadShape shape = LoadShape::kUniform;
  double zipf_theta = 1.0;   ///< zipf: popularity exponent (k * 0.5)
  int burst_per = 32;        ///< burst: jobs per volley
  double diurnal_peak = 4.0; ///< diurnal: peak/trough rate ratio (>= 1)
  /// Worker threads (connections). 0 picks min(sessions, 8). Totals are
  /// worker-count independent; only wall time and latency vary.
  int workers = 0;
  bool binary = false;  ///< drive PBIN frames instead of NDJSON lines
};

/// Outcome of one session's finished run (parsed from the protocol).
struct SessionOutcome {
  int session_index = 0;
  std::uint64_t jobs = 0;
  double total_flow = 0.0;
  double weighted_flow = 0.0;
  double fractional_flow = 0.0;
  double makespan = 0.0;
  std::uint64_t decisions = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;  ///< client-side session wall time
};

struct LoadgenResult {
  std::uint64_t requests = 0;
  std::uint64_t rejects = 0;  ///< backpressure responses (retried)
  std::uint64_t errors = 0;   ///< protocol/session failures
  std::uint64_t stats_scrapes = 0;  ///< successful mid-run stats probes
  double wall_seconds = 0.0;
  int shards = 1;  ///< server shard count (the "cluster" verb)
  std::vector<SessionOutcome> sessions;  ///< by session index
  /// Every timed round-trip, unordered — exact client-side quantiles
  /// for the serve_cluster bench tables.
  std::vector<double> latencies_ms;

  [[nodiscard]] std::uint64_t jobs_completed() const;
  [[nodiscard]] double total_flow() const;
  /// Exact q-quantile (nearest-rank) of latencies_ms; 0 when empty.
  [[nodiscard]] double latency_quantile_ms(double q) const;
};

/// Run the generator; throws std::runtime_error when the server cannot
/// be reached at all.
[[nodiscard]] LoadgenResult run_loadgen(const LoadgenConfig& cfg);

}  // namespace parsched::serve
