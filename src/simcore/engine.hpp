// parsched — the continuous-time malleable-scheduling engine.
//
// The model of the paper taken literally: m identical unit-speed divisible
// processors; at any instant a policy assigns each alive job a fractional
// share x_j (sum <= m) and job j's remaining work decreases at rate
// Γ_j(x_j). Because shares are piecewise-constant between decision points,
// the engine advances with *exact* event times — the next event is the
// minimum of the next arrival, the earliest completion under current rates,
// and the policy's requested reconsideration time. There is no fixed
// timestep and therefore no discretization error.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>
#include <unordered_set>

#include "simcore/incremental.hpp"
#include "simcore/instance.hpp"
#include "simcore/observer.hpp"
#include "simcore/result.hpp"
#include "simcore/scheduler.hpp"
#include "simcore/source.hpp"

namespace parsched {

namespace obs {
class MetricsRegistry;
class FlightRecorder;
}  // namespace obs

struct EngineConfig {
  /// Processor speed multiplier for resource-augmentation analysis
  /// ([Kalyanasundaram–Pruhs]): an s-speed processor processes work at
  /// rate s * Γ_j(x). The paper's results are pure competitiveness
  /// (speed = 1); the augmented mode reproduces the related-work bounds
  /// (EQUI is (2+eps)-speed O(1)-competitive, LAPS is scalable).
  double speed = 1.0;
  /// A job completes when remaining work <= completion_tol * max(1, size).
  double completion_tol = 1e-9;
  /// Events within time_tol of each other are treated as simultaneous.
  double time_tol = 1e-9;
  /// Hard guard against runaway simulations (policy bugs).
  std::uint64_t max_decisions = 500'000'000;
  /// Check share feasibility at every decision point.
  bool validate_allocations = true;
  /// Collect per-run profiling (SimResult::stats): wall time split into
  /// policy-decide / event-solver / observer buckets, the solver bucket
  /// split into rates / advance / heap-upkeep / completion / admit parts,
  /// plus decision-interval and alive-count histograms (run_stats.hpp).
  /// Off by default — the uninstrumented hot path takes no clock
  /// readings at all.
  bool collect_stats = false;
  /// Optional registry the engine mirrors run totals into (counters
  /// engine.runs/decisions/arrivals/completions always; timers
  /// engine.decide/solver/observer and engine.solver.rates/advance/
  /// heap_upkeep/completion/admit when collect_stats is also set).
  /// Borrowed; must outlive run().
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional flight recorder (obs/flight_recorder.hpp): the engine
  /// records decision steps, admissions, completions and stalls into it,
  /// and — when the recorder has a dump path armed — dumps the ring
  /// before throwing SimulationStall or letting a contract trip escape a
  /// decision step. record() is a handful of relaxed atomic stores, so
  /// leaving this on costs <3% of the dense-alive decision rate (the E11
  /// flight_recorder_overhead table is the regression proof). Borrowed;
  /// must outlive the run. Not simulation state: not serialized, not
  /// checked by import_state().
  obs::FlightRecorder* recorder = nullptr;
};

/// Thrown when alive jobs exist but no progress is possible: either all
/// rates are zero with no future arrival or reconsideration point, or the
/// engine detects a run of zero-length decision intervals that change no
/// state (the `detail` form names the stuck job).
class SimulationStall : public std::runtime_error {
 public:
  explicit SimulationStall(double t);
  SimulationStall(double t, const std::string& detail);
};

/// Full dynamic state of a streaming run, exposed for serve/ session
/// snapshots. Everything that determines future arithmetic is here:
/// `alive` is serialized in engine order (the swap-remove order feeds
/// SchedulerContext and is therefore semantic), `completed` is canonical
/// (sorted), `pending` keeps admission order among equal releases, and
/// `cached_alloc` carries a decision that was made but deferred past the
/// advance frontier. `result.stats` is always absent (wall-time profiling
/// is measurement, not state).
struct EngineState {
  int machines = 1;
  EngineConfig config;
  double now = 0.0;
  double frontier = 0.0;
  std::int64_t arrival_seq = 0;
  std::vector<AliveJob> alive;
  std::vector<JobId> completed;
  std::vector<Job> pending;
  bool has_cached_alloc = false;
  Allocation cached_alloc;
  SimResult result;
};

/// Check a restored state before any of it reaches an engine: every
/// alive job's phase index is in range (< max(1, phases.size())), `now`
/// and every remaining work are finite and nonnegative, now <= frontier,
/// no remaining exceeds its job's size, every phase_remaining is finite and
/// nonnegative, no remaining or phase_remaining is -0.0, alive and
/// completed ids are each unique, every alive arrival_seq lies in
/// [0, arrival_seq), pending jobs pass check_job and are
/// sorted by release at or above `frontier`, every curve (alive, phase,
/// pending) passes is_valid_speedup_curve, and a cached allocation has
/// one finite, nonnegative share per alive job with
/// Σ ≤ machines·(1+1e-9)+1e-9, and an alive job with at most one phase
/// has phase_remaining bit-equal to its remaining work (the engine keeps
/// no separate phase work for it). Throws std::invalid_argument naming
/// the first violation.
void validate(const EngineState& state);

class Engine final : public EngineView {
 public:
  explicit Engine(int machines, EngineConfig config = {});

  /// Observers are borrowed; they must outlive run().
  void add_observer(Observer* obs);

  /// Run the policy against the arrival source to completion. Throws
  /// std::invalid_argument for a released job that fails check_job().
  SimResult run(Scheduler& sched, ArrivalSource& source);

  // ---- Streaming (incremental-arrival) API -------------------------------
  //
  // The serve/ layer drives the engine online: jobs are admitted as they
  // become known and time is advanced in increments. The streaming path
  // is run()'s drive loop with the admitted jobs as its arrival source —
  // the same decision steps and the same admission — so a session that
  // admits the jobs of an instance (in release order) and advances
  // arbitrarily produces a SimResult identical to the batch run, double
  // for double. The one obligation advance_to(t) imposes is that every
  // job with release < t has already been admitted; admit() enforces it.
  //
  // advance_to() never splits a decision interval: if the next event lies
  // beyond the frontier the step is deferred and the policy's allocation
  // is cached, so on resume allocate() is *not* re-invoked (the engine
  // state it saw is unchanged) and decision counts match the batch run.

  /// Start a streaming run for `sched` (borrowed; must outlive the run).
  /// Abandons any run in progress.
  void begin(Scheduler& sched);

  /// Hand the engine a future arrival. Requires an active streaming run,
  /// a job that passes normalize_phases() and check_job(), and
  /// job.release >= frontier(); throws std::invalid_argument otherwise,
  /// before the job is queued. Jobs may be admitted arbitrarily far
  /// ahead of time.
  void admit(Job job);

  /// Simulate every event up to and including time t (given the admit()
  /// contract above). Monotone: t below the current frontier is a no-op.
  void advance_to(double t);

  /// Declare the arrival stream closed, run to completion, and return the
  /// final result (identical to the batch run() over the same jobs). Ends
  /// the streaming run.
  SimResult finish();

  [[nodiscard]] bool streaming() const { return streaming_; }
  /// Highest time advance_to() has been asked for (admission low bound).
  [[nodiscard]] double frontier() const { return frontier_; }
  /// True when no alive or pending jobs remain.
  [[nodiscard]] bool drained() const {
    return alive_.empty() && pending_.jobs().empty();
  }
  [[nodiscard]] std::size_t pending_count() const {
    return pending_.jobs().size();
  }
  /// Results accumulated so far (live view; totals of completed jobs only).
  [[nodiscard]] const SimResult& partial() const { return result_; }

  /// Snapshot / restore of a streaming run. export_state() materializes
  /// the alive set as AliveJob records. import_state() requires an
  /// engine constructed with the snapshot's machine count and config; the
  /// scheduler must already carry its restored state (Scheduler::
  /// load_state). Continuation after import is bit-identical to the
  /// donor run. Throws std::invalid_argument, leaving the engine
  /// untouched, on a config mismatch or a state that fails validate().
  /// The cached allocation's support is rebuilt from its nonzero shares.
  [[nodiscard]] EngineState export_state() const;
  void import_state(const EngineState& state, Scheduler& sched);

  // EngineView (available to adaptive sources during run()):
  [[nodiscard]] double time() const override { return now_; }
  [[nodiscard]] int machines() const override { return m_; }
  [[nodiscard]] std::size_t alive_count() const override {
    return alive_.size();
  }
  [[nodiscard]] double remaining_tagged(JobTag::Class cls,
                                        int phase) const override;
  [[nodiscard]] bool is_completed(JobId id) const override {
    return completed_.count(id) > 0;
  }

  /// Test surface: the alive set, in the order EngineState serializes.
  [[nodiscard]] const AliveSet& alive_set() const { return alive_; }
  /// The rate of the decision last computed at support position j (see
  /// rates_): job j's when the allocation is dense, job support()[j]'s
  /// otherwise. Also a test surface, with support_rate_count().
  [[nodiscard]] double support_rate(std::size_t j) const {
    return rates_uniform_ ? uniform_rate_ : rates_[j];
  }
  /// Test surface: how many support positions support_rate() answers for.
  [[nodiscard]] std::size_t support_rate_count() const {
    return rates_uniform_ ? cached_alloc_.size() : rates_.size();
  }

 private:
  enum class Step : std::uint8_t {
    kAdvanced,  ///< one decision interval executed
    kDeferred,  ///< next event past the horizon; allocation cached
  };

  void begin_run(Scheduler& sched);
  void finalize_run();
  SimResult take_result();
  /// Observers' on_done, then finalize_run() and take_result().
  SimResult end_run();
  /// Capacity for n alive jobs in every per-job buffer (geometric).
  void reserve_alive(std::size_t n);
  /// The one admission path: every batch `source` releases up to
  /// now_ + time_tol, each job checked (check_job) before any lands.
  void admit_pending(ArrivalSource& source);
  /// The one drive loop (run() and the streaming API): decision steps
  /// and idle jumps up to `horizon`, admitting from `source` after each.
  void drain_to(ArrivalSource& source, double horizon);
  Step decision_step(double t_arrive, double horizon);
  void compute_rates(bool validate);
  /// The advance sweep: a dense step advances every job in blocks; a
  /// sparse one visits the support and the unswept tail, and the idle
  /// jobs between them add their cached flow quotients. Returns whether
  /// any multi-phase job moved to its next phase.
  bool advance_sweep(double dt);
  /// acc plus the flow quotient times dt of each of the `count` idle jobs
  /// from `from` on, added in index order (the serial loop's bits),
  /// through block_q_.
  double idle_flow(double acc, std::size_t from, std::size_t count,
                   double dt);
  bool visit_job(std::size_t i, double r, double dt, double& ff);
  /// The rate-0 visit of the unswept tail jobs [from, to), a flow-
  /// quotient block at a time: their quotients, settle_job on the blocks
  /// where some job is due a phase change or completion, then idle_flow
  /// over them. Returns acc plus their flow, the bits visit_job adds one
  /// job at a time; sets `phase_advanced` when a job changed phase.
  double visit_idle_run(double acc, std::size_t from, std::size_t to,
                        double dt, bool& phase_advanced);
  bool settle_job(std::size_t i);
  /// Collect-stats only: add the wall time since the last lap to
  /// `bucket` and start the next lap.
  void lap(double& bucket);
  /// PARSCHED_AUDIT: the current allocation's support is ascending,
  /// unique and in range, and every share outside it is exactly +0.0.
  /// O(n), audit runs only.
  void audit_support() const;
  /// PARSCHED_AUDIT: `low`, a uniform decision's dt-scan, is bit-equal to
  /// the min of the phase work over the whole alive set. O(n).
  void audit_uniform_scan(double low) const;
  /// PARSCHED_AUDIT: every block block_q_ marks equal lies inside the
  /// alive set and holds its recorded quotient bit for bit. O(n).
  void audit_flow_blocks() const;
  /// Flight-recorder failure hook: record a stall/trip event and dump the
  /// ring (no-op without a recorder). Cold path only.
  void record_failure(bool contract_trip, std::uint64_t id,
                      const char* reason) noexcept;

  int m_;
  EngineConfig cfg_;
  std::vector<Observer*> observers_;

  double now_ = 0.0;
  std::int64_t arrival_seq_ = 0;
  AliveSet alive_;
  std::unordered_set<JobId> completed_;

  // Streaming-run state (also carries batch runs: result_/stats_ are the
  // accumulator for both paths).
  Scheduler* sched_ = nullptr;
  bool streaming_ = false;
  double frontier_ = 0.0;
  JobQueue pending_;  // the streaming run's arrivals, not yet due
  bool has_cached_alloc_ = false;
  Allocation cached_alloc_;
  SimResult result_;
  obs::RunStats* stats_ = nullptr;
  double run_start_ = 0.0;

  // Decision-step scratch, reused (cleared, never freed) across steps so
  // the steady-state hot path performs no heap allocation. None of this
  // is simulation state: everything here is either overwritten before use
  // each step or a self-validating memo of values derivable from alive_,
  // and all of it is deliberately absent from EngineState.
  /// The alive set materialized for observers, rebuilt in place at each
  /// decision when any observer is attached.
  std::vector<AliveJob> observed_;
  /// The rates of the decision in cached_alloc_, one per support
  /// position j: speed * Γ(share) of alive job support()[j], or of job j
  /// itself when the allocation is dense(). Reserved to the alive count
  /// at admission. Their values for a *deferred* decision stay frozen
  /// with it (the rates_valid_ protocol below). Not written for a uniform
  /// decision (rates_uniform_): every rate is then uniform_rate_.
  std::vector<double> rates_;
  bool rates_uniform_ = false;
  double uniform_rate_ = 0.0;
  /// Persistent ordering heaps behind every SchedulerContext helper.
  /// Unlike the rest of this scratch block the heaps carry state
  /// *across* decision steps — but still derived state: every key is
  /// recomputable from alive_, and import_state()/begin_run() mark them
  /// stale (each regathers at its first query), so they stay out of
  /// EngineState.
  IncrementalOrders orders_;
  /// Jobs with a nonzero rate in the current decision (set by
  /// compute_rates): the heap upkeep after the sweep uses it to pick
  /// between per-job O(log n) SRPT heap updates and marking that heap
  /// stale when most keys move at once (> n/8, where n sifts start
  /// losing to one O(n) gather).
  std::size_t rates_nonzero_ = 0;
  std::vector<std::size_t> completion_order_;  // new-record indices, id-sorted
  std::vector<std::size_t> comp_idx_;  // this step's completed positions, asc
  /// alive_[swept_, n) is the tail admitted since the last sweep (all of
  /// it after a snapshot restore). The sweep visits it whatever the
  /// shares, so a new job is clamped, phase-advanced and completion-tested
  /// at its first step — a job admitted within completion_tol completes
  /// there even at share 0.
  std::size_t swept_ = 0;
  /// The least remaining work over alive_[0, swept_), kept by the last
  /// advance sweep when swept_low_valid_: a dense sweep with no
  /// multi-phase job alive takes it over the jobs it leaves alive (their
  /// remaining work is their phase work, and stays so when a multi-phase
  /// admission starts a separate phase_remaining, which copies it). A
  /// sparse sweep, a sweep with a multi-phase job alive, begin_run() and
  /// import_state() drop it; the uniform dt-scan then reads all n jobs.
  double swept_low_ = kInf;
  bool swept_low_valid_ = false;
  /// A dense step advanced remaining work without rewriting the flow
  /// quotients (AliveSet::flow_q): the next sparse sweep recomputes them
  /// over the swept range before it reads any.
  bool flow_q_stale_ = false;
  /// One summary per aligned block of 512 entries of AliveSet::flow_q:
  /// the quotient every job of the block holds, bit for bit, or NaN
  /// ("mixed") when they differ or have not been compared since a
  /// write. idle_flow adds an equal block in O(1) and summarizes a mixed
  /// one after summing it; every writer of flow_q marks its block mixed
  /// (a sweep visit, a tail run's visit before its idle_flow, both slots
  /// of a completion swap-remove, the rebuild after a dense step), and
  /// begin_run() and import_state() mark them all. Sized at admission
  /// (reserve_alive).
  std::vector<double> block_q_;
  /// rates_ / dt_complete_ for the decision in cached_alloc_, valid while
  /// the decision is deferred (its inputs are frozen by the deferral
  /// contract). Only a snapshot restore — which does not carry scratch —
  /// leaves a cached decision without them.
  double dt_complete_ = kInf;
  bool rates_valid_ = false;
  /// collect_stats: start of the current timing lap (see lap()).
  double t_lap_ = 0.0;
  // Consecutive decision steps that advanced neither time nor any job /
  // phase / completion state (satellite guard for zero-dt livelock).
  std::uint64_t zero_dt_streak_ = 0;
  /// PARSCHED_AUDIT=1 (read once at construction): arm a check::AllocGuard
  /// around each *warm* decision step's allocate+rates section and fused
  /// advance sweep, so any heap allocation there is a hard contract
  /// failure. A step is warm when the alive count is at most the largest
  /// previously-guarded-or-completed step's (alloc_warm_n_): every
  /// scratch buffer — engine- and policy-owned — is sized by the alive
  /// count and never shrinks, so the first step at a new maximum pays
  /// the growth once, unguarded, and everything after it must be
  /// allocation-free. Observer callbacks and completion record-keeping
  /// (result accumulation, not per-decision scratch) stay outside the
  /// guarded scopes.
  bool audit_allocs_ = false;
  std::size_t alloc_warm_n_ = 0;
};

/// Convenience: simulate a fixed instance with the given policy.
SimResult simulate(const Instance& instance, Scheduler& sched,
                   const EngineConfig& config = {},
                   const std::vector<Observer*>& observers = {});

}  // namespace parsched
