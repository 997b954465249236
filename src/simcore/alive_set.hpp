// parsched — the engine's alive set: one owning structure-of-arrays.
//
// Every per-job field the decision step reads lives once, in a flat
// array indexed by alive position, so the rates pass, the dt-scan and
// the advance sweep stream 8-byte elements instead of striding through
// per-job records. Fields the step needs only to rate a share above 1
// or a sparse support, when a phase ends or when a job completes (the
// current curve, the tag, the phase list) sit in a side array of cold
// records. Jobs enter as Jobs, straight into the columns. Policies read
// the set through AliveView; AliveJob is the materialized record form,
// built on demand for snapshots (EngineState) and observers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "simcore/job.hpp"

namespace parsched {

/// Capacity for at least n elements, grown geometrically (amortized O(1)
/// per admission), so per-job buffers are pre-paid outside the engine's
/// AllocGuard fences.
template <typename V>
void reserve_geometric(V& v, std::size_t n) {
  if (v.capacity() < n) v.reserve(std::max(n, 2 * v.capacity()));
}

/// One alive job as a self-contained record: the form EngineState
/// serializes and Observer::on_decision receives. Policies are
/// non-clairvoyant about the future but clairvoyant about remaining work,
/// matching the paper's SRPT-style algorithms (`original size` is also
/// visible; the natural greedy of Section 3 uses remaining work only).
struct AliveJob {
  JobId id = kInvalidJob;
  double release = 0.0;
  double size = 0.0;       ///< original work p_j
  double remaining = 0.0;  ///< unprocessed work p_j(t), across all phases
  double weight = 1.0;     ///< weight w_j of the weighted-flow objective
  /// Speedup curve of the *current* phase (the whole curve for
  /// single-phase jobs). This is what the job responds to right now.
  SpeedupCurve curve;
  std::int64_t arrival_seq = 0;  ///< global arrival ordinal (0-based)
  JobTag tag;  ///< workload metadata; online policies must not read this

  // Multi-phase bookkeeping (engine-internal; non-clairvoyant policies
  // must not read these — they reveal the future phase structure).
  std::vector<JobPhase> phases;
  std::size_t phase = 0;
  double phase_remaining = 0.0;
};

/// The per-job fields the decision step touches only to rate a share
/// above 1 or a sparse support, when a phase ends, a job completes, or a
/// record is materialized.
struct AliveCold {
  SpeedupCurve curve;  ///< the current phase's curve: the job's only Γ
  JobTag tag;
  std::vector<JobPhase> phases;
};

class AliveView;

/// Lower bounds of the alive jobs' remaining work, one per aligned block
/// of kBlock alive indexes, so that a scan for the jobs below some
/// remaining work passes over a block whose bound is above it (the SRPT
/// gather, OrderHeap::gather). While `known`, floor[b] is at most the
/// remaining work of every job in block b; append() sets it, and every
/// writer of remaining work lowers it (lower()). A dense step, which
/// lowers every job's, marks the floors unknown instead, and the next
/// scan of every key rebuilds them.
struct RemainingFloors {
  static constexpr std::size_t kBlock = 64;
  std::vector<double> floor;  ///< ceil(n / kBlock) entries
  bool known = true;          ///< an empty set's floors hold

  /// Alive job i's remaining work is now r.
  void lower(std::size_t i, double r) {
    double& f = floor[i / kBlock];
    f = std::min(f, r);
  }
};

/// The engine's alive set. Position i is the same job in every array;
/// admission appends, completion moves the back job into the freed slot
/// (relocate) and truncates (resize). Every mutator that adds, moves or
/// drops a job touches every array, so the arrays cannot drift apart.
/// Growth is geometric (reserve), paid
/// at admission outside the engine's AllocGuard fences.
struct AliveSet {
  std::vector<JobId> ids;
  std::vector<double> releases;
  std::vector<double> sizes;
  std::vector<double> remaining;
  std::vector<double> weights;
  std::vector<std::int64_t> arrival_seqs;
  /// Work left in the current phase — maintained only while some alive
  /// job has more than one phase (multi_phase > 0). For a job with at
  /// most one phase it equals `remaining` bit for bit: admission sets
  /// both to the size, every advance applies the same max(0, x - step) to
  /// both, and no phase change ever touches it. So while multi_phase is
  /// 0 the engine's step reads `remaining` instead and leaves this array
  /// stale; phase_work() and materialize() read through the same way,
  /// and the append() of the first multi-phase job rebuilds the array
  /// from `remaining` (O(n), once per such admission).
  std::vector<double> phase_remaining;
  /// Phases after the current one: phases.size() - 1 - phase for a
  /// multi-phase job, 0 for a single-phase one.
  std::vector<std::uint32_t> phases_left;
  /// Engine scratch, not job state: the flow quotient 0.5*(r+r)/size of
  /// the job's remaining work r at its last sparse-sweep visit (0 until
  /// the first, unless admission wrote it with its block's summary;
  /// absent from AliveJob). Dense steps leave it stale and the
  /// next sparse step rebuilds it. A job a sparse sweep skips — rate 0
  /// and visited before — adds flow_q[i]*dt to the fractional flow,
  /// exactly what a visit would add, since nothing else about it can
  /// change. The engine summarizes it per aligned block of 512 jobs
  /// (Engine::block_q_), so every write here, relocate() included, has
  /// the engine mark that block mixed.
  std::vector<double> flow_q;
  std::vector<AliveCold> cold;
  /// Derived from `remaining`, not job state. Mutable: a gather through
  /// a const view rebuilds unknown floors in the scan it makes anyway.
  mutable RemainingFloors floors;
  /// Alive jobs with more than one phase (append counts them,
  /// take_phases() uncounts them, clear() resets the count).
  std::size_t multi_phase = 0;

  [[nodiscard]] std::size_t size() const { return ids.size(); }
  /// Job i's current-phase work (see phase_remaining).
  [[nodiscard]] double phase_work(std::size_t i) const {
    return multi_phase == 0 ? remaining[i] : phase_remaining[i];
  }
  [[nodiscard]] bool empty() const { return ids.empty(); }
  [[nodiscard]] AliveView view() const;
  /// Set job i's remaining work to r, keeping its block's floor.
  void set_remaining(std::size_t i, double r) {
    remaining[i] = r;
    floors.lower(i, r);
  }

  /// Empty the set; its (empty) floors are known.
  void clear();
  /// Capacity for at least n jobs (geometric growth).
  void reserve(std::size_t n);
  /// Append `job` (normalized) as it arrives: all of its work left, its
  /// first phase current, flow quotient 0. The caller reserves capacity
  /// for the batch it appends.
  void append(const Job& job, std::int64_t arrival_seq);
  /// Replace the whole set with `records`, in order (snapshot restore):
  /// each goes through append() and then takes the record's progress
  /// (remaining work, phase, phase work, current curve); the floors are
  /// left unknown. Requires a.phase < max(1, a.phases.size()).
  void assign(std::span<const AliveJob> records);
  /// Job i's current phase drained: move it to the next one (requires
  /// phases_left[i] > 0).
  void next_phase(std::size_t i);
  /// Job i's phase list, moved out for its completion record; the job no
  /// longer counts as multi-phase. The completion swap-remove calls this
  /// before it overwrites or truncates the job's slot.
  std::vector<JobPhase> take_phases(std::size_t i);
  /// Move job `from` into slot `to` (the completion swap-remove; the
  /// caller truncates with resize() afterwards), lowering the floor of
  /// the block it moves into.
  void relocate(std::size_t from, std::size_t to);
  void resize(std::size_t n);
  /// Every record, in alive order, written into `out` in place (reusing
  /// its elements' buffers).
  void materialize(std::vector<AliveJob>& out) const;
};

/// What a policy may read of the alive set: job i's public fields, by
/// accessor. The phase bookkeeping and the tag are not exposed (online
/// policies are phase-blind and tag-blind). Cheap to copy; valid while
/// the set it views is alive and unmodified.
class AliveView {
 public:
  explicit AliveView(const AliveSet& set) : set_(&set) {}

  [[nodiscard]] std::size_t size() const { return set_->size(); }
  [[nodiscard]] bool empty() const { return set_->empty(); }
  [[nodiscard]] JobId id(std::size_t i) const { return set_->ids[i]; }
  [[nodiscard]] double release(std::size_t i) const {
    return set_->releases[i];
  }
  /// Original work p_j.
  [[nodiscard]] double job_size(std::size_t i) const {
    return set_->sizes[i];
  }
  /// Unprocessed work p_j(t), across all phases.
  [[nodiscard]] double remaining(std::size_t i) const {
    return set_->remaining[i];
  }
  [[nodiscard]] double weight(std::size_t i) const {
    return set_->weights[i];
  }
  [[nodiscard]] std::int64_t arrival_seq(std::size_t i) const {
    return set_->arrival_seqs[i];
  }
  /// Speedup curve of the current phase.
  [[nodiscard]] const SpeedupCurve& curve(std::size_t i) const {
    return set_->cold[i].curve;
  }
  /// The set's remaining-work floors (a scan may rebuild unknown ones).
  [[nodiscard]] RemainingFloors& floors() const { return set_->floors; }
  /// Prefetch hints for a scan that reads jobs out of index order: job
  /// i's remaining work, or its release and id.
  void prefetch_remaining(std::size_t i) const {
    __builtin_prefetch(set_->remaining.data() + i);
  }
  void prefetch_release_and_id(std::size_t i) const {
    __builtin_prefetch(set_->releases.data() + i);
    __builtin_prefetch(set_->ids.data() + i);
  }

 private:
  const AliveSet* set_;
};

inline AliveView AliveSet::view() const { return AliveView(*this); }

}  // namespace parsched
