#include "simcore/alive_set.hpp"

#include <algorithm>

#include "check/contract.hpp"

namespace parsched {

namespace {

/// Apply `f` to every array of the set, in declaration order.
template <typename Set, typename F>
void each_array(Set& s, F f) {
  f(s.ids);
  f(s.releases);
  f(s.sizes);
  f(s.remaining);
  f(s.weights);
  f(s.arrival_seqs);
  f(s.phase_remaining);
  f(s.phases_left);
  f(s.flow_q);
  f(s.cold);
}

/// Job i's record, written field by field into `a` (copy-assigning the
/// phase list reuses a's buffer).
void write_record(const AliveSet& s, std::size_t i, AliveJob& a) {
  const AliveCold& c = s.cold[i];
  a.id = s.ids[i];
  a.release = s.releases[i];
  a.size = s.sizes[i];
  a.remaining = s.remaining[i];
  a.weight = s.weights[i];
  a.curve = c.curve;
  a.arrival_seq = s.arrival_seqs[i];
  a.tag = c.tag;
  a.phases = c.phases;
  a.phase = c.phases.empty() ? 0 : c.phases.size() - 1 - s.phases_left[i];
  a.phase_remaining = s.phase_work(i);
}

/// Floor blocks over n alive jobs.
std::size_t floor_blocks(std::size_t n) {
  return (n + RemainingFloors::kBlock - 1) / RemainingFloors::kBlock;
}

}  // namespace

void AliveSet::clear() {
  each_array(*this, [](auto& v) { v.clear(); });
  floors.floor.clear();
  floors.known = true;
  multi_phase = 0;
}

void AliveSet::reserve(std::size_t n) {
  each_array(*this, [n](auto& v) { reserve_geometric(v, n); });
  reserve_geometric(floors.floor, floor_blocks(n));
}

void AliveSet::resize(std::size_t n) {
  each_array(*this, [n](auto& v) { v.resize(n); });
  floors.floor.resize(floor_blocks(n));
}

void AliveSet::relocate(std::size_t from, std::size_t to) {
  each_array(*this, [from, to](auto& v) { v[to] = std::move(v[from]); });
  floors.lower(to, remaining[to]);
}

void AliveSet::append(const Job& job, std::int64_t arrival_seq) {
  if (job.phases.size() > 1 && multi_phase++ == 0) {
    std::copy(remaining.begin(), remaining.end(), phase_remaining.begin());
  }
  if (size() % RemainingFloors::kBlock == 0) {
    floors.floor.push_back(job.size);
  } else {
    floors.lower(size(), job.size);
  }
  ids.push_back(job.id);
  releases.push_back(job.release);
  sizes.push_back(job.size);
  remaining.push_back(job.size);
  weights.push_back(job.weight);
  arrival_seqs.push_back(arrival_seq);
  phase_remaining.push_back(job.phases.empty() ? job.size
                                               : job.phases.front().work);
  phases_left.push_back(static_cast<std::uint32_t>(
      job.phases.empty() ? 0 : job.phases.size() - 1));
  flow_q.push_back(0.0);
  cold.push_back({job.curve, job.tag, job.phases});
}

void AliveSet::assign(std::span<const AliveJob> records) {
  clear();
  reserve(records.size());
  for (const AliveJob& a : records) {
    PARSCHED_CHECK(a.phase < std::max<std::size_t>(1, a.phases.size()),
                   "alive job phase index out of range");
    const std::size_t i = size();
    append({a.id, a.release, a.size, a.weight, a.curve, a.tag, a.phases},
           a.arrival_seq);
    remaining[i] = a.remaining;
    phase_remaining[i] = a.phase_remaining;
    phases_left[i] -= static_cast<std::uint32_t>(a.phase);
    cold[i].curve = a.curve;
  }
  floors.known = false;
}

std::vector<JobPhase> AliveSet::take_phases(std::size_t i) {
  if (cold[i].phases.size() > 1) --multi_phase;
  return std::move(cold[i].phases);
}

void AliveSet::next_phase(std::size_t i) {
  const std::vector<JobPhase>& phases = cold[i].phases;
  const JobPhase& next = phases[phases.size() - phases_left[i]];
  --phases_left[i];
  phase_remaining[i] = next.work;
  cold[i].curve = next.curve;
}

void AliveSet::materialize(std::vector<AliveJob>& out) const {
  out.resize(size());
  for (std::size_t i = 0; i < size(); ++i) write_record(*this, i, out[i]);
}

}  // namespace parsched
