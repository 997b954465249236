#include "simcore/precedence.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "util/mathx.hpp"

namespace parsched {

DagInstance::DagInstance(int machines, std::vector<DagNode> nodes)
    : m_(machines) {
  if (machines < 1) throw std::invalid_argument("need at least one machine");
  if (nodes.empty()) throw std::invalid_argument("dag has no tasks");

  // Index by id, validate uniqueness and dependency existence.
  std::unordered_map<JobId, std::size_t> raw_index;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].job.id == kInvalidJob) {
      throw std::invalid_argument("dag tasks need explicit ids");
    }
    if (!raw_index.emplace(nodes[i].job.id, i).second) {
      throw std::invalid_argument("duplicate task id in dag");
    }
    nodes[i].job.normalize_phases();
    if (nodes[i].job.size <= 0.0) {
      throw std::invalid_argument("nonpositive task size");
    }
  }
  for (const DagNode& n : nodes) {
    for (JobId d : n.deps) {
      if (!raw_index.count(d)) {
        throw std::invalid_argument("dependency on unknown task " +
                                    std::to_string(d));
      }
      if (d == n.job.id) {
        throw std::invalid_argument("task depends on itself");
      }
    }
  }

  // Kahn topological sort (also detects cycles).
  std::vector<int> indeg(nodes.size(), 0);
  std::vector<std::vector<std::size_t>> succ(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (JobId d : nodes[i].deps) {
      succ[raw_index.at(d)].push_back(i);
      ++indeg[i];
    }
  }
  std::queue<std::size_t> q;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (indeg[i] == 0) q.push(i);
  }
  std::vector<std::size_t> topo;
  while (!q.empty()) {
    const std::size_t i = q.front();
    q.pop();
    topo.push_back(i);
    for (std::size_t s : succ[i]) {
      if (--indeg[s] == 0) q.push(s);
    }
  }
  if (topo.size() != nodes.size()) {
    throw std::invalid_argument("precedence graph has a cycle");
  }
  nodes_.reserve(nodes.size());
  for (std::size_t i : topo) nodes_.push_back(std::move(nodes[i]));
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    index_[nodes_[i].job.id] = i;
  }
}

std::unordered_map<JobId, double> DagInstance::earliest_completions() const {
  std::unordered_map<JobId, double> ec;
  const double md = static_cast<double>(m_);
  for (const DagNode& n : nodes_) {  // topological order
    double start = n.job.release;
    for (JobId d : n.deps) start = std::max(start, ec.at(d));
    double span = 0.0;
    if (n.job.phases.empty()) {
      span = n.job.size / n.job.curve.rate(md);
    } else {
      for (const JobPhase& p : n.job.phases) {
        span += p.work / p.curve.rate(md);
      }
    }
    ec[n.job.id] = start + span;
  }
  return ec;
}

double DagInstance::flow_lower_bound() const {
  const auto ec = earliest_completions();
  double total = 0.0;
  for (const DagNode& n : nodes_) {
    total += ec.at(n.job.id) - n.job.release;
  }
  return total;
}

double DagInstance::critical_path() const {
  const auto ec = earliest_completions();
  double cp = 0.0;
  for (const auto& [id, c] : ec) {
    (void)id;
    cp = std::max(cp, c);
  }
  return cp;
}

PrecedenceSource::PrecedenceSource(const DagInstance& dag) : dag_(&dag) {
  reset();
}

void PrecedenceSource::reset() {
  released_.assign(dag_->size(), false);
}

bool PrecedenceSource::ready(const DagNode& node,
                             const EngineView& view) const {
  for (JobId d : node.deps) {
    if (!view.is_completed(d)) return false;
  }
  return true;
}

double PrecedenceSource::next_time(const EngineView& view) {
  double t = kInf;
  const auto& nodes = dag_->nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (released_[i]) continue;
    if (!ready(nodes[i], view)) continue;  // re-polled after completions
    t = std::min(t, std::max(nodes[i].job.release, view.time()));
  }
  return t;
}

std::span<const Job> PrecedenceSource::take(double t,
                                            const EngineView& view) {
  std::vector<Job>& out = batch_;
  out.clear();
  const auto& nodes = dag_->nodes();
  const double tol = 1e-9 * std::max(1.0, t);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (released_[i]) continue;
    if (nodes[i].job.release > t + tol) continue;
    if (!ready(nodes[i], view)) continue;
    // Flow is measured from the task's *nominal* release (when it entered
    // the system), so waiting on slow predecessors counts against the
    // schedule — this keeps flow(ALG) >= flow_lower_bound() valid.
    out.push_back(nodes[i].job);
    released_[i] = true;
  }
  return out;
}

SimResult simulate_dag(const DagInstance& dag, Scheduler& sched,
                       const EngineConfig& config,
                       const std::vector<Observer*>& observers) {
  Engine engine(dag.machines(), config);
  for (Observer* obs : observers) engine.add_observer(obs);
  PrecedenceSource source(dag);
  return engine.run(sched, source);
}

}  // namespace parsched
