#include "sched/opt/search.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <stdexcept>

#include "check/contract.hpp"
#include "simcore/engine.hpp"
#include "util/rng.hpp"

namespace parsched {

PriorityListScheduler::PriorityListScheduler(std::vector<JobId> order) {
  JobId max_id = 0;
  for (JobId id : order) max_id = std::max(max_id, id);
  rank_.assign(max_id + 1, std::numeric_limits<std::uint32_t>::max());
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    if (rank_[order[i]] != std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("duplicate job id in priority order");
    }
    rank_[order[i]] = i;
  }
}

PARSCHED_HOT void PriorityListScheduler::allocate(const SchedulerContext& ctx,
                                     Allocation& out) {
  const auto alive = ctx.alive();
  const std::size_t n = alive.size();
  const auto m = static_cast<std::size_t>(ctx.machines());
  out.reset(n);
  if (n == 0) return;
  idx_.resize(n);
  std::iota(idx_.begin(), idx_.end(), std::size_t{0});
  std::sort(idx_.begin(), idx_.end(), [&](std::size_t a, std::size_t b) {
    const JobId ia = alive.id(a);
    const JobId ib = alive.id(b);
    const auto ra = ia < rank_.size()
                        ? rank_[ia]
                        : std::numeric_limits<std::uint32_t>::max();
    const auto rb = ib < rank_.size()
                        ? rank_[ib]
                        : std::numeric_limits<std::uint32_t>::max();
    if (ra != rb) return ra < rb;
    return ia < ib;
  });
  if (n >= m) {
    for (std::size_t k = 0; k < m; ++k) out.grant(idx_[k], 1.0);
  } else {
    // One each, leftovers split evenly (keeps the schedule work-
    // conserving without concentrating on a single job).
    const double extra =
        static_cast<double>(m - n) / static_cast<double>(n);
    for (std::size_t k = 0; k < n; ++k) out.grant(idx_[k], 1.0 + extra);
  }
}

namespace {

double evaluate(const Instance& instance, const std::vector<JobId>& order) {
  PriorityListScheduler sched(order);
  return simulate(instance, sched).total_flow;
}

}  // namespace

SearchResult local_search_opt(const Instance& instance, int budget,
                              std::uint64_t seed) {
  const auto& jobs = instance.jobs();
  SearchResult result;
  result.best_flow = std::numeric_limits<double>::infinity();

  std::vector<std::vector<JobId>> seeds;
  {
    std::unordered_map<JobId, const Job*> by_id;
    std::vector<JobId> ids;
    for (const Job& j : jobs) {
      by_id[j.id] = &j;
      ids.push_back(j.id);
    }
    std::vector<JobId> by_size = ids;
    std::sort(by_size.begin(), by_size.end(), [&](JobId a, JobId b) {
      return by_id.at(a)->size < by_id.at(b)->size;
    });
    std::vector<JobId> by_release = ids;
    std::sort(by_release.begin(), by_release.end(), [&](JobId a, JobId b) {
      return by_id.at(a)->release < by_id.at(b)->release;
    });
    seeds.push_back(std::move(by_size));
    seeds.push_back(std::move(by_release));
  }
  Rng rng(seed);
  {
    std::vector<JobId> shuffled = seeds.front();
    for (int r = 0; r < 2; ++r) {
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1],
                  shuffled[static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
      }
      seeds.push_back(shuffled);
    }
  }

  for (const auto& start : seeds) {
    std::vector<JobId> order = start;
    double flow = evaluate(instance, order);
    ++result.evaluations;
    bool improved = true;
    while (improved && result.evaluations < budget) {
      improved = false;
      for (std::size_t i = 0;
           i + 1 < order.size() && result.evaluations < budget; ++i) {
        std::swap(order[i], order[i + 1]);
        const double f = evaluate(instance, order);
        ++result.evaluations;
        if (f < flow - 1e-12) {
          flow = f;
          improved = true;
        } else {
          std::swap(order[i], order[i + 1]);  // revert
        }
      }
    }
    if (flow < result.best_flow) {
      result.best_flow = flow;
      result.best_order = order;
    }
    if (result.evaluations >= budget) break;
  }
  return result;
}

}  // namespace parsched
