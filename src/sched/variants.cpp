#include "sched/variants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "check/contract.hpp"

namespace parsched {

IsrptThreshold::IsrptThreshold(double theta) : theta_(theta) {
  if (theta < 1.0) throw std::invalid_argument("theta must be >= 1");
}

std::string IsrptThreshold::name() const {
  std::ostringstream os;
  os << "ISRPT-Threshold(" << theta_ << ")";
  return os.str();
}

PARSCHED_HOT void IsrptThreshold::allocate(const SchedulerContext& ctx,
                                           Allocation& out) {
  const std::size_t n = ctx.alive().size();
  const auto m = static_cast<std::size_t>(ctx.machines());
  if (n > 0 && static_cast<double>(n) < theta_ * static_cast<double>(m)) {
    // Equipartition over all alive jobs (shares may be < 1 when n > m,
    // which is exactly the behaviour the theta knob is probing).
    out.fill(n, static_cast<double>(ctx.machines()) / static_cast<double>(n));
    return;
  }
  // Sequential mode: the m shortest jobs get one machine each.
  out.reset(n);
  if (n == 0) return;
  for (std::size_t i : ctx.smallest_remaining(m)) out.grant(i, 1.0);
}

PARSCHED_HOT void IsrptBoostShortest::allocate(const SchedulerContext& ctx,
                                  Allocation& out) {
  const std::size_t n = ctx.alive().size();
  const auto m = static_cast<std::size_t>(ctx.machines());
  out.reset(n);
  if (n == 0) return;
  const auto order = ctx.smallest_remaining(std::min(n, m));
  for (std::size_t i : order) out.grant(i, 1.0);
  if (n < m) {
    // One processor each; the shortest job hoards all leftovers.
    out.grant(order.front(), 1.0 + static_cast<double>(m - n));
  }
}

QuantizedEqui::QuantizedEqui(double quantum) : quantum_(quantum) {
  if (!(quantum > 0.0)) throw std::invalid_argument("quantum must be > 0");
}

std::string QuantizedEqui::name() const {
  std::ostringstream os;
  os << "Quantized-EQUI(q=" << quantum_ << ")";
  return os.str();
}

PARSCHED_HOT void QuantizedEqui::allocate(const SchedulerContext& ctx,
                                          Allocation& out) {
  const std::size_t n = ctx.alive().size();
  const auto m = static_cast<std::size_t>(ctx.machines());
  out.reset(n);
  if (n == 0) return;
  // Stable order by arrival sequence so rotation is deterministic: the
  // earliest-first position i is the latest-first span read backwards
  // (latest[n-1-i]) — same sequence the old reversed copy produced,
  // without mutating (or copying) the shared cached order.
  const auto latest = ctx.latest_arrivals(n);
  const auto earliest = [&](std::size_t i) { return latest[n - 1 - i]; };
  if (n <= m) {
    // Whole processors, remainder rotated round-robin by arrival sequence.
    const std::size_t base = m / n;
    const std::size_t extra = m % n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t rotated = (i + round_) % n;
      out.grant(earliest(rotated),
                static_cast<double>(base + (i < extra ? 1 : 0)));
    }
  } else {
    // More jobs than machines: rotate which m jobs run this quantum.
    for (std::size_t i = 0; i < m; ++i) {
      out.grant(earliest((i + round_) % n), 1.0);
    }
  }
  ++round_;
  out.reconsider_at = ctx.time() + quantum_;
}

std::string QuantizedEqui::save_state() const {
  return std::to_string(round_);
}

void QuantizedEqui::load_state(const std::string& state) {
  std::size_t used = 0;
  std::uint64_t round = 0;
  try {
    round = std::stoull(state, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != state.size()) {
    throw std::invalid_argument("bad quantized-equi state: '" + state + "'");
  }
  round_ = round;
}

}  // namespace parsched
