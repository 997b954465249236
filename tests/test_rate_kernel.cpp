// Tests for src/speedup/kernel.hpp — the batched rate kernel — and the
// engine's SoA alive-set mirror that feeds it.
//
// The contract under test, layer by layer:
//   * rate_batch is bit-identical to the scalar SpeedupCurve::rate()
//     loop it replaced — a pure layout change.
//   * The engine's AliveSoA mirror matches alive_ field-for-field under
//     any interleaving of admit / advance / complete / snapshot-import,
//     and its rate scratch holds Γ(share) for each support position of
//     the cached decision.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sched/registry.hpp"
#include "simcore/engine.hpp"
#include "simcore/instance.hpp"
#include "speedup/curve.hpp"
#include "speedup/kernel.hpp"
#include "util/rng.hpp"

namespace parsched {
namespace {

using speedup::rate_batch;

// A deterministic mixed population: all four kinds, α spread over (0, 1),
// shares spanning [0, x_max] including the x <= 1 boundary band.
struct Population {
  std::vector<SpeedupCurve> curves;
  std::vector<std::uint8_t> kinds;
  std::vector<double> alphas;
  std::vector<double> xs;
};

Population mixed_population(std::size_t n, double x_max, std::uint64_t seed) {
  Population p;
  Rng rng(seed);
  p.curves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        p.curves.push_back(SpeedupCurve::fully_parallel());
        break;
      case 1:
        p.curves.push_back(SpeedupCurve::sequential());
        break;
      case 2:
        p.curves.push_back(SpeedupCurve::power_law(rng.uniform(0.05, 0.95)));
        break;
      default:
        p.curves.push_back(
            SpeedupCurve::piecewise_linear({{2.0, 1.8}, {8.0, 3.0}}));
        break;
    }
    // Half the shares land in [0, 1.25] so the x <= 1 branch is dense.
    p.xs.push_back(rng.bernoulli(0.5) ? rng.uniform(0.0, 1.25)
                                      : rng.uniform(1.0, x_max));
  }
  for (const SpeedupCurve& c : p.curves) {
    p.kinds.push_back(static_cast<std::uint8_t>(c.kind()));
    p.alphas.push_back(c.alpha());
  }
  return p;
}

speedup::PwlRateFn pwl_from(const std::vector<SpeedupCurve>& curves) {
  return {[](const void* ctx, std::size_t i, double x) {
            const auto* cs = static_cast<const std::vector<SpeedupCurve>*>(ctx);
            return (*cs)[i].rate(x);
          },
          &curves};
}

TEST(RateKernel, DefaultArmBitIdenticalToScalarLoop) {
  const Population p = mixed_population(4096, 64.0, 0xA11CE);
  for (const double speed : {1.0, 1.5, 2.0}) {
    std::vector<double> out(p.xs.size());
    rate_batch(p.kinds, p.alphas, p.xs, speed, out, pwl_from(p.curves));
    for (std::size_t i = 0; i < p.xs.size(); ++i) {
      const double scalar = speed * p.curves[i].rate(p.xs[i]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(scalar))
          << "kind=" << static_cast<int>(p.kinds[i]) << " x=" << p.xs[i]
          << " speed=" << speed << " at i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine SoA mirror: property test over admit / advance / complete /
// snapshot-import interleavings.

/// `rates_computed`: the engine has computed the rates of its cached
/// decision (false right after a snapshot import, which recomputes them
/// at the first resume).
void expect_mirror_matches(const Engine& eng, bool rates_computed = true) {
  const AliveSoA& soa = eng.alive_soa();
  const EngineState st = eng.export_state();
  ASSERT_EQ(soa.size(), st.alive.size());
  // The rate scratch is reserved for the whole alive set at admission
  // and holds one rate per support position of the cached decision.
  const SupportRates& rates = eng.support_rates();
  ASSERT_GE(rates.rate.capacity(), st.alive.size());
  ASSERT_GE(rates.share.capacity(), st.alive.size());
  if (st.has_cached_alloc && rates_computed) {
    const Allocation& alloc = st.cached_alloc;
    const std::size_t k =
        alloc.dense() ? st.alive.size() : alloc.support().size();
    ASSERT_EQ(rates.rate.size(), k);
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = alloc.dense() ? j : alloc.support()[j];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rates.rate[j]),
                std::bit_cast<std::uint64_t>(
                    st.alive[i].curve.rate(alloc.shares()[i])))
          << "rate mismatch at support position " << j;
    }
  }
  for (std::size_t i = 0; i < st.alive.size(); ++i) {
    const AliveJob& a = st.alive[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(soa.remaining[i]),
              std::bit_cast<std::uint64_t>(a.remaining))
        << "remaining mismatch at i=" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(soa.release[i]),
              std::bit_cast<std::uint64_t>(a.release))
        << "release mismatch at i=" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(soa.alpha[i]),
              std::bit_cast<std::uint64_t>(a.curve.alpha()))
        << "alpha mismatch at i=" << i;
    EXPECT_EQ(soa.kind[i], static_cast<std::uint8_t>(a.curve.kind()))
        << "kind mismatch at i=" << i;
  }
}

Job random_job(Rng& rng, JobId id, double release) {
  Job j;
  j.id = id;
  j.release = release;
  j.size = rng.uniform(0.2, 3.0);
  switch (rng.uniform_int(0, 4)) {
    case 0:
      j.curve = SpeedupCurve::fully_parallel();
      break;
    case 1:
      j.curve = SpeedupCurve::sequential();
      break;
    case 2:
      j.curve = SpeedupCurve::power_law(rng.uniform(0.1, 0.9));
      break;
    case 3:
      j.curve = SpeedupCurve::piecewise_linear({{2.0, 1.5}, {4.0, 2.0}});
      break;
    default:
      // Multi-phase: the phase switch rewrites the live curve, which the
      // SoA mirror must track (Engine's soa_.set_curve sync site).
      return make_phased_job(
          id, release,
          {{rng.uniform(0.2, 1.0), SpeedupCurve::power_law(0.3)},
           {rng.uniform(0.2, 1.0), SpeedupCurve::sequential()},
           {rng.uniform(0.2, 1.0), SpeedupCurve::fully_parallel()}});
  }
  return j;
}

TEST(EngineSoA, MirrorTracksAliveSetUnderInterleaving) {
  auto eng = std::make_unique<Engine>(4);
  auto sched = make_scheduler("isrpt");
  eng->begin(*sched);

  Rng rng(0x50A1);
  JobId next_id = 0;
  std::size_t admitted = 0;
  for (int step = 0; step < 160; ++step) {
    const double frontier = eng->frontier();
    const auto n_admit = rng.uniform_int(0, 2);
    for (int k = 0; k < n_admit; ++k) {
      eng->admit(random_job(rng, next_id++, frontier + rng.uniform(0.0, 1.0)));
      ++admitted;
    }
    eng->advance_to(frontier + rng.uniform(0.05, 0.9));
    expect_mirror_matches(*eng);

    if (step % 40 == 17) {
      // Snapshot round-trip into a fresh engine mid-run: import_state
      // must rebuild the mirror from the restored alive set.
      const EngineState st = eng->export_state();
      auto eng2 = std::make_unique<Engine>(4);
      auto sched2 = make_scheduler("isrpt");
      eng2->import_state(st, *sched2);
      expect_mirror_matches(*eng2, /*rates_computed=*/false);
      eng = std::move(eng2);
      sched = std::move(sched2);
    }
  }
  const SimResult r = eng->finish();
  EXPECT_EQ(r.jobs(), admitted);
}

}  // namespace
}  // namespace parsched
