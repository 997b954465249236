#include "sched/registry.hpp"

#include <charconv>
#include <stdexcept>
#include <string>
#include <system_error>

#include "sched/equi.hpp"
#include "sched/greedy_hybrid.hpp"
#include "sched/intermediate_srpt.hpp"
#include "sched/nonclairvoyant.hpp"
#include "sched/parallel_srpt.hpp"
#include "sched/sequential_srpt.hpp"
#include "sched/variants.hpp"
#include "sched/weighted.hpp"

namespace parsched {

namespace {

/// The parameter of a "name:param" spec: the whole suffix after the ':',
/// read as one number (the policy's constructor checks its range), or
/// `fallback` when the spec has no ':'.
double spec_param(const std::string& spec, double fallback) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) return fallback;
  const char* const first = spec.data() + colon + 1;
  const char* const last = spec.data() + spec.size();
  double param = 0.0;
  const auto [end, ec] = std::from_chars(first, last, param);
  if (ec != std::errc{} || end != last || first == last) {
    throw std::invalid_argument("bad parameter in scheduler spec: " + spec);
  }
  return param;
}

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const std::string& spec) {
  if (spec == "isrpt") return std::make_unique<IntermediateSrpt>();
  if (spec == "seq-srpt") return std::make_unique<SequentialSrpt>();
  if (spec == "par-srpt") return std::make_unique<ParallelSrpt>();
  if (spec == "greedy") return std::make_unique<GreedyHybrid>();
  if (spec == "equi") return std::make_unique<Equi>();
  if (spec == "isrpt-boost") return std::make_unique<IsrptBoostShortest>();
  if (spec == "mlf") return std::make_unique<Mlf>();
  if (spec == "wisrpt") return std::make_unique<WeightedIsrpt>();
  const std::string name = spec.substr(0, spec.find(':'));
  if (name == "laps") return std::make_unique<Laps>(spec_param(spec, 0.5));
  if (name == "oldest-equi") {
    return std::make_unique<OldestEqui>(spec_param(spec, 0.5));
  }
  if (name == "setf") return std::make_unique<Setf>(spec_param(spec, 0.1));
  if (name == "isrpt-thresh") {
    return std::make_unique<IsrptThreshold>(spec_param(spec, 2.0));
  }
  if (name == "quantized-equi") {
    return std::make_unique<QuantizedEqui>(spec_param(spec, 0.25));
  }
  throw std::invalid_argument("unknown scheduler: " + spec);
}

std::vector<std::string> standard_policy_names() {
  return {"isrpt", "seq-srpt", "par-srpt", "greedy", "equi", "laps:0.5"};
}

}  // namespace parsched
