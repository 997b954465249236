// parsched — scheduler registry.
//
// Central place that knows every policy in the library; used by the
// examples ("--policy=..."), by the portfolio OPT upper bound, and by the
// policy-comparison benches.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simcore/scheduler.hpp"

namespace parsched {

/// Construct a scheduler by name. Supported names:
///   "isrpt"            Intermediate-SRPT (the paper's algorithm)
///   "seq-srpt"         Sequential-SRPT
///   "par-srpt"         Parallel-SRPT
///   "greedy"           the Section-3 natural greedy hybrid
///   "equi"             equipartition
///   "laps" / "laps:B"  LAPS with beta B (default 0.5)
///   "oldest-equi:B"    equipartition among the B-fraction oldest jobs
///                      (max-flow-time policy; default B = 0.5)
///   "setf" / "setf:Q"  shortest-elapsed-time-first with quantum Q
///   "mlf"              multi-level feedback (non-clairvoyant, exact)
///   "wisrpt"           Weighted Intermediate-SRPT (least remaining/weight)
///   "isrpt-thresh:T"   ISRPT with equipartition threshold theta = T
///   "isrpt-boost"      over-allocates leftovers to the shortest job
///   "quantized-equi:Q" round-robin EQUI with time quantum Q
/// A parameter is the whole suffix after the ':', read as one number, and
/// must lie in the policy's range (beta in (0, 1], theta >= 1, quanta
/// > 0; NaN in none). Throws std::invalid_argument on unknown names and
/// on a malformed or out-of-range parameter.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const std::string& name);

/// Names of the standard online policies the paper discusses (used by the
/// portfolio and comparison benches).
[[nodiscard]] std::vector<std::string> standard_policy_names();

}  // namespace parsched
