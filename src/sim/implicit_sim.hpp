#pragma once

#include <cstdint>
#include <string>

#include "runtime/implicit_plan.hpp"

/// \file implicit_sim.hpp
/// Full-scale structural simulation of an implicit plan, without ever
/// materializing a Schedule.  Where sim::Engine replays per-op IR, this
/// sweeps every node of the generator form — O(P log P) time, O(1) memory —
/// checking the tree invariants rank by rank and accumulating the makespan.
/// It is what lets CI "simulate P = 1M" inside a laptop-sized budget.

namespace logpc::sim {

struct ImplicitRunResult {
  Time makespan = 0;          ///< max over nodes of the informed/depart time
  std::uint64_t messages = 0; ///< tree edges traversed (== P - 1)
  std::uint64_t ranks = 0;    ///< nodes swept (== P)
  bool ok = false;            ///< all invariants held
  std::string error;          ///< first violation, empty when ok
};

/// Sweeps all P nodes of `plan`, verifying for each non-root node n that
///  * parent(n) is a valid earlier node (index < n),
///  * label(n) == label(parent) + T + child_rank(n) * g (the LogP timing
///    rule), and
///  * child(parent(n), child_rank(n)) == n (decode round-trips),
/// and that the max label equals plan.completion().  Returns ok == false
/// with a description on the first violation.  Throws
/// std::invalid_argument for a summation plan, whose tree lives on the
/// (L+1) machine and whose completion is its deadline, not a label.
[[nodiscard]] ImplicitRunResult run_implicit(const runtime::ImplicitPlan& plan);

}  // namespace logpc::sim
