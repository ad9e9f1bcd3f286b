#include "sim/implicit_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace logpc::sim {

namespace {

ImplicitRunResult violation(std::int64_t node, const std::string& what) {
  ImplicitRunResult r;
  r.error = "node " + std::to_string(node) + ": " + what;
  return r;
}

}  // namespace

ImplicitRunResult run_implicit(const runtime::ImplicitPlan& plan) {
  if (plan.is_summation()) {
    throw std::invalid_argument(
        "sim::run_implicit: summation plans have no broadcast-tree sweep");
  }
  const std::int64_t P = plan.num_nodes();
  const Time T = plan.params().transfer_time();
  const Time g = plan.params().g;
  Time makespan = 0;
  for (std::int64_t n = 1; n < P; ++n) {
    const std::int64_t p = plan.parent(n);
    if (p < 0 || p >= n) {
      return violation(n, "parent " + std::to_string(p) +
                              " does not precede its child");
    }
    const int rank = plan.child_rank(n);
    if (rank < 0) return violation(n, "negative child rank");
    const Time lab = plan.label(n);
    const Time expect = plan.label(p) + T + static_cast<Time>(rank) * g;
    if (lab != expect) {
      return violation(n, "label " + std::to_string(lab) +
                              " != parent label + T + rank*g (" +
                              std::to_string(expect) + ")");
    }
    if (plan.child(p, rank) != n) {
      return violation(n, "child(parent, rank) does not round-trip");
    }
    makespan = std::max(makespan, lab);
  }
  if (makespan != plan.completion()) {
    ImplicitRunResult r;
    r.error = "makespan " + std::to_string(makespan) +
              " != plan completion " + std::to_string(plan.completion());
    return r;
  }
  ImplicitRunResult r;
  r.makespan = makespan;
  r.messages = static_cast<std::uint64_t>(P - 1);
  r.ranks = static_cast<std::uint64_t>(P);
  r.ok = true;
  return r;
}

}  // namespace logpc::sim
