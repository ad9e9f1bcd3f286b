#include "sum/summation_tree.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace logpc::sum {

Schedule SummationPlan::timing_view() const {
  Schedule s(params, 1);
  for (ProcId p = 0; p < params.P; ++p) s.add_initial(0, p, 0);
  for (const auto& pp : procs) {
    if (pp.send_to == kNoProc) continue;
    s.add_send(pp.send_time, pp.proc, pp.send_to, 0);
  }
  s.sort();
  return s;
}

Params reversal_params(const Params& params) {
  return Params{params.P, params.L + 1, params.o, params.g};
}

SummationPlan plan_from_tree(const Params& params, const BroadcastTree& tree,
                             Time t) {
  params.require_valid();
  if (t < 0) throw std::invalid_argument("plan_from_tree: t >= 0");
  if (params.g < params.o + 1) {
    throw std::invalid_argument(
        "summation: requires g >= o + 1 (a reception's o+1 cycles must fit "
        "inside one gap)");
  }
  if (tree.params() != reversal_params(params)) {
    throw std::invalid_argument(
        "plan_from_tree: tree must be built on reversal_params(params)");
  }
  if (tree.makespan() > t) {
    throw std::invalid_argument("plan_from_tree: tree makespan exceeds t");
  }
  if (tree.size() > params.P) {
    throw std::invalid_argument("plan_from_tree: tree larger than machine");
  }

  SummationPlan plan;
  plan.params = params;
  plan.t = t;
  plan.root = 0;
  plan.reversed_tree = tree;
  const int n_nodes = tree.size();
  plan.procs.resize(static_cast<std::size_t>(n_nodes));

  for (int i = 0; i < n_nodes; ++i) {
    auto& pp = plan.procs[static_cast<std::size_t>(i)];
    pp.proc = static_cast<ProcId>(i);
    const auto& node = tree.node(i);
    pp.send_time = t - node.label;
    pp.send_to =
        node.parent == -1 ? kNoProc : static_cast<ProcId>(node.parent);
    // Receptions: the broadcast send to child rank r at (label + r*g)
    // becomes, reversed, a reception whose o+1 cycles (overhead + one
    // addition) finish exactly at send_time - r*g.  Chronological order
    // puts the highest rank first.
    const auto k = static_cast<Time>(node.children.size());
    for (Time r = k - 1; r >= 0; --r) {
      pp.recv_times.push_back((t - node.label) - r * params.g -
                              (params.o + 1));
      pp.recv_from.push_back(
          static_cast<ProcId>(node.children[static_cast<std::size_t>(r)]));
    }
    plan.total_operands =
        sat_add(plan.total_operands, pp.local_operands(params.o));
  }
  return plan;
}

namespace {

/// Lemma 5.1 summed over the optimal plan without building it.  The n
/// participants are the n cheapest nodes of the (L+1, o, g) universal tree
/// with label <= t - o, and they have n - 1 receptions between them, so
///
///   max_operands(t) = n(t + 1) - sum(labels) - (o + 1)(n - 1)
///                   = n(t - o) - sum(labels) + o + 1.
///
/// The tables stop at B = B(P) of the reversed machine: from t = B + o on,
/// the participants are the same P nodes and the count is affine in t.
class OperandCount {
 public:
  explicit OperandCount(const Params& params)
      : o_(params.o), P_(static_cast<Count>(params.P)) {
    params.require_valid();
    if (params.g < params.o + 1) {
      throw std::invalid_argument(
          "summation: requires g >= o + 1 (a reception's o+1 cycles must fit "
          "inside one gap)");
    }
    const Params rev = reversal_params(params);
    nodes_ = bcast::reachable_until(rev, params.P);
    label_sum_.resize(nodes_.size());
    Count sum = 0;
    for (std::size_t u = 0; u < nodes_.size(); ++u) {
      const Count at_u = nodes_[u] - (u == 0 ? Count{0} : nodes_[u - 1]);
      sum += at_u * u;
      label_sum_[u] = sum;
    }
  }

  /// The participants of the optimal plan for deadline t >= 0.  A node at
  /// label d nets t - d - o operands beyond its reception cost, so nodes
  /// with d > t - o would subtract from the total; the root (label 0)
  /// always participates, alone when t < o.  Past B(P) all P processors
  /// are reachable, so no longer table is needed.
  [[nodiscard]] int participants(Time t) const {
    const auto u = static_cast<std::size_t>(
        std::min<Time>(std::max<Time>(0, t - o_), last_label()));
    return static_cast<int>(std::min(nodes_[u], P_));
  }

  /// N(u) for u up to the deepest label among the first `nodes` nodes.
  [[nodiscard]] std::vector<Count> reachable_through(int nodes) const {
    const auto end = std::lower_bound(nodes_.begin(), nodes_.end(),
                                      static_cast<Count>(nodes));
    return {nodes_.begin(), end + 1};
  }

  /// max_operands(params, t) for t >= 0, saturating at kSaturated exactly
  /// as plan_from_tree's running sat_add does.
  [[nodiscard]] Count at(Time t) const {
    if (t < o_) return static_cast<Count>(t) + 1;  // the root alone
    const Time horizon = t - o_;
    const auto u = static_cast<std::size_t>(
        std::min<Time>(horizon, last_label()));
    const Count n = std::min(nodes_[u], P_);
    // Nodes past the P-th all carry label u (only possible at u = B).
    const Count labels = label_sum_[u] - (nodes_[u] - n) * u;
    Count spans = 0;  // n(t - o) >= labels: every counted label is <= t - o
    if (__builtin_mul_overflow(n, static_cast<Count>(horizon), &spans)) {
      return kSaturated;
    }
    return sat_add(spans - labels, static_cast<Count>(o_) + 1);
  }

  /// min_time_for_operands(params, n) for n >= 1.
  [[nodiscard]] Time min_time(Count n) const {
    const Time full = last_label() + o_;  // first t with all P nodes in
    if (at(full) >= n) {
      Time lo = 0;
      Time hi = full;
      while (lo < hi) {
        const Time mid = lo + (hi - lo) / 2;
        if (at(mid) >= n) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      return lo;
    }
    // Least t with P(t - o) - labels + o + 1 >= n, i.e.
    // t - o = ceil((n - o - 1 + labels) / P), split so nothing overflows
    // (n > at(full) >= o + 1).
    const auto B = static_cast<std::size_t>(last_label());
    const Count labels = label_sum_[B] - (nodes_[B] - P_) * B;
    const Count need = n - (static_cast<Count>(o_) + 1);
    const Count span = need / P_ + (need % P_ + labels + P_ - 1) / P_;
    if (span > static_cast<Count>(std::numeric_limits<Time>::max() - o_)) {
      throw std::invalid_argument(
          "min_time_for_operands: deadline exceeds the Time range");
    }
    return o_ + static_cast<Time>(span);
  }

 private:
  [[nodiscard]] Time last_label() const {
    return static_cast<Time>(nodes_.size()) - 1;
  }

  Time o_;
  Count P_;
  std::vector<Count> nodes_;      ///< N(u) of the reversed machine, u <= B
  std::vector<Count> label_sum_;  ///< sum of the labels counted in nodes_[u]
};

}  // namespace

Count max_operands(const Params& params, Time t) {
  if (t < 0) throw std::invalid_argument("max_operands: t >= 0");
  return OperandCount(params).at(t);
}

Time min_time_for_operands(const Params& params, Count n) {
  if (n < 1) throw std::invalid_argument("min_time_for_operands: n >= 1");
  return OperandCount(params).min_time(n);
}

SummationPlan optimal_summation(const Params& params, Time t) {
  params.require_valid();
  if (t < 0) throw std::invalid_argument("optimal_summation: t >= 0");
  return plan_from_tree(
      params,
      BroadcastTree::optimal(reversal_params(params),
                             OperandCount(params).participants(t)),
      t);
}

SummationShape summation_shape(const Params& params, Count n) {
  if (n < 1) throw std::invalid_argument("summation_shape: n >= 1");
  const OperandCount count(params);
  SummationShape shape;
  shape.t = count.min_time(n);
  shape.total_operands = count.at(shape.t);
  shape.participants = count.participants(shape.t);
  shape.reachable = count.reachable_through(shape.participants);
  return shape;
}

}  // namespace logpc::sum
