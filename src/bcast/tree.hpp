#pragma once

#include <map>
#include <vector>

#include "logp/fib.hpp"
#include "logp/params.hpp"
#include "sched/schedule.hpp"

/// \file tree.hpp
/// The universal optimal broadcast tree of Section 2.
///
/// Definition 2.3: the infinite labelled ordered tree in which the root has
/// label 0 and a node labelled t has children labelled t + i*g + L + 2o for
/// i >= 0.  Definition 2.4: the optimal P-processor broadcast tree B(P) is
/// the rooted subtree consisting of the P smallest-labelled nodes (ties
/// broken arbitrarily).  Theorem 2.1: B(P) is optimal for single-item
/// broadcast; its maximum label is the broadcast complexity B(P; L, o, g).

namespace logpc::bcast {

/// One node of a broadcast tree.  Node 0 is always the root.
struct TreeNode {
  Time label = 0;   ///< delay: cycle (relative to the root's) the node is informed
  int parent = -1;  ///< node index of the parent, -1 for the root
  int rank = 0;     ///< which child of the parent (0 = oldest); the parent
                    ///< starts this child's send at parent.label + rank * g
  std::vector<int> children;  ///< node indices, ordered by rank
};

/// A finite prefix of the universal optimal broadcast tree, or any other
/// labelled broadcast tree (baselines reuse this shape).
class BroadcastTree {
 public:
  /// Builds B(P): the P cheapest nodes of the universal tree (Def. 2.4).
  /// Ties are broken deterministically (older parents, lower ranks first).
  static BroadcastTree optimal(const Params& params, int P);

  /// Builds the *t-step* universal tree: every node with label <= t.
  /// Throws std::invalid_argument if that tree would exceed `max_nodes`.
  static BroadcastTree up_to(const Params& params, Time t,
                             std::size_t max_nodes = 1u << 22);

  /// Assembles a tree from explicit parent links (baselines use this).
  /// parents[0] must be -1; labels are computed from the LogP timing given
  /// each parent sends to its children in rank order as early as possible.
  static BroadcastTree from_parents(const Params& params,
                                    const std::vector<int>& parents);

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const TreeNode& node(int i) const {
    return nodes_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Max label = broadcast completion time B(P) when this is the optimal
  /// tree.
  [[nodiscard]] Time makespan() const;

  /// Histogram: out-degree r -> number of nodes with exactly r children.
  /// Internal nodes (r >= 1) induce the r-blocks of Section 3.2/3.4.
  [[nodiscard]] std::map<int, int> degree_histogram() const;

  /// Histogram: leaf label -> number of leaves with that label.  In the
  /// postal model the t-step tree has leaves at exactly the L distinct
  /// delays t, t-1, ..., t-L+1 — the lower-case letters of Section 3.2.
  [[nodiscard]] std::map<Time, int> leaf_delay_histogram() const;

  /// Emits the broadcast of `item` as a schedule fragment into `out`:
  /// node i is processor proc_of_node[i]; the root holds the item at
  /// `start` (no initial placement is added — callers own that), and each
  /// parent sends to its rank-i child at (parent availability) + i*g.
  void emit(Schedule& out, ItemId item, Time start,
            const std::vector<ProcId>& proc_of_node) const;

  /// Convenience: a complete single-item broadcast schedule from processor
  /// `source`, assigning remaining processors to nodes in label order.
  [[nodiscard]] Schedule to_schedule(ProcId source = 0) const;

 private:
  Params params_{};
  std::vector<TreeNode> nodes_;
};

/// Number of processors reachable by single-item broadcast in t cycles,
/// P(t; L, o, g), computed by dynamic programming on the universal tree
/// (saturating at kSaturated).  In the postal model this equals f_t
/// (Theorem 2.2).
[[nodiscard]] Count reachable(const Params& params, Time t);

/// The whole prefix of the reachability DP in one pass: out[u] = N(u) =
/// reachable(params, u) for u in [0, t] (out.size() == t + 1).
[[nodiscard]] std::vector<Count> reachable_prefix(const Params& params,
                                                  Time t);

/// The prefix that first covers P processors, grown in one pass:
/// reachable_prefix(params, B) for B = B_of_P(params, P), so out.back() >= P
/// and every earlier entry is < P.  The planners key their tables off it.
[[nodiscard]] std::vector<Count> reachable_until(const Params& params, int P);

/// The single-item broadcast complexity B(P; L, o, g): the least t with
/// reachable(t) >= P (the last index of reachable_until).
[[nodiscard]] Time B_of_P(const Params& params, int P);

}  // namespace logpc::bcast
