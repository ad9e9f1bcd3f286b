#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bcast/tree.hpp"
#include "logp/fib.hpp"
#include "logp/params.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/plan_key.hpp"
#include "sched/schedule.hpp"

/// \file implicit_plan.hpp
/// The one generator of the regular collective plans.
///
/// For the *regular* trees — the Section 2 optimal tree, its reversal (the
/// Section 4.2 reduction), the Section 5 summation, and the binomial /
/// binary / chain baselines — the whole structure is determined by
/// (P, L, o, g) (and, for the summation, n), and any single
/// rank's role can be recovered from the counting recurrences alone
/// (Träff, "Optimal Broadcast Schedules in Logarithmic Time",
/// arXiv:2407.18004).  An ImplicitPlan stores only those recurrence
/// tables — O(B) = O(log P) words for the optimal tree, O(log^2 P) for
/// the binomial — and answers per-node and per-rank queries on demand:
///
///  * optimal tree: the best-first materialization order of
///    `BroadcastTree::optimal` is exactly the total order by
///    (label, parent index, child rank).  With N(t) = reachable(params, t)
///    (the Definition 2.3 node-counting DP; f_t in the postal model) the
///    index -> label map is a binary search over the cumulative table, and
///    within one label the nodes split into per-child-rank classes whose
///    sizes are N-differences — a strided prefix-sum table over send slots
///    (stride g) resolves parent and children in O(log P).
///  * binomial tree: node indices are BFS order = (depth, lexicographic
///    rank path).  Subtree sizes under the halving construction collapse
///    to at most two values per depth, so a small table of depth-k
///    descendant counts per reachable size turns index <-> rank-path
///    conversion into combinatorial counting, O(log^2 P) per query.
///  * binary / chain: closed-form heap / successor arithmetic.
///  * reduce: the same optimal-tree decode, emitted time-reversed
///    (a parent->child send at tau becomes child->parent at B - label).
///  * summation: the optimal-tree decode on the (L+1, o, g) machine,
///    truncated to the n' cheapest nodes worth their receptions
///    (sum::summation_shape: t = sum::min_time_for_operands, n' =
///    min(N(t - o), P)) and emitted time-reversed against
///    the deadline: the node at label d sends at t - d.  Lemma 5.1 gives
///    its operands from d and its child count alone, so the operand layout
///    needs no tree either; ranks >= n' idle.
///
/// The Planner builds these six families from the decoder alone.  The
/// per-node builders (`BroadcastTree::optimal`, `bcast::optimal_reduction`,
/// `sum::optimal_summation`, `baselines::*_tree`) stay as the paper API and
/// the independent oracles:
/// node indices follow their order, and the property suite asserts
/// agreement node by node, schedule by schedule and instruction by
/// instruction.

namespace logpc::runtime {

/// Everything one rank does under an implicit plan, generated on demand.
/// The ops are exactly the materialized schedule's SendOps touching this
/// rank, in per-rank stream order (receives by payload-available cycle,
/// sends by start cycle).
struct RankSchedule {
  ProcId proc = kNoProc;
  /// Tree-node index (0 = tree root); -1 for a rank a summation leaves idle
  /// (it then has no parent and no ops).
  std::int64_t node = 0;
  std::int64_t parent_node = -1;  ///< -1 for the tree root
  ProcId parent = kNoProc;        ///< peer proc on the parent link
  int child_rank = 0;             ///< which child of the parent this node is
  /// Broadcast: the cycle the item lands here (0 at the root).  Reduce and
  /// summation: the cycle this rank's accumulator departs (== completion at
  /// the root).
  Time informed_at = 0;
  std::vector<SendOp> recvs;  ///< inbound ops (op.to == proc), time order
  std::vector<SendOp> sends;  ///< outbound ops (op.from == proc), time order
};

/// Compact generator form of a regular collective plan; immutable and
/// cheap to share.  Build once per PlanKey (the Planner caches it inside
/// the Plan), query from any thread.
class ImplicitPlan {
 public:
  /// True iff `key` has an implicit form: one of the six families
  /// kBroadcast, kReduce, kSummation, kBinomialBroadcast, kBinaryBroadcast
  /// or kChainBroadcast, with full membership (mask == 0).  Everything else
  /// falls back to the materialized IR.
  [[nodiscard]] static bool supports(const PlanKey& key);

  /// Builds the O(log P) tables for a supported key.  Throws
  /// std::invalid_argument when !supports(key), and for a summation the
  /// model cannot time (g < o + 1, or a deadline past the Time range).
  [[nodiscard]] static ImplicitPlan build(const PlanKey& key);

  [[nodiscard]] const PlanKey& plan_key() const { return key_; }
  [[nodiscard]] const Params& params() const { return key_.params; }
  /// True when the plan's sends run child -> parent, time-reversed:
  /// kReduce and kSummation.
  [[nodiscard]] bool is_reduction() const { return reverse_; }
  [[nodiscard]] bool is_summation() const { return summation_; }
  /// Nodes of the tree: P, except a summation's n' participants.
  [[nodiscard]] std::int64_t num_nodes() const { return P_; }

  /// The plan's exact completion cycle: B(P) for the optimal tree and its
  /// reversal, the tree makespan for the baselines, the deadline t for a
  /// summation.
  [[nodiscard]] Time completion() const { return completion_; }

  /// Summation: the operands summed by the deadline (Lemma 5.1,
  /// sum::max_operands); 0 for the other families.
  [[nodiscard]] std::uint64_t total_operands() const {
    return total_operands_;
  }

  /// The construction label a plan of this family carries (Plan::method).
  [[nodiscard]] const char* method() const { return method_; }

  /// Heap footprint of the recurrence tables (the whole point: O(log P),
  /// not O(P)).
  [[nodiscard]] std::size_t memory_bytes() const;

  // --- node-space queries ------------------------------------------------
  // Nodes are indexed in the materialized builder's deterministic order;
  // node 0 is the tree root.  All run in O(log P) (O(log^2 P) binomial).

  /// The node's broadcast delay relative to the root (TreeNode::label).
  [[nodiscard]] Time label(std::int64_t node) const;
  /// Parent node index; -1 for the root.
  [[nodiscard]] std::int64_t parent(std::int64_t node) const;
  /// Which child of its parent this node is (0 = oldest); 0 for the root.
  [[nodiscard]] int child_rank(std::int64_t node) const;
  /// Number of children of `node` inside the P-node tree.
  [[nodiscard]] int num_children(std::int64_t node) const;
  /// Index of the rank-i child, or -1 when that child falls outside the
  /// P-node tree.
  [[nodiscard]] std::int64_t child(std::int64_t node, int rank) const;

  // --- proc mapping ------------------------------------------------------
  // BroadcastTree::to_schedule's root swap: node 0 maps to the key's root,
  // the rest fill in index order skipping the root's id.  (A summation's
  // root is 0, so there proc == node.)

  [[nodiscard]] ProcId proc_of_node(std::int64_t node) const;
  /// The rank's node; -1 for a rank a summation leaves idle.
  [[nodiscard]] std::int64_t node_of_proc(ProcId proc) const;

  /// The full per-rank instruction pattern: O(log P) time and output size
  /// (out-degrees of all supported trees are O(log P)).
  [[nodiscard]] RankSchedule rank_schedule(ProcId proc) const;

  /// The plan's sends, one per tree edge, in the order of the top-down walk
  /// that to_schedule and to_tree share: parents in node-index order, each
  /// parent's children in rank order.  A broadcast send runs parent ->
  /// child; a reduction's or summation's runs child -> parent, so there
  /// each parent's receives come in reverse walk order.  O(P) time and
  /// output.
  [[nodiscard]] std::vector<SendOp> edge_sends() const;

  /// The whole schedule, equal to the per-node builder's (a summation's
  /// is SummationPlan::timing_view): one O(P) top-down walk plus a sort.
  /// Large-P callers should stay implicit.
  [[nodiscard]] Schedule to_schedule() const;
  /// The tree, node for node the builder's BroadcastTree (same walk).  For
  /// a summation that is the (L+1, o, g) tree it reverses,
  /// SummationPlan::reversed_tree.
  [[nodiscard]] bcast::BroadcastTree to_tree() const;

 private:
  enum class Family : std::uint8_t { kOptimal, kBinomial, kBinary, kChain };

  ImplicitPlan() = default;

  /// Visits every tree edge top-down as visit(parent, parent_label, child,
  /// rank): parents in index order, each parent's children in rank order.
  template <class Visit>
  void for_each_edge(Visit&& visit) const;
  /// for_each_edge in plan direction: emit(start, from, to) per send.
  template <class Emit>
  void for_each_send(Emit&& emit) const;

  /// Takes cum_ (N(t) of the tree's machine up to B(P_)) and derives
  /// strided_ from it.
  void build_optimal_tables(std::vector<Count> cum);
  void build_binomial_tables();

  // Optimal-tree helpers over the cumulative node-count table.
  [[nodiscard]] Count nodes_through(Time t) const;  ///< N(t); 0 for t < 0
  [[nodiscard]] Time label_of_index(std::int64_t node) const;
  struct OptParent {
    Time label = 0;
    std::int64_t parent = -1;
    int rank = 0;
  };
  /// One decode resolving label, parent index and child rank together.
  [[nodiscard]] OptParent optimal_parent(std::int64_t node) const;
  /// child(node, rank) given the node's label `ell`.
  [[nodiscard]] std::int64_t optimal_child(std::int64_t node, Time ell,
                                           int rank) const;

  // Binomial helpers.  A subtree of `size` nodes peels off halves of what
  // remains: its rank-j child roots floor(r_j / 2) nodes, where
  // r_j = ceil(size / 2^j), so it has ceil(log2 size) children.
  static constexpr int kMaxBinomialDepth = 32;  ///< ceil(log2 P), int P
  struct BinomialPath {
    int depth = 0;
    int size = 0;  ///< subtree size of the node the path ends at
    std::array<int, kMaxBinomialDepth> ranks{};  ///< ranks[0, depth)
  };
  [[nodiscard]] static int binomial_child_size(int size, int rank) {
    return (((size - 1) >> rank) + 1) / 2;
  }
  [[nodiscard]] static int binomial_num_children(int size) {
    return std::bit_width(static_cast<unsigned>(size - 1));
  }
  struct BinomialSubtree {
    std::vector<std::int64_t> counts;  ///< [k] = depth-k descendants
    Time max_label = 0;                ///< deepest label, root-relative
  };
  /// desc_[size], built (with every smaller reachable size) on first use.
  const BinomialSubtree& binomial_subtree(int size);
  [[nodiscard]] BinomialPath binomial_decode(std::int64_t node) const;
  [[nodiscard]] std::int64_t binomial_descendants(int size, int depth) const;
  [[nodiscard]] std::int64_t binomial_index(const BinomialPath& path,
                                            int depth) const;

  PlanKey key_;
  Family family_ = Family::kOptimal;
  bool reverse_ = false;    ///< emit time-reversed (kReduce, kSummation)
  bool summation_ = false;  ///< kSummation: reversed against the deadline
  const char* method_ = "";
  std::int64_t P_ = 1;  ///< tree nodes
  Time T_ = 0;  ///< transfer time L + 2o of the tree's machine
  Time g_ = 1;
  /// The anchor a reversed plan's sends are timed against (B, or the
  /// summation deadline t).
  Time completion_ = 0;
  std::uint64_t total_operands_ = 0;

  // kOptimal / reverse: cumulative node counts of the universal tree,
  // cum_[t] = N(t) for t in [0, B], plus the per-send-slot strided prefix
  // sums strided_[t] = (N(t) - N(t-1)) + strided_[t - g].  B = B(P_) is
  // the deepest label in the tree.
  std::vector<Count> cum_;
  std::vector<Count> strided_;

  // kBinomial: descendant counts per reachable subtree size.
  // desc_[size].counts[k] = number of depth-k descendants of a size-`size`
  // subtree root (counts[0] == 1); level_start_[d] = index of the first
  // depth-d node.  At most two sizes per halving depth are reachable, so
  // both tables are O(log^2 P).
  std::unordered_map<int, BinomialSubtree> desc_;
  std::vector<std::int64_t> level_start_;
};

/// The plan's schedule whether or not it was materialized: a copy of
/// plan.schedule when present, otherwise the implicit form materialized on
/// demand.  Throws std::logic_error for an implicit-only plan without an
/// ImplicitPlan (a corrupt entry).
[[nodiscard]] Schedule plan_schedule(const Plan& plan);

}  // namespace logpc::runtime
