#include "runtime/implicit_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sum/summation_tree.hpp"

namespace logpc::runtime {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("ImplicitPlan: " + what);
}

void check_node(std::int64_t node, std::int64_t P, const char* where) {
  if (node < 0 || node >= P) {
    throw std::out_of_range(std::string("ImplicitPlan::") + where +
                            ": node out of range");
  }
}

}  // namespace

bool ImplicitPlan::supports(const PlanKey& key) {
  if (key.mask != 0) return false;  // degraded membership stays materialized
  switch (key.problem) {
    case Problem::kBroadcast:
    case Problem::kReduce:
    case Problem::kSummation:
    case Problem::kBinomialBroadcast:
    case Problem::kBinaryBroadcast:
    case Problem::kChainBroadcast:
      return true;
    default:
      return false;
  }
}

ImplicitPlan ImplicitPlan::build(const PlanKey& key) {
  if (!supports(key)) fail("no implicit form for " + key.to_string());
  key.params.require_valid();
  ImplicitPlan plan;
  plan.key_ = key;
  plan.P_ = key.params.P;
  plan.T_ = key.params.transfer_time();
  plan.g_ = key.params.g;
  switch (key.problem) {
    case Problem::kReduce:
    case Problem::kBroadcast:
      plan.reverse_ = key.problem == Problem::kReduce;
      plan.family_ = Family::kOptimal;
      plan.method_ = plan.reverse_ ? "reversed optimal tree (Sec 4.2)"
                                   : "optimal tree (Thm 2.1)";
      plan.build_optimal_tables(
          bcast::reachable_until(key.params, key.params.P));
      plan.completion_ = static_cast<Time>(plan.cum_.size()) - 1;
      break;
    case Problem::kSummation: {
      // Section 5: the optimal (L+1, o, g) tree on the n' processors worth
      // their receptions, reversed against the least deadline for n.
      sum::SummationShape shape =
          sum::summation_shape(key.params, static_cast<Count>(key.k));
      plan.reverse_ = true;
      plan.summation_ = true;
      plan.family_ = Family::kOptimal;
      plan.method_ = "reversed (L+1) tree (Sec 5)";
      plan.P_ = shape.participants;
      plan.T_ = sum::reversal_params(key.params).transfer_time();
      plan.build_optimal_tables(std::move(shape.reachable));
      plan.completion_ = shape.t;
      plan.total_operands_ = static_cast<std::uint64_t>(shape.total_operands);
      break;
    }
    case Problem::kBinomialBroadcast:
      plan.family_ = Family::kBinomial;
      plan.method_ = "binomial tree";
      plan.build_binomial_tables();
      break;
    case Problem::kBinaryBroadcast: {
      plan.family_ = Family::kBinary;
      plan.method_ = "binary tree";
      // A heap node at depth d, offset j in its level, has label
      // d*T + popcount(j)*g.  Levels above the last, D, are full (best:
      // all right, (D-1)(T+g)); the last holds offsets 0..m.
      const auto P = static_cast<std::uint64_t>(plan.P_);
      const Time D = std::bit_width(P) - 1;
      const std::uint64_t m = P - (std::uint64_t{1} << D);
      const Time right =
          std::max<Time>(std::popcount(m), std::bit_width(m) - 1);
      plan.completion_ = std::max(D * plan.T_ + right * plan.g_,
                                  (D - 1) * (plan.T_ + plan.g_));
      break;
    }
    case Problem::kChainBroadcast:
      plan.family_ = Family::kChain;
      plan.method_ = "linear chain";
      plan.completion_ = static_cast<Time>(plan.P_ - 1) * plan.T_;
      break;
    default:
      fail("no implicit form");  // unreachable: supports() screened
  }
  return plan;
}

// ---- optimal tree (Section 2) -------------------------------------------
//
// BroadcastTree::optimal materializes the universal tree best-first with
// the tie-break (label, parent index, child rank), so node indices follow
// that total order exactly.  With N(t) nodes of label <= t:
//  * label(n) is the least t with N(t) > n (binary search over cum_);
//  * within label l, nodes split into classes by child rank i, parent
//    label lam = l - T - i*g.  All classes share the send-slot residue
//    (l - T) mod g, and ascending lam = ascending parent index, so the
//    class order is ascending lam and class sizes are N-differences.  The
//    strided table strided_[t] = cnt(t) + strided_[t - g] gives running
//    class totals in O(1), leaving one binary search per decode.

void ImplicitPlan::build_optimal_tables(std::vector<Count> cum) {
  cum_ = std::move(cum);
  strided_.resize(cum_.size());
  const auto stride = static_cast<std::size_t>(g_);
  for (std::size_t t = 0; t < cum_.size(); ++t) {
    const Count cnt = cum_[t] - (t == 0 ? Count{0} : cum_[t - 1]);
    strided_[t] = cnt + (t >= stride ? strided_[t - stride] : Count{0});
  }
}

Count ImplicitPlan::nodes_through(Time t) const {
  if (t < 0) return 0;
  return cum_[static_cast<std::size_t>(t)];
}

Time ImplicitPlan::label_of_index(std::int64_t node) const {
  const auto it = std::upper_bound(cum_.begin(), cum_.end(),
                                   static_cast<Count>(node));
  return static_cast<Time>(it - cum_.begin());
}

ImplicitPlan::OptParent ImplicitPlan::optimal_parent(std::int64_t node) const {
  OptParent out;
  out.label = label_of_index(node);
  if (node == 0) return out;
  const Time ell = out.label;
  const Count j = static_cast<Count>(node) - nodes_through(ell - 1);
  const Time i_max = (ell - T_) / g_;
  const Time lam_min = ell - T_ - i_max * g_;
  // Least class label lam whose running total strided_[lam] exceeds j.
  Time lo = 0;
  Time hi = i_max;
  while (lo < hi) {
    const Time mid = lo + (hi - lo) / 2;
    if (strided_[static_cast<std::size_t>(lam_min + mid * g_)] > j) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const Time lam = lam_min + lo * g_;
  const Count preceding =
      lam >= g_ ? strided_[static_cast<std::size_t>(lam - g_)] : Count{0};
  out.rank = static_cast<int>((ell - T_ - lam) / g_);
  out.parent =
      static_cast<std::int64_t>(nodes_through(lam - 1) + (j - preceding));
  return out;
}

std::int64_t ImplicitPlan::optimal_child(std::int64_t node, Time ell,
                                         int rank) const {
  const Time c = ell + T_ + static_cast<Time>(rank) * g_;
  // Label beyond B(P_) = the last table entry: outside the tree.
  if (c >= static_cast<Time>(cum_.size())) return -1;
  const Count before_classes =
      ell >= g_ ? strided_[static_cast<std::size_t>(ell - g_)] : Count{0};
  const Count idx = nodes_through(c - 1) + before_classes +
                    (static_cast<Count>(node) - nodes_through(ell - 1));
  return idx < static_cast<Count>(P_) ? static_cast<std::int64_t>(idx) : -1;
}

// ---- binomial tree (baselines::binomial_tree) ---------------------------
//
// The halving construction assigns indices in BFS order, and within the
// tree each node's children are created rank-0-first, so index order is
// (depth, lexicographic rank path).  Every subtree size along any peel
// chain lies in {floor(P/2^h), ceil(P/2^h)} — at most two per depth — so
// desc_ (depth-k descendant counts per reachable size) stays O(log^2 P)
// and index <-> path conversion is combinatorial counting over it.

std::int64_t ImplicitPlan::binomial_descendants(int size, int depth) const {
  const auto& counts = desc_.at(size).counts;
  if (depth < 0 || depth >= static_cast<int>(counts.size())) return 0;
  return counts[static_cast<std::size_t>(depth)];
}

const ImplicitPlan::BinomialSubtree& ImplicitPlan::binomial_subtree(int size) {
  if (const auto it = desc_.find(size); it != desc_.end()) return it->second;
  BinomialSubtree sub;
  sub.counts.push_back(1);  // depth 0: the node itself
  for (int j = 0; j < binomial_num_children(size); ++j) {
    // unordered_map references survive the insertions below.
    const BinomialSubtree& child =
        binomial_subtree(binomial_child_size(size, j));
    sub.counts.resize(std::max(sub.counts.size(), child.counts.size() + 1), 0);
    for (std::size_t k = 0; k < child.counts.size(); ++k) {
      sub.counts[k + 1] += child.counts[k];
    }
    sub.max_label = std::max(
        sub.max_label, T_ + static_cast<Time>(j) * g_ + child.max_label);
  }
  return desc_.emplace(size, std::move(sub)).first->second;
}

void ImplicitPlan::build_binomial_tables() {
  const BinomialSubtree& root = binomial_subtree(static_cast<int>(P_));
  completion_ = root.max_label;
  level_start_.assign(1, 0);
  for (const std::int64_t count : root.counts) {
    level_start_.push_back(level_start_.back() + count);
  }
  if (level_start_.back() != P_) fail("binomial level counts do not sum to P");
}

ImplicitPlan::BinomialPath ImplicitPlan::binomial_decode(
    std::int64_t node) const {
  const auto it =
      std::upper_bound(level_start_.begin(), level_start_.end(), node);
  const int depth = static_cast<int>(it - level_start_.begin()) - 1;
  std::int64_t offset = node - level_start_[static_cast<std::size_t>(depth)];
  BinomialPath path;
  path.depth = depth;
  path.size = static_cast<int>(P_);
  for (int e = 0; e < depth; ++e) {
    int j = 0;
    for (;; ++j) {
      const std::int64_t under = binomial_descendants(
          binomial_child_size(path.size, j), depth - 1 - e);
      if (offset < under) break;
      offset -= under;
    }
    path.ranks[static_cast<std::size_t>(e)] = j;
    path.size = binomial_child_size(path.size, j);
  }
  return path;
}

std::int64_t ImplicitPlan::binomial_index(const BinomialPath& path,
                                          int depth) const {
  // Index of the length-`depth` prefix of `path`: level start plus the
  // count of depth-`depth` nodes with a lexicographically smaller path.
  std::int64_t within = 0;
  int size = static_cast<int>(P_);
  for (int e = 0; e < depth; ++e) {
    const int je = path.ranks[static_cast<std::size_t>(e)];
    for (int j = 0; j < je; ++j) {
      within += binomial_descendants(binomial_child_size(size, j),
                                     depth - 1 - e);
    }
    size = binomial_child_size(size, je);
  }
  return level_start_[static_cast<std::size_t>(depth)] + within;
}

// ---- node-space queries -------------------------------------------------

Time ImplicitPlan::label(std::int64_t node) const {
  check_node(node, P_, "label");
  switch (family_) {
    case Family::kOptimal:
      return label_of_index(node);
    case Family::kBinomial: {
      const BinomialPath path = binomial_decode(node);
      Time lab = 0;
      for (int e = 0; e < path.depth; ++e) {
        const int rank = path.ranks[static_cast<std::size_t>(e)];
        lab += T_ + static_cast<Time>(rank) * g_;
      }
      return lab;
    }
    case Family::kBinary: {
      Time lab = 0;
      for (std::int64_t n = node; n != 0; n = (n - 1) / 2) {
        lab += T_ + static_cast<Time>((n - 1) % 2) * g_;
      }
      return lab;
    }
    case Family::kChain:
      return static_cast<Time>(node) * T_;
  }
  return 0;  // unreachable
}

std::int64_t ImplicitPlan::parent(std::int64_t node) const {
  check_node(node, P_, "parent");
  if (node == 0) return -1;
  switch (family_) {
    case Family::kOptimal:
      return optimal_parent(node).parent;
    case Family::kBinomial: {
      const BinomialPath path = binomial_decode(node);
      return binomial_index(path, path.depth - 1);
    }
    case Family::kBinary:
      return (node - 1) / 2;
    case Family::kChain:
      return node - 1;
  }
  return -1;  // unreachable
}

int ImplicitPlan::child_rank(std::int64_t node) const {
  check_node(node, P_, "child_rank");
  if (node == 0) return 0;
  switch (family_) {
    case Family::kOptimal:
      return optimal_parent(node).rank;
    case Family::kBinomial: {
      const BinomialPath path = binomial_decode(node);
      return path.ranks[static_cast<std::size_t>(path.depth - 1)];
    }
    case Family::kBinary:
      return static_cast<int>((node - 1) % 2);
    case Family::kChain:
      return 0;
  }
  return 0;  // unreachable
}

std::int64_t ImplicitPlan::child(std::int64_t node, int rank) const {
  check_node(node, P_, "child");
  if (rank < 0) throw std::out_of_range("ImplicitPlan::child: rank < 0");
  switch (family_) {
    case Family::kOptimal:
      return optimal_child(node, label_of_index(node), rank);
    case Family::kBinomial: {
      BinomialPath path = binomial_decode(node);
      if (rank >= binomial_num_children(path.size)) return -1;
      path.ranks[static_cast<std::size_t>(path.depth)] = rank;
      return binomial_index(path, path.depth + 1);
    }
    case Family::kBinary: {
      if (rank > 1) return -1;
      const std::int64_t c = 2 * node + 1 + rank;
      return c < P_ ? c : -1;
    }
    case Family::kChain:
      return (rank == 0 && node + 1 < P_) ? node + 1 : -1;
  }
  return -1;  // unreachable
}

int ImplicitPlan::num_children(std::int64_t node) const {
  check_node(node, P_, "num_children");
  switch (family_) {
    case Family::kOptimal: {
      // Child indices grow with rank (labels do), so presence is a prefix.
      int n = 0;
      while (child(node, n) >= 0) ++n;
      return n;
    }
    case Family::kBinomial:
      return binomial_num_children(binomial_decode(node).size);
    case Family::kBinary: {
      if (2 * node + 2 < P_) return 2;
      return 2 * node + 1 < P_ ? 1 : 0;
    }
    case Family::kChain:
      return node + 1 < P_ ? 1 : 0;
  }
  return 0;  // unreachable
}

// ---- proc mapping and per-rank generation -------------------------------

ProcId ImplicitPlan::proc_of_node(std::int64_t node) const {
  check_node(node, P_, "proc_of_node");
  const ProcId root = key_.root;
  if (node == 0) return root;
  // BroadcastTree::to_schedule: non-root nodes take the remaining procs in
  // index order, skipping the root's id.
  return node <= static_cast<std::int64_t>(root)
             ? static_cast<ProcId>(node - 1)
             : static_cast<ProcId>(node);
}

std::int64_t ImplicitPlan::node_of_proc(ProcId proc) const {
  if (proc < 0 || proc >= key_.params.P) {
    throw std::out_of_range("ImplicitPlan::node_of_proc: proc out of range");
  }
  const ProcId root = key_.root;
  if (proc == root) return 0;
  const std::int64_t node = proc < root ? static_cast<std::int64_t>(proc) + 1
                                        : static_cast<std::int64_t>(proc);
  return node < P_ ? node : -1;  // only a summation has fewer nodes than P
}

RankSchedule ImplicitPlan::rank_schedule(ProcId proc) const {
  RankSchedule rs;
  rs.proc = proc;
  rs.node = node_of_proc(proc);
  if (rs.node < 0) {  // idle in the summation: no parent, no ops
    rs.parent_node = -1;
    return rs;
  }
  const Time lab = label(rs.node);
  rs.parent_node = parent(rs.node);
  rs.child_rank = child_rank(rs.node);
  if (rs.parent_node >= 0) rs.parent = proc_of_node(rs.parent_node);
  const int kids = num_children(rs.node);
  if (!reverse_) {
    rs.informed_at = lab;
    if (rs.parent_node >= 0) {
      // The parent starts this send at its own label + rank*g == lab - T.
      rs.recvs.push_back(SendOp{lab - T_, rs.parent, proc, 0});
    }
    for (int i = 0; i < kids; ++i) {
      rs.sends.push_back(SendOp{lab + static_cast<Time>(i) * g_, proc,
                                proc_of_node(child(rs.node, i)), 0});
    }
  } else {
    // Reversal (Section 4.2): the broadcast send parent->child at tau
    // becomes child->parent at B - label(child); descending child rank is
    // ascending arrival time, and every receive precedes this node's send.
    // A summation reverses against its deadline t (Section 5) instead.
    const Time B = completion_;
    rs.informed_at = B - lab;
    for (int i = kids; i-- > 0;) {
      const Time child_label = lab + T_ + static_cast<Time>(i) * g_;
      rs.recvs.push_back(
          SendOp{B - child_label, proc_of_node(child(rs.node, i)), proc, 0});
    }
    if (rs.parent_node >= 0) {
      rs.sends.push_back(SendOp{B - lab, proc, rs.parent, 0});
    }
  }
  return rs;
}

// ---- whole-tree materialization ------------------------------------------
//
// One top-down pass in node-index order; no node is decoded from scratch.
// Optimal: labels never decrease with the index, so the walk advances the
// label instead of searching for it, and a child is a closed form given
// the label.  Binomial, binary and chain trees are numbered
// breadth-first, so a node's children take the next free indices in rank
// order and inherit their label (and binomial subtree size) from it.

template <class Visit>
void ImplicitPlan::for_each_edge(Visit&& visit) const {
  if (family_ == Family::kOptimal) {
    Time lab = 0;
    for (std::int64_t n = 0; n < P_; ++n) {
      while (nodes_through(lab) <= static_cast<Count>(n)) ++lab;
      for (int rank = 0;; ++rank) {
        const std::int64_t c = optimal_child(n, lab, rank);
        if (c < 0) break;
        visit(n, lab, c, rank);
      }
    }
    return;
  }
  std::vector<Time> labels(static_cast<std::size_t>(P_), 0);
  std::vector<int> sizes(static_cast<std::size_t>(P_), 0);  // binomial only
  sizes[0] = static_cast<int>(P_);
  std::int64_t next = 1;
  for (std::int64_t n = 0; next < P_; ++n) {
    const auto at = static_cast<std::size_t>(n);
    int fanout = family_ == Family::kBinary ? 2 : 1;
    if (family_ == Family::kBinomial) {
      fanout = binomial_num_children(sizes[at]);
    }
    for (int rank = 0; rank < fanout && next < P_; ++rank, ++next) {
      const auto c = static_cast<std::size_t>(next);
      labels[c] = labels[at] + T_ + static_cast<Time>(rank) * g_;
      sizes[c] = binomial_child_size(sizes[at], rank);
      visit(n, labels[at], next, rank);
    }
  }
}

template <class Emit>
void ImplicitPlan::for_each_send(Emit&& emit) const {
  for_each_edge([&](std::int64_t parent, Time parent_label,
                    std::int64_t child, int rank) {
    const Time start = parent_label + static_cast<Time>(rank) * g_;
    const ProcId from = proc_of_node(parent);
    const ProcId to = proc_of_node(child);
    if (!reverse_) {
      emit(start, from, to);
    } else {
      // Section 4.2: the child's value departs at B - label(child) (at
      // t - label(child) in a summation).
      emit(completion_ - (start + T_), to, from);
    }
  });
}

std::vector<SendOp> ImplicitPlan::edge_sends() const {
  std::vector<SendOp> out;
  out.reserve(static_cast<std::size_t>(P_ - 1));
  for_each_send([&](Time start, ProcId from, ProcId to) {
    out.push_back(SendOp{start, from, to, 0});
  });
  return out;
}

Schedule ImplicitPlan::to_schedule() const {
  Schedule out(key_.params, 1);
  if (!reverse_) {
    out.add_initial(0, key_.root, 0);
  } else {
    for (ProcId p = 0; p < key_.params.P; ++p) out.add_initial(0, p, 0);
  }
  for_each_send([&](Time start, ProcId from, ProcId to) {
    out.add_send(start, from, to, 0);
  });
  out.sort();
  return out;
}

bcast::BroadcastTree ImplicitPlan::to_tree() const {
  std::vector<int> parents(static_cast<std::size_t>(P_), -1);
  for_each_edge([&](std::int64_t parent, Time, std::int64_t child, int) {
    parents[static_cast<std::size_t>(child)] = static_cast<int>(parent);
  });
  return bcast::BroadcastTree::from_parents(
      summation_ ? sum::reversal_params(key_.params) : key_.params, parents);
}

std::size_t ImplicitPlan::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += cum_.capacity() * sizeof(Count);
  bytes += strided_.capacity() * sizeof(Count);
  bytes += level_start_.capacity() * sizeof(std::int64_t);
  for (const auto& [size, sub] : desc_) {
    bytes += sizeof(size) + sizeof(sub) +
             sub.counts.capacity() * sizeof(std::int64_t);
  }
  return bytes;
}

Schedule plan_schedule(const Plan& plan) {
  if (plan.materialized) return plan.schedule;
  if (!plan.implicit) {
    throw std::logic_error(
        "plan_schedule: implicit-only plan carries no generator");
  }
  return plan.implicit->to_schedule();
}

}  // namespace logpc::runtime
