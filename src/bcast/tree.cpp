#include "bcast/tree.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <tuple>

namespace logpc::bcast {

namespace {

// Candidate "next node to materialize" in the best-first expansion of the
// universal tree: the rank-th child of an existing node.
struct Candidate {
  Time label;
  int parent;  // node index; tie-break: earlier-created parents first
  int rank;

  bool operator>(const Candidate& other) const {
    return std::tie(label, parent, rank) >
           std::tie(other.label, other.parent, other.rank);
  }
};

using CandidateQueue =
    std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>>;

}  // namespace

BroadcastTree BroadcastTree::optimal(const Params& params, int P) {
  params.require_valid();
  if (P < 1) throw std::invalid_argument("BroadcastTree::optimal: P >= 1");
  BroadcastTree tree;
  tree.params_ = params;
  tree.nodes_.reserve(static_cast<std::size_t>(P));
  tree.nodes_.push_back(TreeNode{0, -1, 0, {}});
  CandidateQueue frontier;
  frontier.push(Candidate{params.child_label(0, 0), 0, 0});
  while (tree.size() < P) {
    const Candidate c = frontier.top();
    frontier.pop();
    const int idx = tree.size();
    tree.nodes_.push_back(TreeNode{c.label, c.parent, c.rank, {}});
    tree.nodes_[static_cast<std::size_t>(c.parent)].children.push_back(idx);
    // The new node's oldest child, and the parent's next child.
    frontier.push(Candidate{params.child_label(c.label, 0), idx, 0});
    frontier.push(Candidate{
        params.child_label(tree.node(c.parent).label, c.rank + 1), c.parent,
        c.rank + 1});
  }
  return tree;
}

BroadcastTree BroadcastTree::up_to(const Params& params, Time t,
                                   std::size_t max_nodes) {
  params.require_valid();
  if (t < 0) throw std::invalid_argument("BroadcastTree::up_to: t >= 0");
  const Count n = reachable(params, t);
  if (n > max_nodes) {
    throw std::invalid_argument("BroadcastTree::up_to: tree too large (" +
                                std::to_string(n) + " nodes)");
  }
  // `max_nodes` is caller-controlled and may exceed INT_MAX; optimal() takes
  // an int node count, so reject instead of truncating.
  if (n > static_cast<Count>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument(
        "BroadcastTree::up_to: tree exceeds INT_MAX nodes (" +
        std::to_string(n) + "); use the implicit planner for large P");
  }
  BroadcastTree tree = optimal(params, static_cast<int>(n));
  // By construction the n cheapest nodes are exactly those with label <= t.
  return tree;
}

BroadcastTree BroadcastTree::from_parents(const Params& params,
                                          const std::vector<int>& parents) {
  params.require_valid();
  if (parents.empty() || parents[0] != -1) {
    throw std::invalid_argument("from_parents: parents[0] must be -1");
  }
  BroadcastTree tree;
  tree.params_ = params;
  tree.nodes_.resize(parents.size());
  tree.nodes_[0] = TreeNode{0, -1, 0, {}};
  for (std::size_t i = 1; i < parents.size(); ++i) {
    const int p = parents[i];
    if (p < 0 || static_cast<std::size_t>(p) >= i) {
      throw std::invalid_argument(
          "from_parents: parents must precede children (node " +
          std::to_string(i) + ")");
    }
    auto& parent = tree.nodes_[static_cast<std::size_t>(p)];
    const int rank = static_cast<int>(parent.children.size());
    parent.children.push_back(static_cast<int>(i));
    tree.nodes_[i] =
        TreeNode{params.child_label(parent.label, rank), p, rank, {}};
  }
  return tree;
}

Time BroadcastTree::makespan() const {
  Time m = 0;
  for (const auto& n : nodes_) m = std::max(m, n.label);
  return m;
}

std::map<int, int> BroadcastTree::degree_histogram() const {
  std::map<int, int> hist;
  for (const auto& n : nodes_) ++hist[static_cast<int>(n.children.size())];
  return hist;
}

std::map<Time, int> BroadcastTree::leaf_delay_histogram() const {
  std::map<Time, int> hist;
  for (const auto& n : nodes_) {
    if (n.children.empty()) ++hist[n.label];
  }
  return hist;
}

void BroadcastTree::emit(Schedule& out, ItemId item, Time start,
                         const std::vector<ProcId>& proc_of_node) const {
  if (proc_of_node.size() != nodes_.size()) {
    throw std::invalid_argument("emit: proc_of_node size mismatch");
  }
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const TreeNode& n = nodes_[i];
    const TreeNode& parent = nodes_[static_cast<std::size_t>(n.parent)];
    const Time send_start =
        start + parent.label + static_cast<Time>(n.rank) * params_.g;
    out.add_send(send_start, proc_of_node[static_cast<std::size_t>(n.parent)],
                 proc_of_node[i], item);
  }
}

Schedule BroadcastTree::to_schedule(ProcId source) const {
  if (size() > params_.P) {
    throw std::invalid_argument("to_schedule: tree larger than machine");
  }
  Schedule out(params_, 1);
  out.add_initial(0, source, 0);
  // Nodes are created in label order; map the root to `source` and the rest
  // to the remaining processors in index order.
  std::vector<ProcId> procs(nodes_.size());
  procs[0] = source;
  ProcId next = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (next == source) ++next;
    procs[i] = next++;
  }
  emit(out, 0, 0, procs);
  out.sort();
  return out;
}

Count reachable(const Params& params, Time t) {
  params.require_valid();
  if (t < 0) return 0;
  return reachable_prefix(params, t).back();
}

namespace {

/// Appends N(u) for u = N.size() to the reachability table: processors
/// reachable within u cycles of the root being informed, i.e. the root
/// itself plus, for each child started at i*g (landing at
/// i*g + L + 2o <= u), a full subtree with the remaining budget.
void grow_reachable(const Params& params, std::vector<Count>& N) {
  const auto u = static_cast<Time>(N.size());
  const Time T = params.transfer_time();
  Count total = 1;
  for (Time i = 0; T + i * params.g <= u; ++i) {
    total = sat_add(total, N[static_cast<std::size_t>(u - T - i * params.g)]);
    if (total >= kSaturated) break;
  }
  N.push_back(total);
}

}  // namespace

std::vector<Count> reachable_prefix(const Params& params, Time t) {
  params.require_valid();
  if (t < 0) {
    throw std::invalid_argument("reachable_prefix: t >= 0");
  }
  std::vector<Count> N;
  N.reserve(static_cast<std::size_t>(t) + 1);
  while (static_cast<Time>(N.size()) <= t) grow_reachable(params, N);
  return N;
}

std::vector<Count> reachable_until(const Params& params, int P) {
  params.require_valid();
  if (P < 1) throw std::invalid_argument("reachable_until: P >= 1");
  std::vector<Count> N;
  do {
    grow_reachable(params, N);
  } while (N.back() < static_cast<Count>(P));
  N.shrink_to_fit();  // implicit plans keep the table for their lifetime
  return N;
}

Time B_of_P(const Params& params, int P) {
  return static_cast<Time>(reachable_until(params, P).size()) - 1;
}

}  // namespace logpc::bcast
