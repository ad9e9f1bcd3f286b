#include "bcast/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sched/metrics.hpp"
#include "validate/checker.hpp"

namespace logpc::bcast {
namespace {

TEST(Tree, Figure1TreeShape) {
  // Figure 1: P = 8, L = 6, g = 4, o = 2.  Node times (informed-at labels)
  // are 0; 10, 14, 18, 22 (children of the root); 20, 24 (children of the
  // node informed at 10); 24 (child of the node informed at 14).
  const Params params{8, 6, 2, 4};
  const auto tree = BroadcastTree::optimal(params, 8);
  ASSERT_EQ(tree.size(), 8);
  std::multiset<Time> labels;
  for (const auto& n : tree.nodes()) labels.insert(n.label);
  EXPECT_EQ(labels, (std::multiset<Time>{0, 10, 14, 18, 20, 22, 24, 24}));
  EXPECT_EQ(tree.makespan(), 24);
  EXPECT_EQ(tree.node(0).children.size(), 4u);  // root sends 4 times
}

TEST(Tree, RootIsNodeZero) {
  const auto tree = BroadcastTree::optimal(Params::postal(10, 3), 10);
  EXPECT_EQ(tree.node(0).parent, -1);
  EXPECT_EQ(tree.node(0).label, 0);
  for (int i = 1; i < tree.size(); ++i) {
    EXPECT_GE(tree.node(i).parent, 0);
    EXPECT_GT(tree.node(i).label, 0);
  }
}

TEST(Tree, NodesCreatedInLabelOrder) {
  const auto tree = BroadcastTree::optimal(Params{40, 5, 1, 2}, 40);
  for (int i = 1; i < tree.size(); ++i) {
    EXPECT_LE(tree.node(i - 1).label, tree.node(i).label);
  }
}

TEST(Tree, ChildLabelsFollowLogPRule) {
  const Params params{25, 4, 1, 3};
  const auto tree = BroadcastTree::optimal(params, 25);
  for (const auto& n : tree.nodes()) {
    for (std::size_t r = 0; r < n.children.size(); ++r) {
      const auto& child = tree.node(n.children[r]);
      EXPECT_EQ(child.label,
                params.child_label(n.label, static_cast<int>(r)));
      EXPECT_EQ(child.rank, static_cast<int>(r));
      EXPECT_EQ(&tree.node(child.parent), &n);
    }
  }
}

TEST(Tree, PostalTreeSizeMatchesFibonacci) {
  // Theorem 2.2: P(t) = f_t in the postal model.
  for (Time L = 1; L <= 6; ++L) {
    const Fib fib(L);
    for (Time t = 0; t <= 12; ++t) {
      const auto n = static_cast<int>(fib.f(t));
      const auto tree =
          BroadcastTree::optimal(Params::postal(n, L), n);
      EXPECT_LE(tree.makespan(), t) << "L=" << L << " t=" << t;
      if (n > 1) {
        // One more processor must cost more than t.
        const auto bigger =
            BroadcastTree::optimal(Params::postal(n + 1, L), n + 1);
        EXPECT_GT(bigger.makespan(), t) << "L=" << L << " t=" << t;
      }
    }
  }
}

TEST(Tree, ReachableMatchesFibInPostalModel) {
  for (Time L = 1; L <= 8; ++L) {
    const Fib fib(L);
    for (Time t = 0; t <= 30; ++t) {
      EXPECT_EQ(reachable(Params::postal(2, L), t), fib.f(t))
          << "L=" << L << " t=" << t;
    }
  }
}

TEST(Tree, ReachableMatchesTreeConstructionGeneralParams) {
  // Cross-check the DP against explicit tree construction for assorted
  // non-postal machines.
  for (const Params params : {Params{1, 6, 2, 4}, Params{1, 5, 1, 2},
                              Params{1, 3, 0, 2}, Params{1, 7, 3, 3}}) {
    for (Time t = 0; t <= 40; ++t) {
      const Count n = reachable(params, t);
      if (n > 3000) break;
      const auto tree = BroadcastTree::optimal(params, static_cast<int>(n));
      EXPECT_LE(tree.makespan(), t) << params.to_string() << " t=" << t;
      const auto bigger =
          BroadcastTree::optimal(params, static_cast<int>(n) + 1);
      EXPECT_GT(bigger.makespan(), t) << params.to_string() << " t=" << t;
    }
  }
}

TEST(Tree, BOfPAgainstFigure1) {
  EXPECT_EQ(B_of_P(Params{8, 6, 2, 4}, 8), 24);
  EXPECT_EQ(B_of_P(Params{8, 6, 2, 4}, 1), 0);
  EXPECT_EQ(B_of_P(Params{8, 6, 2, 4}, 2), 10);
}

TEST(Tree, BOfPPostalEqualsFibInverse) {
  for (Time L = 1; L <= 8; ++L) {
    const Fib fib(L);
    for (int P = 1; P <= 500; ++P) {
      EXPECT_EQ(B_of_P(Params::postal(P, L), P),
                fib.B_of_P(static_cast<Count>(P)))
          << "L=" << L << " P=" << P;
    }
  }
}

TEST(Tree, UpToContainsExactlyLabelsAtMostT) {
  const Params params = Params::postal(100, 3);
  const auto tree = BroadcastTree::up_to(params, 7);
  EXPECT_EQ(tree.size(), 9);  // f_7 = 9
  for (const auto& n : tree.nodes()) EXPECT_LE(n.label, 7);
}

TEST(Tree, UpToRejectsHugeTrees) {
  EXPECT_THROW(BroadcastTree::up_to(Params::postal(2, 1), 40, 1000),
               std::invalid_argument);
}

TEST(Tree, UpToRejectsTreesBeyondIntRange) {
  // L = 1 postal doubles per step, so reachable(48) = 2^48.  With a caller
  // raising max_nodes past INT_MAX, up_to used to truncate that count into
  // optimal()'s int parameter; it must refuse instead.
  EXPECT_THROW(BroadcastTree::up_to(Params::postal(2, 1), 48,
                                    std::numeric_limits<std::size_t>::max()),
               std::invalid_argument);
}

TEST(Tree, ReachablePrefixMatchesPointQueries) {
  for (const Params& params :
       {Params{10, 4, 1, 2}, Params::postal(50, 3), Params{7, 2, 3, 4}}) {
    const Time t = 20;
    const std::vector<Count> prefix = reachable_prefix(params, t);
    ASSERT_EQ(prefix.size(), static_cast<std::size_t>(t) + 1);
    for (Time u = 0; u <= t; ++u) {
      EXPECT_EQ(prefix[static_cast<std::size_t>(u)], reachable(params, u));
    }
  }
}

TEST(Tree, ReachableUntilStopsAtTheFirstCoveringLabel) {
  std::vector<int> Ps;
  for (int P = 1; P <= 512; ++P) Ps.push_back(P);
  Ps.push_back(4097);
  Ps.push_back(65536);
  for (const auto& [L, o, g] : {std::tuple{1, 0, 1}, std::tuple{2, 0, 1},
                                std::tuple{6, 2, 4}, std::tuple{4, 1, 2},
                                std::tuple{3, 1, 4}, std::tuple{5, 2, 3},
                                std::tuple{10, 3, 7}, std::tuple{1, 0, 5}}) {
    for (const int P : Ps) {
      const Params m{P, L, o, g};
      const std::vector<Count> table = reachable_until(m, P);
      const Time B = B_of_P(m, P);
      ASSERT_EQ(static_cast<Time>(table.size()), B + 1) << m;
      EXPECT_GE(reachable(m, B), static_cast<Count>(P)) << m;
      if (B > 0) {
        EXPECT_LT(reachable(m, B - 1), static_cast<Count>(P)) << m;
      }
      EXPECT_EQ(table, reachable_prefix(m, B)) << m;
    }
  }
  EXPECT_THROW((void)reachable_until(Params{4, 2, 0, 1}, 0),
               std::invalid_argument);
}

TEST(Tree, DegreeHistogramT9) {
  // T9 (L = 3 postal, 9 nodes, makespan 7): the root has 5 children
  // (sends at 0..4 landing at 3..7); block structure of Section 3.2 is
  // {5, 2, 1} plus leaves.
  const auto tree = BroadcastTree::optimal(Params::postal(9, 3), 9);
  EXPECT_EQ(tree.makespan(), 7);
  const auto hist = tree.degree_histogram();
  // Out-degrees: root 5, the t=3 node 2, the t=4 node 1, six leaves.
  EXPECT_EQ(hist.at(5), 1);
  EXPECT_EQ(hist.at(2), 1);
  EXPECT_EQ(hist.at(1), 1);
  EXPECT_EQ(hist.at(0), 6);
}

TEST(Tree, LeafDelayHistogramT9) {
  // Section 3.2: the multiset of leaf receptions per step is {a,a,a,b,b,c}
  // - three leaves at delay 7, two at 6, one at 5.
  const auto tree = BroadcastTree::optimal(Params::postal(9, 3), 9);
  const auto hist = tree.leaf_delay_histogram();
  EXPECT_EQ(hist.at(7), 3);
  EXPECT_EQ(hist.at(6), 2);
  EXPECT_EQ(hist.at(5), 1);
  EXPECT_EQ(hist.size(), 3u);  // exactly L = 3 distinct leaf delays
}

TEST(Tree, LeafDelaysSpanExactlyLValuesForExactP) {
  // For P = P(t), leaves sit at delays t-L+1..t (the L lower-case letters).
  // All L delays are populated once t >= 2L-1 (labels below L do not occur
  // in the universal tree apart from the root's 0).
  for (Time L = 2; L <= 6; ++L) {
    const Fib fib(L);
    for (Time t = 2 * L - 1; t <= 12; ++t) {
      const auto n = static_cast<int>(fib.f(t));
      const auto tree = BroadcastTree::optimal(Params::postal(n, L), n);
      const auto hist = tree.leaf_delay_histogram();
      EXPECT_EQ(hist.begin()->first, t - L + 1) << "L=" << L << " t=" << t;
      EXPECT_EQ(hist.rbegin()->first, t) << "L=" << L << " t=" << t;
      EXPECT_EQ(static_cast<Time>(hist.size()), L);
    }
  }
}

TEST(Tree, ToScheduleIsValidAndOptimal) {
  const Params params{8, 6, 2, 4};
  const auto tree = BroadcastTree::optimal(params, 8);
  const Schedule s = tree.to_schedule();
  EXPECT_TRUE(validate::is_valid(s)) << validate::check(s).summary();
  EXPECT_EQ(completion_time(s), 24);
  EXPECT_EQ(s.sends().size(), 7u);
}

TEST(Tree, ToScheduleWithNonzeroSource) {
  const Params params = Params::postal(9, 3);
  const auto tree = BroadcastTree::optimal(params, 9);
  const Schedule s = tree.to_schedule(4);
  EXPECT_TRUE(validate::is_valid(s)) << validate::check(s).summary();
  EXPECT_EQ(s.initials()[0].proc, 4);
  EXPECT_EQ(completion_time(s), 7);
}

TEST(Tree, FromParentsLinearChain) {
  const Params params = Params::postal(4, 2);
  const auto tree = BroadcastTree::from_parents(params, {-1, 0, 1, 2});
  EXPECT_EQ(tree.node(3).label, 6);  // three hops of L = 2
  EXPECT_EQ(tree.makespan(), 6);
}

TEST(Tree, FromParentsBinomialLikeShape) {
  const Params params = Params::postal(4, 1);
  // Root sends to 1 then 2; 1 sends to 3.
  const auto tree = BroadcastTree::from_parents(params, {-1, 0, 0, 1});
  EXPECT_EQ(tree.node(1).label, 1);
  EXPECT_EQ(tree.node(2).label, 2);
  EXPECT_EQ(tree.node(3).label, 2);
  EXPECT_EQ(tree.makespan(), 2);
}

TEST(Tree, FromParentsRejectsMalformedInput) {
  const Params params = Params::postal(4, 2);
  EXPECT_THROW(BroadcastTree::from_parents(params, {}),
               std::invalid_argument);
  EXPECT_THROW(BroadcastTree::from_parents(params, {0}),
               std::invalid_argument);
  EXPECT_THROW(BroadcastTree::from_parents(params, {-1, 2, 1}),
               std::invalid_argument);
}

TEST(Tree, OptimalRejectsBadArguments) {
  EXPECT_THROW(BroadcastTree::optimal(Params::postal(4, 2), 0),
               std::invalid_argument);
  EXPECT_THROW(BroadcastTree::optimal(Params{0, 1, 0, 1}, 4),
               std::invalid_argument);
}

TEST(Tree, ToScheduleRejectsTreeLargerThanMachine) {
  const auto tree = BroadcastTree::optimal(Params::postal(4, 2), 4);
  // Shrink the machine below the tree size via a copy with smaller P: not
  // expressible - instead build a tree for more nodes than P.
  const auto big = BroadcastTree::optimal(Params::postal(4, 2), 6);
  EXPECT_THROW(big.to_schedule(), std::invalid_argument);
  EXPECT_NO_THROW(tree.to_schedule());
}

}  // namespace
}  // namespace logpc::bcast
