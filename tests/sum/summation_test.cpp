#include "sum/summation_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "baselines/reduce_baselines.hpp"
#include "sum/lazy.hpp"
#include "validate/checker.hpp"

namespace logpc::sum {
namespace {

const Params kFig6{8, 5, 2, 4};  // t = 28 in the figure

TEST(Summation, Figure6PlanShape) {
  const auto plan = optimal_summation(kFig6, 28);
  EXPECT_EQ(plan.t, 28);
  // The (L+1, o, g) = (6, 2, 4) universal tree is the Figure 1 tree; its 8
  // cheapest labels are 0, 10, 14, 18, 20, 22, 24, 24 -> send times
  // 28, 18, 14, 10, 8, 6, 4, 4.
  ASSERT_EQ(plan.procs.size(), 8u);
  std::multiset<Time> sends;
  for (const auto& pp : plan.procs) sends.insert(pp.send_time);
  EXPECT_EQ(sends, (std::multiset<Time>{4, 4, 6, 8, 10, 14, 18, 28}));
  EXPECT_TRUE(is_valid_plan(plan)) << check_plan(plan).summary();
}

TEST(Summation, Figure6OperandCount) {
  // Lemma 5.1: n = sum_i (S_i - (o+1) k_i + 1).  Sum S = 92, 7 receptions
  // at o+1 = 3 each, 8 processors: 92 - 21 + 8 = 79.
  const auto plan = optimal_summation(kFig6, 28);
  EXPECT_EQ(plan.total_operands, 79u);
  EXPECT_EQ(max_operands(kFig6, 28), 79u);
}

TEST(Summation, LazyPropertyAndMessageTiming) {
  for (const Params params : {kFig6, Params{5, 3, 0, 1}, Params{12, 2, 1, 4},
                              Params{9, 4, 0, 2}}) {
    for (const Time t : {6, 11, 17, 25}) {
      const auto plan = optimal_summation(params, t);
      EXPECT_TRUE(is_valid_plan(plan))
          << params.to_string() << " t=" << t << "\n"
          << check_plan(plan).summary();
    }
  }
}

TEST(Summation, TimingViewSatisfiesLogPRules) {
  const auto plan = optimal_summation(kFig6, 28);
  const Schedule view = plan.timing_view();
  const auto check = validate::check(
      view, {.forbid_duplicate_receive = false, .require_complete = false});
  EXPECT_TRUE(check.ok()) << check.summary();
}

TEST(Summation, SingleProcessorSumsTPlusOne) {
  for (Time t = 0; t <= 10; ++t) {
    const auto plan = optimal_summation(Params{1, 3, 1, 4}, t);
    EXPECT_EQ(plan.total_operands, static_cast<Count>(t) + 1);
    EXPECT_EQ(plan.procs.size(), 1u);
  }
}

TEST(Summation, MoreTimeNeverSumsFewer) {
  const Params params{16, 3, 1, 3};
  Count prev = 0;
  for (Time t = 0; t <= 40; ++t) {
    const Count n = max_operands(params, t);
    EXPECT_GE(n, prev) << "t=" << t;
    // Each extra cycle adds at least one operand at the root alone.
    EXPECT_GE(n, prev + (t > 0 ? 1 : 0));
    prev = n;
  }
}

TEST(Summation, MinTimeInvertsMaxOperands) {
  const Params params{6, 2, 0, 1};
  for (const Count n : {1u, 2u, 5u, 17u, 60u, 200u}) {
    const Time t = min_time_for_operands(params, n);
    EXPECT_GE(max_operands(params, t), n);
    if (t > 0) {
      EXPECT_LT(max_operands(params, t - 1), n);
    }
  }
}

TEST(Summation, ReversalCorrespondence) {
  // The communication pattern is the reversal of an optimal broadcast on
  // (L+1, o, g): the multiset {t - S_i} equals the label multiset of the
  // optimal (L+1) tree.
  const Params params{10, 4, 1, 3};
  const Time t = 30;
  const auto plan = optimal_summation(params, t);
  const auto tree =
      bcast::BroadcastTree::optimal(reversal_params(params), 10);
  std::multiset<Time> labels;
  for (const auto& n : tree.nodes()) labels.insert(n.label);
  std::multiset<Time> reversed;
  for (const auto& pp : plan.procs) reversed.insert(t - pp.send_time);
  EXPECT_EQ(labels, reversed);
}

TEST(Summation, UsesFewerProcessorsWhenTimeIsShort) {
  // A second processor only helps once its send time t - 10 (first
  // reversal-tree transfer) covers the o+1 reception cost it induces: the
  // participation horizon is t - o.
  const Params params{8, 5, 2, 4};  // transfer on reversal machine = 10
  EXPECT_EQ(optimal_summation(params, 9).procs.size(), 1u);
  EXPECT_EQ(optimal_summation(params, 11).procs.size(), 1u);
  EXPECT_EQ(optimal_summation(params, 12).procs.size(), 2u);
  // The helper is exactly break-even at t = 12 and strictly useful later.
  EXPECT_EQ(optimal_summation(params, 12).total_operands,
            optimal_summation(params, 11).total_operands + 1);
  EXPECT_EQ(max_operands(params, 13), max_operands(params, 12) + 2);
}

TEST(Summation, BeatsOrMatchesEveryBaseline) {
  using namespace baselines;
  for (const Params params : {Params{16, 3, 0, 1}, Params{32, 2, 1, 4},
                              Params{12, 6, 2, 4}}) {
    for (const Time t : {8, 16, 30, 45}) {
      const Count best = max_operands(params, t);
      EXPECT_GE(best, binary_tree_summation(params, t).total_operands);
      EXPECT_GE(best, binomial_summation(params, t).total_operands);
      EXPECT_GE(best, sequential_summation(params, t).total_operands);
      EXPECT_GE(best, chain_summation(params, t).total_operands);
    }
  }
}

TEST(Summation, PlanFromTreeRejectsMismatches) {
  const Params params{4, 3, 0, 1};
  const auto wrong_tree = bcast::BroadcastTree::optimal(params, 4);
  EXPECT_THROW(plan_from_tree(params, wrong_tree, 20), std::invalid_argument);
  const auto tree =
      bcast::BroadcastTree::optimal(reversal_params(params), 4);
  EXPECT_THROW(plan_from_tree(params, tree, tree.makespan() - 1),
               std::invalid_argument);
  EXPECT_NO_THROW(plan_from_tree(params, tree, tree.makespan()));
}

TEST(Summation, RequiresGapAtLeastOverheadPlusOne) {
  EXPECT_THROW(optimal_summation(Params{4, 3, 2, 2}, 10),
               std::invalid_argument);
  EXPECT_NO_THROW(optimal_summation(Params{4, 3, 2, 3}, 10));
}

TEST(Summation, RejectsNegativeTime) {
  EXPECT_THROW(optimal_summation(Params{4, 3, 0, 1}, -1),
               std::invalid_argument);
}

/// Machines for the closed-form checks: P = 1, g = o + 1, o = 0 and a
/// latency of 1 included.
std::vector<Params> closed_form_machines() {
  std::vector<Params> out;
  for (const int P : {1, 2, 3, 4, 7, 16, 50}) {
    for (const Time L : {1, 3, 5}) {
      for (const Time o : {0, 1, 2}) {
        for (const Time g : {o + 1, o + 3}) out.push_back(Params{P, L, o, g});
      }
    }
  }
  return out;
}

TEST(Summation, MaxOperandsClosedFormMatchesThePlan) {
  for (const Params& m : closed_form_machines()) {
    // Up to well past B(P) + o of the reversed machine, where every
    // processor participates and the count turns affine in t; t < o too.
    const Time full = bcast::B_of_P(reversal_params(m), m.P) + m.o;
    std::vector<Time> ts;
    for (Time t = 0; t <= full + 12; ++t) ts.push_back(t);
    for (const Time t : {Time{1000}, Time{123457}, Time{1} << 40}) {
      ts.push_back(t);
    }
    for (const Time t : ts) {
      EXPECT_EQ(max_operands(m, t), optimal_summation(m, t).total_operands)
          << m.to_string() << " t=" << t;
    }
  }
}

TEST(Summation, MaxOperandsSaturatesLikeThePlanSum) {
  // P = 4: four partial sums of ~2^61 pass kSaturated; P = 50: n(t - o)
  // no longer fits in 64 bits.
  for (const auto& [m, t] : {std::pair{Params{4, 4, 1, 2}, Time{1} << 61},
                             std::pair{Params{50, 3, 1, 2}, Time{1} << 62}}) {
    const SummationPlan plan = optimal_summation(m, t);
    EXPECT_EQ(plan.total_operands, kSaturated) << m.to_string();
    EXPECT_EQ(max_operands(m, t), kSaturated) << m.to_string();
  }
}

TEST(Summation, MinTimeMatchesALinearScan) {
  constexpr Count kMaxN = 400;
  for (const Params& m : closed_form_machines()) {
    // least[n] = first t whose optimal plan sums at least n operands.
    std::vector<Time> least;
    for (Time t = 0; least.size() < kMaxN; ++t) {
      const Count total = optimal_summation(m, t).total_operands;
      while (least.size() < std::min(total, kMaxN)) least.push_back(t);
    }
    for (Count n = 1; n <= kMaxN; ++n) {
      ASSERT_EQ(min_time_for_operands(m, n), least[n - 1])
          << m.to_string() << " n=" << n;
    }
  }
}

TEST(Summation, HugeOperandCountsSolveInClosedForm) {
  // Past B(P) + o the plan keeps the same P processors, so
  // max_operands(t) = P(t - o) - sum(labels) + o + 1 and the deadline is
  // one division - no t-sized table (t is 2.5e14 here).
  const Params m{4, 4, 1, 2};
  const Count n = 1'000'000'000'000'000;
  const auto tree = bcast::BroadcastTree::optimal(reversal_params(m), m.P);
  Count labels = 0;
  for (const auto& node : tree.nodes()) labels += static_cast<Count>(node.label);
  const auto P = static_cast<Count>(m.P);
  const auto o = static_cast<Count>(m.o);
  const Time expected =
      m.o + static_cast<Time>((n - o - 1 + labels + P - 1) / P);
  EXPECT_EQ(expected, 250'000'000'000'008);
  const Time t = min_time_for_operands(m, n);
  EXPECT_EQ(t, expected);
  EXPECT_GE(max_operands(m, t), n);
  EXPECT_LT(max_operands(m, t - 1), n);
  const SummationPlan plan = optimal_summation(m, t);
  EXPECT_EQ(plan.procs.size(), 4u);
  EXPECT_EQ(plan.total_operands, max_operands(m, t));

  // One processor sums t + 1 operands: the largest n still has a deadline,
  // a larger one would not fit in Time.
  const Count top = std::numeric_limits<Time>::max();
  EXPECT_EQ(min_time_for_operands(Params{1, 2, 0, 1}, top),
            std::numeric_limits<Time>::max() - 1);
  EXPECT_THROW((void)min_time_for_operands(Params{1, 2, 0, 1},
                                           std::numeric_limits<Count>::max()),
               std::invalid_argument);
}

TEST(Summation, OperandCountsRejectWhatThePlanRejects) {
  EXPECT_THROW((void)max_operands(Params{4, 3, 2, 2}, 10),
               std::invalid_argument);
  EXPECT_THROW((void)max_operands(Params{4, 3, 0, 1}, -1),
               std::invalid_argument);
  EXPECT_THROW((void)min_time_for_operands(Params{4, 3, 2, 2}, 10),
               std::invalid_argument);
  EXPECT_THROW((void)min_time_for_operands(Params{4, 3, 0, 1}, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace logpc::sum
