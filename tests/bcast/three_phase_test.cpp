#include "bcast/three_phase.hpp"

#include <cstdint>
#include <ostream>

#include <gtest/gtest.h>

#include "bcast/kitem.hpp"
#include "sched/metrics.hpp"
#include "validate/checker.hpp"

namespace logpc::bcast {
namespace {

struct Instance {
  std::int64_t P;
  Time L;
  std::int64_t k;
};

/// Names the case in test listings, e.g. "P=4 L=1 k=4" (the default is a
/// byte dump of the struct).
void PrintTo(const Instance& i, std::ostream* os) {
  *os << "P=" << i.P << " L=" << i.L << " k=" << i.k;
}

class ThreePhaseSweep : public ::testing::TestWithParam<Instance> {};

TEST_P(ThreePhaseSweep, ValidSingleSendingAndComplete) {
  const int P = static_cast<int>(GetParam().P);
  const Time L = GetParam().L;
  const int k = static_cast<int>(GetParam().k);
  const auto r = kitem_three_phase(P, L, k);
  const auto check = validate::check(r.schedule);
  EXPECT_TRUE(check.ok()) << check.summary();
  EXPECT_TRUE(is_single_sending(r.schedule, 0));
  EXPECT_GE(r.completion, r.bounds.general_lower);
  EXPECT_EQ(r.senders + r.receivers, P - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreePhaseSweep,
    ::testing::Values(Instance{2, 1, 3}, Instance{5, 1, 4}, Instance{9, 2, 6},
                      Instance{10, 3, 8}, Instance{14, 3, 5},
                      Instance{22, 2, 7}, Instance{17, 4, 4},
                      Instance{33, 1, 6}));

TEST(ThreePhase, SingleItemMatchesSingleSendingOptimum) {
  // With k = 1 there is no pipeline saturation; the three-phase shape
  // meets B(P-1) + L exactly.
  for (const auto& [P, L] : {std::pair{7, 3}, std::pair{13, 2},
                             std::pair{21, 4}}) {
    const auto r = kitem_three_phase(P, L, 1);
    EXPECT_EQ(r.completion, r.bounds.single_sending_lower)
        << "P=" << P << " L=" << L;
  }
}

TEST(ThreePhase, SenderCountIsFOfBMinusL) {
  const auto r = kitem_three_phase(42, 3, 4);
  const Fib fib(3);
  const Time t = fib.B_of_P(41);
  EXPECT_EQ(r.senders, static_cast<int>(fib.f(t - 3)));
}

TEST(ThreePhase, NaiveEndgameLosesToFullTreeConstruction) {
  // The ablation's point: the primary construction (the full t-step tree,
  // whose leaves are the endgame) strictly beats the naive relay endgame
  // on pipelined instances.
  for (const auto& [P, L, k] :
       {std::tuple{10, 3, 8}, std::tuple{22, 2, 12}, std::tuple{26, 5, 8}}) {
    const auto naive = kitem_three_phase(P, L, k);
    const auto full = kitem_broadcast(P, L, k);
    EXPECT_GT(naive.completion, full.completion)
        << "P=" << P << " L=" << L << " k=" << k;
  }
}

TEST(ThreePhase, DegenerateTwoProcessors) {
  const auto r = kitem_three_phase(2, 3, 4);
  EXPECT_EQ(r.receivers, 0);
  EXPECT_EQ(r.completion, r.bounds.single_sending_lower);
}

TEST(ThreePhase, RejectsBadArguments) {
  EXPECT_THROW(kitem_three_phase(1, 3, 2), std::invalid_argument);
  EXPECT_THROW(kitem_three_phase(4, 0, 2), std::invalid_argument);
  EXPECT_THROW(kitem_three_phase(4, 3, 0), std::invalid_argument);
}

}  // namespace
}  // namespace logpc::bcast
