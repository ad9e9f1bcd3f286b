#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bcast/tree.hpp"
#include "sched/metrics.hpp"
#include "validate/checker.hpp"

namespace logpc::sim {
namespace {

// Forwards every new item to a fixed list of targets.
class ForwardTo : public Program {
 public:
  explicit ForwardTo(std::vector<ProcId> targets)
      : targets_(std::move(targets)) {}
  void on_item(Context& ctx, ItemId item) override {
    for (const ProcId t : targets_) ctx.send(t, item);
  }

 private:
  std::vector<ProcId> targets_;
};

TEST(Engine, SingleSendTiming) {
  Engine e(Params{2, 6, 2, 4}, 1);
  e.set_program(0, std::make_unique<ForwardTo>(std::vector<ProcId>{1}));
  e.place(0, 0, 0);
  const auto r = e.run();
  EXPECT_EQ(r.messages, 1u);
  EXPECT_EQ(r.makespan, 10);  // L + 2o
  EXPECT_TRUE(validate::is_valid(r.schedule));
}

TEST(Engine, GapSpacesSuccessiveSends) {
  Engine e(Params{4, 6, 2, 4}, 1);
  e.set_program(0, std::make_unique<ForwardTo>(std::vector<ProcId>{1, 2, 3}));
  e.place(0, 0, 0);
  const auto r = e.run();
  ASSERT_EQ(r.messages, 3u);
  EXPECT_EQ(r.schedule.sends()[0].start, 0);
  EXPECT_EQ(r.schedule.sends()[1].start, 4);
  EXPECT_EQ(r.schedule.sends()[2].start, 8);
  EXPECT_TRUE(validate::is_valid(r.schedule));
}

TEST(Engine, RelayChainAccumulatesLatency) {
  Engine e(Params::postal(4, 3), 1);
  for (ProcId p = 0; p < 3; ++p) {
    e.set_program(p, std::make_unique<ForwardTo>(
                         std::vector<ProcId>{static_cast<ProcId>(p + 1)}));
  }
  e.place(0, 0, 0);
  const auto r = e.run();
  EXPECT_EQ(r.makespan, 9);  // three hops of L = 3
  EXPECT_TRUE(validate::is_valid(r.schedule));
}

TEST(Engine, OptimalTreeProgramReproducesFigure1Time) {
  // Drive each processor with its children list from the optimal broadcast
  // tree B(8); the reactive machine must realize exactly B(8) = 24 cycles
  // (Figure 1), closing the loop tree -> engine -> checker.
  const Params params{8, 6, 2, 4};
  const auto tree = bcast::BroadcastTree::optimal(params, 8);
  ASSERT_EQ(tree.makespan(), 24);
  Engine e(params, 1);
  // Node i of the tree is processor i (node order = label order).
  for (ProcId p = 0; p < params.P; ++p) {
    std::vector<ProcId> targets;
    for (const int child : tree.node(p).children) {
      targets.push_back(static_cast<ProcId>(child));
    }
    e.set_program(p, std::make_unique<ForwardTo>(std::move(targets)));
  }
  e.place(0, 0, 0);
  const auto r = e.run();
  EXPECT_EQ(r.makespan, 24);
  EXPECT_EQ(completion_time(r.schedule), 24);
  EXPECT_EQ(r.messages, 7u);
  EXPECT_TRUE(validate::is_valid(r.schedule));
}

TEST(Engine, SendOverheadBlocksDuringReceive) {
  // P1 receives at [8, 10) (o = 2) and has a queued send from t = 8 - it
  // must wait until 10.
  Engine e(Params{3, 6, 2, 4}, 2);
  class SendSecondItemAtStart : public Program {
   public:
    void on_item(Context& ctx, ItemId item) override {
      if (item == 1) ctx.send(2, 1);
    }
  };
  e.set_program(0, std::make_unique<ForwardTo>(std::vector<ProcId>{1}));
  e.set_program(1, std::make_unique<SendSecondItemAtStart>());
  e.place(0, 0, 0);   // item 0 travels 0 -> 1, occupying P1 at [8, 10)
  e.place(1, 1, 9);   // item 1 appears at P1 mid-receive... at t=9
  const auto r = e.run();
  ASSERT_EQ(r.messages, 2u);
  // P1's send of item 1 starts at 10, not 9.
  const auto& sends = r.schedule.sends();
  const auto it = std::find_if(sends.begin(), sends.end(),
                               [](const SendOp& op) { return op.item == 1; });
  ASSERT_NE(it, sends.end());
  EXPECT_EQ(it->start, 10);
  EXPECT_TRUE(validate::is_valid(r.schedule, {.require_complete = false}));
}

TEST(Engine, DuplicateDeliveryDoesNotRetriggerProgram) {
  // P2 receives the item twice; its program must fire on_item once (the
  // second arrival is not an availability improvement).
  Engine e(Params::postal(4, 3), 1);
  class CountItems : public Program {
   public:
    explicit CountItems(int& n) : n_(n) {}
    void on_item(Context&, ItemId) override { ++n_; }

   private:
    int& n_;
  };
  int count = 0;
  e.set_program(0, std::make_unique<ForwardTo>(std::vector<ProcId>{2}));
  e.set_program(1, std::make_unique<ForwardTo>(std::vector<ProcId>{2}));
  e.set_program(2, std::make_unique<CountItems>(count));
  e.place(0, 0, 0);
  e.place(0, 1, 1);  // P1 also holds it; forwards at 1, arriving later
  e.run();
  EXPECT_EQ(count, 1);
}

TEST(Engine, HorizonStopsSimulation) {
  Engine e(Params::postal(8, 3), 1);
  // A flood to 7 targets takes 7 cycles of sends; a horizon of 4 cuts it
  // short after the sends that start by t = 4.
  e.set_program(0, std::make_unique<ForwardTo>(
                       std::vector<ProcId>{1, 2, 3, 4, 5, 6, 7}));
  e.place(0, 0, 0);
  const auto r = e.run(4);
  EXPECT_TRUE(r.horizon_reached);
  EXPECT_LT(r.messages, 7u);
}

TEST(Engine, ThrowsOnSendingUnheldItem) {
  Engine e(Params::postal(3, 2), 2);
  class SendOther : public Program {
   public:
    void on_item(Context& ctx, ItemId) override { ctx.send(1, 1); }
  };
  e.set_program(0, std::make_unique<SendOther>());
  e.place(0, 0, 0);
  EXPECT_THROW(e.run(), std::logic_error);
}

TEST(Engine, RejectsBadPlacementAndPrograms) {
  Engine e(Params::postal(3, 2), 1);
  EXPECT_THROW(e.place(0, 7, 0), std::invalid_argument);
  EXPECT_THROW(e.place(3, 0, 0), std::invalid_argument);
  EXPECT_THROW(e.set_program(9, nullptr), std::invalid_argument);
}

TEST(Engine, RunTwiceThrows) {
  Engine e(Params::postal(2, 1), 1);
  e.place(0, 0, 0);
  e.run();
  EXPECT_THROW(e.run(), std::logic_error);
}

}  // namespace
}  // namespace logpc::sim
