#include "runtime/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "runtime/implicit_plan.hpp"
#include "runtime/planner.hpp"
#include "runtime/warmup.hpp"
#include "sum/summation_tree.hpp"

namespace logpc::runtime {
namespace {

const Params kMachine{16, 8, 1, 4};

/// Warms a planner with a representative mix of problems.
void warm(Planner& planner) {
  (void)planner.plan(PlanKey::broadcast(kMachine));
  (void)planner.plan(PlanKey::kitem(kMachine, 6));
  (void)planner.plan(PlanKey::kitem_buffered(kMachine, 4));
  (void)planner.plan(PlanKey::reduce(kMachine, 5));
  (void)planner.plan(PlanKey::summation(Params{12, 4, 1, 3}, 50));
  (void)planner.plan(PlanKey::alltoall(kMachine, 2));
}

TEST(Snapshot, RoundTripsEveryPlanExactly) {
  Planner planner;
  warm(planner);
  std::stringstream stream;
  const std::size_t written = save_snapshot(planner.cache(), stream);
  EXPECT_EQ(written, planner.cache().size());

  PlanCache loaded(64, 4);
  const std::size_t read = load_snapshot(loaded, stream);
  EXPECT_EQ(read, written);
  EXPECT_EQ(loaded.size(), written);

  for (const PlanPtr& original : planner.cache().entries()) {
    const PlanPtr restored = loaded.get(original->key);
    ASSERT_NE(restored, nullptr) << original->key.to_string();
    EXPECT_EQ(restored->schedule, original->schedule);
    EXPECT_EQ(restored->completion, original->completion);
    EXPECT_EQ(restored->method, original->method);
    EXPECT_EQ(restored->slack, original->slack);
    EXPECT_EQ(restored->max_buffer_depth, original->max_buffer_depth);
    EXPECT_EQ(restored->total_operands, original->total_operands);
  }
}

TEST(Snapshot, LoadedCacheServesHitsWithoutRebuilding) {
  Planner cold;
  warm(cold);
  std::stringstream stream;
  (void)save_snapshot(cold.cache(), stream);

  // A fresh planner that starts hot: load the snapshot, then plan.
  Planner hot;
  (void)load_snapshot(hot.cache(), stream);
  const PlanPtr plan = hot.plan(PlanKey::kitem(kMachine, 6));
  EXPECT_EQ(hot.builds(), 0u) << "snapshot hit should not rebuild";
  EXPECT_EQ(plan->schedule,
            cold.plan(PlanKey::kitem(kMachine, 6))->schedule);
}

TEST(Snapshot, FileRoundTrip) {
  Planner planner;
  warm(planner);
  const std::string path = testing::TempDir() + "logpc_plansnap_test.bin";
  const std::size_t written = save_snapshot(planner.cache(), path);
  PlanCache loaded(64, 2);
  EXPECT_EQ(load_snapshot(loaded, path), written);
  EXPECT_EQ(loaded.size(), written);
  EXPECT_THROW((void)load_snapshot(loaded, path + ".missing"),
               std::runtime_error);
}

TEST(Snapshot, RejectsCorruptInput) {
  PlanCache cache(16, 1);
  std::stringstream bad_header("not a snapshot at all............");
  EXPECT_THROW((void)load_snapshot(cache, bad_header),
               std::invalid_argument);

  Planner planner;
  warm(planner);
  std::stringstream stream;
  (void)save_snapshot(planner.cache(), stream);
  const std::string full = stream.str();
  // Truncate mid-entry: the loader must throw, not return garbage.
  std::stringstream truncated(full.substr(0, full.size() / 2));
  PlanCache partial(16, 1);
  EXPECT_THROW((void)load_snapshot(partial, truncated),
               std::invalid_argument);
}

TEST(Snapshot, RejectsAScheduleThatDisagreesWithTheGenerator) {
  Planner planner;
  (void)planner.plan(PlanKey::broadcast(kMachine));
  std::stringstream stream;
  ASSERT_EQ(save_snapshot(planner.cache(), stream), 1u);
  const std::string intact = stream.str();
  {
    std::stringstream replay(intact);
    PlanCache cache(4, 1);
    EXPECT_EQ(load_snapshot(cache, replay), 1u);
  }

  // The entry ends with its schedule, whose last record is one send:
  // five little-endian i64 words (start, from, to, item, recv_start).
  // Delaying that send by one cycle keeps the schedule well formed, but it
  // is no longer the schedule the broadcast's generator produces.
  std::string tampered = intact;
  const std::size_t start_at = tampered.size() - 5 * 8;
  std::int64_t start = 0;
  for (std::size_t i = 8; i-- > 0;) {
    start = (start << 8) | static_cast<unsigned char>(tampered[start_at + i]);
  }
  start += 1;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto word = static_cast<std::uint64_t>(start);
    tampered[start_at + i] = static_cast<char>((word >> (8 * i)) & 0xff);
  }
  std::stringstream replay(tampered);
  PlanCache cache(4, 1);
  EXPECT_THROW((void)load_snapshot(cache, replay), std::invalid_argument);
  EXPECT_EQ(cache.size(), 0u);
}

/// A summation entry as the tree-building planner cached it before the
/// decoder served summation: the fields came from sum::optimal_summation.
PlanPtr tree_built_summation(const Params& m, Count n) {
  const sum::SummationPlan r =
      sum::optimal_summation(m, sum::min_time_for_operands(m, n));
  Plan plan;
  plan.key = PlanKey::summation(m, n);
  plan.schedule = r.timing_view();
  plan.completion = r.t;
  plan.total_operands = r.total_operands;
  plan.method = "reversed (L+1) tree (Sec 5)";
  return std::make_shared<const Plan>(std::move(plan));
}

TEST(Snapshot, TreeBuiltSummationEntriesRoundTrip) {
  PlanCache cache(8, 1);
  const PlanPtr original = tree_built_summation(Params{12, 4, 1, 3}, 50);
  cache.put(original->key, original);
  std::stringstream stream;
  ASSERT_EQ(save_snapshot(cache, stream), 1u);

  PlanCache loaded(8, 1);
  ASSERT_EQ(load_snapshot(loaded, stream), 1u);
  const PlanPtr restored = loaded.get(original->key);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(restored->materialized);
  EXPECT_EQ(restored->schedule, original->schedule);
  EXPECT_EQ(restored->completion, original->completion);
  EXPECT_EQ(restored->method, original->method);
  EXPECT_EQ(restored->total_operands, original->total_operands);
  // The decoder is rebuilt from the key and agrees with the stored fields.
  ASSERT_NE(restored->implicit, nullptr);
  EXPECT_EQ(restored->implicit->total_operands(), original->total_operands);
  // And today's planner builds the same entry from the decoder.
  const Plan rebuilt = Planner::build_uncached(original->key);
  EXPECT_EQ(rebuilt.schedule, original->schedule);
  EXPECT_EQ(rebuilt.completion, original->completion);
  EXPECT_EQ(rebuilt.method, original->method);
  EXPECT_EQ(rebuilt.total_operands, original->total_operands);
}

TEST(Snapshot, RejectsATamperedSummationOperandCount) {
  const PlanPtr honest = tree_built_summation(Params{12, 4, 1, 3}, 50);
  Plan tampered = *honest;
  tampered.total_operands += 1;
  PlanCache cache(8, 1);
  cache.put(tampered.key, std::make_shared<const Plan>(std::move(tampered)));
  std::stringstream stream;
  ASSERT_EQ(save_snapshot(cache, stream), 1u);
  PlanCache loaded(8, 1);
  EXPECT_THROW((void)load_snapshot(loaded, stream), std::invalid_argument);
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(Snapshot, EmptyCacheRoundTrips) {
  PlanCache empty(8, 1);
  std::stringstream stream;
  EXPECT_EQ(save_snapshot(empty, stream), 0u);
  PlanCache loaded(8, 1);
  EXPECT_EQ(load_snapshot(loaded, stream), 0u);
  EXPECT_EQ(loaded.size(), 0u);
}

}  // namespace
}  // namespace logpc::runtime
