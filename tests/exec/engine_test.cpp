#include "exec/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bcast/all_to_all.hpp"
#include "bcast/reduction.hpp"
#include "bcast/single_item.hpp"
#include "exec/measure.hpp"
#include "exec_test_util.hpp"
#include "runtime/planner.hpp"
#include "sum/executor.hpp"
#include "sum/summation_tree.hpp"
#include "validate/checker.hpp"

namespace logpc::exec {
namespace {

namespace tu = testutil;
using runtime::PlanKey;
using runtime::Planner;

TEST(CompileBroadcast, LowersScheduleToStreams) {
  const Params params{8, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const Program prog = compile_broadcast(s);
  ASSERT_EQ(prog.procs.size(), 8u);
  EXPECT_EQ(prog.mode, Mode::kMove);
  EXPECT_EQ(prog.num_messages, s.sends().size());
  EXPECT_EQ(prog.predicted_makespan, s.makespan());
  // Exactly P-1 receives across all streams (everyone but the root learns
  // the item once), and one link per transmission in a tree.
  std::size_t recvs = 0;
  for (const auto& pp : prog.procs) {
    for (const auto& ins : pp.instrs) {
      if (ins.op == OpCode::kRecv) ++recvs;
    }
  }
  EXPECT_EQ(recvs, 7u);
  EXPECT_EQ(prog.links.size(), s.sends().size());
}

TEST(CompileBroadcast, RefusesPlanSendingUnheldItem) {
  Schedule s(Params{2, 2, 0, 1}, 1);
  s.add_send(0, /*from=*/0, /*to=*/1, /*item=*/0);  // no initial placement
  EXPECT_THROW((void)compile_broadcast(s), std::invalid_argument);
}

TEST(Engine, SingleItemBroadcastDeliversBytesEverywhere) {
  const Params params{8, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const Program prog = compile_broadcast(s);
  Engine engine;
  const Bytes payload = tu::of_str("the one true datum");
  const ExecReport report = engine.run(prog, {payload});

  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(report.item_at(p, 0), payload) << "P" << p;
  }
  EXPECT_EQ(report.messages, s.sends().size());
  EXPECT_GT(report.wall_ns, 0u);
  EXPECT_EQ(report.predicted_makespan, s.makespan());
  EXPECT_TRUE(validate::check_delivery_order(s, report.deliveries()).ok());
  EXPECT_LE(report.max_mailbox_occupancy, report.mailbox_capacity);
}

TEST(Engine, KItemBroadcastDeliversEveryItemOnce) {
  const Params physical{9, 3, 1, 2};
  const auto plan =
      Planner::build_uncached(PlanKey::kitem(physical, 6));
  const Program prog = compile_broadcast(plan.schedule, "kitem");
  Engine engine;
  std::vector<Bytes> items;
  for (int i = 0; i < plan.schedule.num_items(); ++i) {
    items.push_back(tu::of_str("item-" + std::to_string(i)));
  }
  const ExecReport report = engine.run(prog, items);

  const int P = plan.schedule.params().P;
  for (ProcId p = 0; p < P; ++p) {
    for (int i = 0; i < plan.schedule.num_items(); ++i) {
      EXPECT_EQ(report.item_at(p, i), items[static_cast<std::size_t>(i)])
          << "P" << p << " item " << i;
    }
  }
  EXPECT_TRUE(
      validate::check_delivery_order(plan.schedule, report.deliveries()).ok());
  EXPECT_LE(report.max_mailbox_occupancy, report.mailbox_capacity);
}

TEST(Engine, SegmentRunCoalescesToTheBulkShape) {
  // A segmented run over one logical payload must report exactly what the
  // bulk single-item run reports: one contiguous buffer per processor,
  // byte-identical to the payload — even when the payload does not divide
  // evenly into segments.
  const Params params{8, 4, 1, 2};
  const int k = 4;
  const auto plan = Planner::build_uncached(PlanKey::kitem(params, k));
  const Program prog = compile_broadcast(plan.schedule, "kitem-seg");
  Bytes payload(4099);  // 4099 = 4*1024 + 3: three segments get the extra byte
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 131 + 7);
  }
  Engine engine;
  const ExecReport report = engine.run_segmented(
      prog, SegmentRun{std::span<const std::byte>(payload.data(),
                                                  payload.size()),
                       k});
  ASSERT_EQ(report.items.size(), 8u);
  for (ProcId p = 0; p < params.P; ++p) {
    ASSERT_EQ(report.items[static_cast<std::size_t>(p)].size(), 1u)
        << "P" << p;
    EXPECT_EQ(report.item_at(p, 0), payload) << "P" << p;
  }
  EXPECT_TRUE(
      validate::check_delivery_order(plan.schedule, report.deliveries()).ok());
  // And it matches the bulk run bit for bit.
  const Schedule bulk = bcast::optimal_single_item(params);
  const ExecReport bulk_report =
      engine.run(compile_broadcast(bulk), {payload});
  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(report.item_at(p, 0), bulk_report.item_at(p, 0)) << "P" << p;
  }
}

TEST(Engine, SegmentRunValidatesItsInputs) {
  const Params params{8, 4, 1, 2};
  const auto plan = Planner::build_uncached(PlanKey::kitem(params, 4));
  const Program prog = compile_broadcast(plan.schedule, "kitem-seg");
  Engine engine;
  const Bytes payload(64, std::byte{0x5a});
  const std::span<const std::byte> span(payload.data(), payload.size());
  EXPECT_THROW((void)engine.run_segmented(prog, SegmentRun{span, 3}),
               std::invalid_argument);  // segments != num_items
  EXPECT_THROW((void)engine.run_segmented(prog, SegmentRun{{}, 4}),
               std::invalid_argument);  // empty payload
}

TEST(Engine, AllToAllKDeliversAllItems) {
  const Params params{8, 6, 1, 2};
  const int k = 2;
  const Schedule s = bcast::all_to_all_k(params, k);
  const Program prog = compile_broadcast(s, "alltoall");
  Engine engine;
  std::vector<Bytes> items;
  for (int i = 0; i < s.num_items(); ++i) {
    items.push_back(tu::of_u64(1000u + static_cast<std::uint64_t>(i)));
  }
  const ExecReport report = engine.run(prog, items);
  for (ProcId p = 0; p < params.P; ++p) {
    for (int i = 0; i < s.num_items(); ++i) {
      EXPECT_EQ(tu::to_u64(report.item_at(p, i)),
                1000u + static_cast<std::uint64_t>(i));
    }
  }
  EXPECT_TRUE(validate::check_delivery_order(s, report.deliveries()).ok());
  EXPECT_LE(report.max_mailbox_occupancy, report.mailbox_capacity);
}

TEST(Engine, ScatterAndGatherMoveDistinctItems) {
  const Params params{8, 4, 1, 2};
  Engine engine;
  {
    const auto plan = Planner::build_uncached(PlanKey::scatter(params, 0));
    const Program prog = compile_broadcast(plan.schedule, "scatter");
    std::vector<Bytes> items;
    for (int i = 0; i < params.P; ++i) {
      items.push_back(tu::of_str("shard" + std::to_string(i)));
    }
    const ExecReport report = engine.run(prog, items);
    for (ProcId p = 0; p < params.P; ++p) {
      EXPECT_EQ(tu::to_str(report.item_at(p, p)),
                "shard" + std::to_string(p));
    }
  }
  {
    const auto plan = Planner::build_uncached(PlanKey::gather(params, 0));
    const Program prog = compile_broadcast(plan.schedule, "gather");
    std::vector<Bytes> items;
    for (int i = 0; i < params.P; ++i) {
      items.push_back(tu::of_str("part" + std::to_string(i)));
    }
    const ExecReport report = engine.run(prog, items);
    for (ProcId p = 0; p < params.P; ++p) {
      EXPECT_EQ(tu::to_str(report.item_at(0, p)), "part" + std::to_string(p));
    }
  }
}

TEST(Engine, ReductionFoldsInArrivalOrder) {
  const Params params{8, 4, 1, 2};
  const bcast::ReductionPlan plan = bcast::optimal_reduction(params, 0);
  const Program prog = compile_reduction(plan);
  Engine engine;

  // Commutative check: sum of all contributions.
  {
    std::vector<Bytes> values;
    std::uint64_t total = 0;
    for (int p = 0; p < params.P; ++p) {
      values.push_back(tu::of_u64(static_cast<std::uint64_t>(p * p + 1)));
      total += static_cast<std::uint64_t>(p * p + 1);
    }
    const ExecReport report = engine.run(prog, values, tu::add_u64());
    EXPECT_EQ(tu::to_u64(report.folded_at(0)), total);
  }

  // Non-commutative check: the engine's fold must equal the plan replay's.
  {
    std::vector<Bytes> values;
    std::vector<std::string> strings;
    for (int p = 0; p < params.P; ++p) {
      strings.push_back('<' + std::to_string(p) + '>');
      values.push_back(tu::of_str(strings.back()));
    }
    const std::string expected = bcast::execute_reduction<std::string>(
        plan, strings,
        [](const std::string& a, const std::string& b) { return a + b; });
    const ExecReport report = engine.run(prog, values, tu::concat());
    EXPECT_EQ(tu::to_str(report.folded_at(0)), expected);
  }
}

TEST(Engine, SummationMatchesSequentialFoldInCombinationOrder) {
  const Params params{8, 4, 1, 2};  // g >= o + 1
  const Time t = 30;
  const sum::SummationPlan plan = sum::optimal_summation(params, t);
  ASSERT_GT(plan.total_operands, 0u);
  const Program prog = compile_summation(plan);
  Engine engine;

  const auto layout = sum::operand_layout(plan);
  std::vector<std::vector<Bytes>> operands(plan.procs.size());
  std::vector<std::vector<std::string>> op_strings(plan.procs.size());
  int next = 0;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    for (std::size_t j = 0; j < layout[i].total(); ++j) {
      op_strings[i].push_back('[' + std::to_string(next++) + ']');
      operands[i].push_back(tu::of_str(op_strings[i].back()));
    }
  }

  std::string expected;
  for (const auto& [proc, idx] : sum::combination_order(plan)) {
    // combination_order is in (processor id, local index) space; map the
    // processor id back to its plan index.
    for (std::size_t i = 0; i < plan.procs.size(); ++i) {
      if (plan.procs[i].proc == proc) {
        expected += op_strings[i][idx];
        break;
      }
    }
  }

  const ExecReport report = engine.run(prog, operands, tu::concat());
  EXPECT_EQ(tu::to_str(report.folded_at(plan.root)), expected);

  // And the commutative sanity: iota operands, compare with the reference
  // value-level executor.
  std::vector<std::vector<Bytes>> iota(plan.procs.size());
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    for (std::size_t j = 0; j < layout[i].total(); ++j) {
      iota[i].push_back(tu::of_u64(n++));
    }
  }
  const ExecReport sums = engine.run(prog, iota, tu::add_u64());
  EXPECT_EQ(tu::to_u64(sums.folded_at(plan.root)),
            static_cast<std::uint64_t>(sum::execute_iota_sum(plan)));
}

TEST(Engine, MeasureFitsPlausibleParameters) {
  const Params params{8, 6, 1, 2};
  const Schedule s = bcast::all_to_all(params);
  Engine engine;
  std::vector<Bytes> items;
  for (int i = 0; i < params.P; ++i) items.push_back(tu::of_u64(1));
  const ExecReport report =
      engine.run(compile_broadcast(s, "alltoall"), items);

  const MeasuredLogP fit = measure(report);
  EXPECT_GT(fit.overhead_samples, 0u);
  EXPECT_GT(fit.gap_samples, 0u);  // every proc sends P-1 times
  EXPECT_GT(fit.latency_samples, 0u);
  EXPECT_GE(fit.L_ns, 0.0);
  EXPECT_GE(fit.o_ns, 0.0);
  EXPECT_GE(fit.g_ns, fit.o_ns);

  const double ns_per_cycle = fitted_ns_per_cycle(report);
  EXPECT_GT(ns_per_cycle, 0.0);
  const sim::MeasuredParams mp = fit.as_measured_params(ns_per_cycle, params);
  EXPECT_EQ(mp.P, params.P);
  EXPECT_GE(mp.L, 1);
  EXPECT_GE(mp.o, 0);
  EXPECT_GE(mp.g, 1);
}

TEST(Engine, ReusesPoolAcrossRunsAndSizes) {
  Engine engine;
  for (const int P : {2, 8, 5, 8, 12}) {
    const Params params{P, 4, 1, 2};
    const Schedule s = bcast::optimal_single_item(params);
    const ExecReport report =
        engine.run(compile_broadcast(s), {tu::of_str("x")});
    for (ProcId p = 0; p < P; ++p) {
      EXPECT_EQ(tu::to_str(report.item_at(p, 0)), "x");
    }
  }
  EXPECT_GE(engine.pool().size(), 12u);
  EXPECT_EQ(engine.pool().epochs(), 5u);
}

TEST(Engine, ModeMismatchThrows) {
  const Params params{4, 2, 1, 1};
  const Program prog = compile_broadcast(bcast::optimal_single_item(params));
  Engine engine;
  EXPECT_THROW((void)engine.run(prog, {tu::of_u64(1)}, tu::add_u64()),
               std::invalid_argument);
}

TEST(Engine, WrongPayloadCountThrows) {
  const Params params{4, 2, 1, 1};
  const Program prog = compile_broadcast(bcast::optimal_single_item(params));
  Engine engine;
  EXPECT_THROW((void)engine.run(prog, std::vector<Bytes>{}),
               std::invalid_argument);
}

TEST(Engine, TimesOutInsteadOfHangingOnImpossibleProgram) {
  // A hand-built program whose receive has no matching send: the engine
  // must abort the run with an error, not hang the pool.
  Program prog;
  prog.params = Params{2, 2, 0, 1};
  prog.mode = Mode::kMove;
  prog.label = "impossible";
  prog.num_items = 1;
  prog.links.push_back(Link{1, 0});
  prog.procs = ProcStreams::build(2, [](auto&& emit) {
    emit(0, Instr{OpCode::kRecv, /*item=*/0, /*link=*/0, 1, 0});  // from P1
  });
  Engine::Options short_fuse;
  short_fuse.timeout_ms = 100;
  Engine engine(short_fuse);
  EXPECT_THROW((void)engine.run(prog, {tu::of_u64(1)}), std::runtime_error);
}

TEST(Engine, TimeoutJoinsWorkersAndLeavesThePoolReusable) {
  // The watchdog fix: when a run times out, every worker must have been
  // signalled and rejoined the pool barrier and all mailboxes drained
  // BEFORE the error propagates — no thread may still be blocked on a
  // dead run's state.  Under TSan this doubles as a leak/race check.
  Program impossible;
  impossible.params = Params{2, 2, 0, 1};
  impossible.mode = Mode::kMove;
  impossible.label = "impossible";
  impossible.num_items = 1;
  impossible.links.push_back(Link{1, 0});
  impossible.procs = ProcStreams::build(2, [](auto&& emit) {
    emit(0, Instr{OpCode::kRecv, /*item=*/0, /*link=*/0, 1, 0});  // from P1
  });

  Engine::Options short_fuse;
  short_fuse.timeout_ms = 100;
  Engine engine(short_fuse);
  EXPECT_THROW((void)engine.run(impossible, {tu::of_u64(1)}),
               std::runtime_error);
  const std::size_t workers = engine.pool().size();
  const std::uint64_t epochs = engine.pool().epochs();

  // The same engine must run a real collective immediately afterwards:
  // the abort left no stuck worker and no stale message behind.
  const Params params{8, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const ExecReport report =
      engine.run(compile_broadcast(s), {tu::of_str("alive")});
  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(tu::to_str(report.item_at(p, 0)), "alive");
  }
  EXPECT_GE(engine.pool().size(), workers);
  EXPECT_EQ(engine.pool().epochs(), epochs + 1);
}

TEST(Engine, ReportsWarmPoolAndWarmBuffersAcrossRuns) {
  const Params params{8, 4, 1, 2};
  const Program prog = compile_broadcast(bcast::optimal_single_item(params));
  Engine engine;

  // A fresh engine's first run spawns its threads and builds its run
  // context: a cold start on both axes.
  const ExecReport first = engine.run(prog, {tu::of_str("a")});
  EXPECT_FALSE(first.warm_pool);
  EXPECT_FALSE(first.warm_buffers);

  // Same shape immediately after: resident threads, recycled mailboxes —
  // and the recycled rings must deliver the *new* payload.
  const ExecReport second = engine.run(prog, {tu::of_str("b")});
  EXPECT_TRUE(second.warm_pool);
  EXPECT_TRUE(second.warm_buffers);
  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(tu::to_str(second.item_at(p, 0)), "b");
  }

  // A different shape keeps the threads warm but rebuilds the context.
  const Params smaller{5, 4, 1, 2};
  const ExecReport third = engine.run(
      compile_broadcast(bcast::optimal_single_item(smaller)),
      {tu::of_str("c")});
  EXPECT_TRUE(third.warm_pool);
  EXPECT_FALSE(third.warm_buffers);
}

TEST(Engine, PrewarmMakesEvenTheFirstRunWarm) {
  const Params params{8, 4, 1, 2};
  Engine engine;
  engine.prewarm(params.P);
  const ExecReport report = engine.run(
      compile_broadcast(bcast::optimal_single_item(params)),
      {tu::of_str("x")});
  EXPECT_TRUE(report.warm_pool);
  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(tu::to_str(report.item_at(p, 0)), "x");
  }
}

TEST(Engine, SharedEngineServesConcurrentCallersSafely) {
  // Engine::shared() documents that concurrent run() calls serialize on
  // the run mutex; hammer it from several threads and check every caller
  // gets its own intact result.
  const Params params{4, 4, 1, 2};
  const Program prog = compile_broadcast(bcast::optimal_single_item(params));
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < 5; ++i) {
        const std::string payload =
            "caller-" + std::to_string(c) + "-" + std::to_string(i);
        const ExecReport report =
            Engine::shared().run(prog, {tu::of_str(payload)});
        for (ProcId p = 0; p < params.P; ++p) {
          if (tu::to_str(report.item_at(p, 0)) != payload) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Delivery equivalence: the fault-free delivery, acked delivery
// (Recovery::enabled) and acked delivery under seeded drops drive one
// worker loop over one staging, so each run must report byte-identical
// items, accumulators and delivery order through all three.  The drop seed
// comes from LOGPC_FAULT_SEED (default 1), as in the fault suite.  Every
// machine has P <= 4 so the ranks do not oversubscribe a 4-core host.
// ---------------------------------------------------------------------------

std::uint64_t fault_seed() {
  const char* s = std::getenv("LOGPC_FAULT_SEED");
  return (s != nullptr && *s != '\0') ? std::strtoull(s, nullptr, 10) : 1;
}

Engine::Options acked_options() {
  Engine::Options opts;
  opts.acked = true;
  opts.timeout_ms = 5000;
  return opts;
}

/// Runs `go(engine, injector)` through each delivery and expects the
/// acked and lossy reports to equal the fault-free one; returns that one.
template <class Go>
ExecReport expect_deliveries_agree(Go&& go) {
  Engine direct;
  Engine acked(acked_options());
  Engine lossy(acked_options());
  fault::FaultSpec spec;
  spec.seed = fault_seed();
  spec.drop_prob = 0.3;
  const fault::Injector drops(spec);

  ExecReport ref = go(direct, nullptr);
  const ExecReport acked_run = go(acked, nullptr);
  const ExecReport lossy_run = go(lossy, &drops);
  for (const ExecReport* run : {&acked_run, &lossy_run}) {
    const char* name = run == &acked_run ? "acked" : "acked with drops";
    EXPECT_EQ(run->items, ref.items) << name;
    EXPECT_EQ(run->folded, ref.folded) << name;
    EXPECT_EQ(run->deliveries(), ref.deliveries()) << name;
  }
  return ref;
}

struct NamedProgram {
  std::string name;
  Program prog;
};

/// The kMove plans under test: allgather, k-item and the broadcast tree.
std::vector<NamedProgram> move_programs() {
  std::vector<NamedProgram> out;
  for (const Params& params : {Params{4, 4, 1, 2}, Params{3, 3, 1, 2}}) {
    const std::string at = " " + params.to_string();
    out.push_back({"allgather" + at,
                   compile(Planner::build_uncached(PlanKey::alltoall(params)))});
    for (const int k : {2, 4}) {
      out.push_back(
          {"k-item k=" + std::to_string(k) + at,
           compile(Planner::build_uncached(PlanKey::kitem(params, k)))});
    }
    out.push_back({"tree" + at, compile(Planner::build_uncached(
                                    PlanKey::broadcast(params)))});
  }
  return out;
}

TEST(DeliveryEquivalence, MoveRunWithMixedSizesAgrees) {
  for (const NamedProgram& np : move_programs()) {
    SCOPED_TRACE(np.name);
    // Sizes 0, 37, 13, 50, ... bytes: item 0 is empty.
    std::vector<Bytes> items;
    for (int i = 0; i < np.prog.num_items; ++i) {
      Bytes b(static_cast<std::size_t>(i * 37 % 61));
      for (std::size_t j = 0; j < b.size(); ++j) {
        b[j] = static_cast<std::byte>(i * 7 + static_cast<int>(j));
      }
      items.push_back(std::move(b));
    }
    const ExecReport ref =
        expect_deliveries_agree([&](Engine& e, const fault::Injector* inj) {
          return e.run(np.prog, items, inj);
        });
    EXPECT_EQ(ref.deliveries(), tu::expected_deliveries(np.prog));
    for (const auto& held : ref.items) {
      for (std::size_t i = 0; i < held.size(); ++i) {
        if (!held[i].empty()) {
          EXPECT_EQ(held[i], items[i]) << "item " << i;
        }
      }
    }
  }
}

TEST(DeliveryEquivalence, SegmentedRunWithUnevenSplitAgrees) {
  Bytes payload(1003);  // divides by none of k = 2, 3, 4
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 131 + 7);
  }
  for (const NamedProgram& np : move_programs()) {
    SCOPED_TRACE(np.name);
    const SegmentRun seg{std::span<const std::byte>(payload),
                         np.prog.num_items};
    const ExecReport ref =
        expect_deliveries_agree([&](Engine& e, const fault::Injector* inj) {
          return e.run_segmented(np.prog, seg, inj);
        });
    for (const auto& held : ref.items) {
      ASSERT_EQ(held.size(), 1u);
      EXPECT_EQ(held[0], payload);
    }
  }
}

TEST(DeliveryEquivalence, FoldRunAgrees) {
  for (const Params& params : {Params{4, 4, 1, 2}, Params{3, 3, 1, 2}}) {
    SCOPED_TRACE(params.to_string());
    const bcast::ReductionPlan plan = bcast::optimal_reduction(params, 0);
    const Program prog = compile_reduction(plan);
    std::vector<Bytes> values;
    std::vector<std::string> strings;
    for (int p = 0; p < params.P; ++p) {
      strings.push_back('<' + std::to_string(p) + '>');
      values.push_back(tu::of_str(strings.back()));
    }
    const ExecReport ref =
        expect_deliveries_agree([&](Engine& e, const fault::Injector* inj) {
          return e.run(prog, values, tu::concat(), inj);
        });
    EXPECT_EQ(tu::to_str(ref.folded_at(0)),
              bcast::execute_reduction<std::string>(
                  plan, strings, [](const std::string& a,
                                    const std::string& b) { return a + b; }));
  }
}

TEST(DeliveryEquivalence, NonCommutativeSumRunAgrees) {
  for (const Params& params : {Params{4, 4, 1, 2}, Params{3, 3, 1, 2}}) {
    SCOPED_TRACE(params.to_string());
    const sum::SummationPlan plan = sum::optimal_summation(params, 20);
    ASSERT_GT(plan.total_operands, 0u);
    const Program prog = compile_summation(plan);
    const auto layout = sum::operand_layout(plan);
    std::vector<std::vector<Bytes>> operands(layout.size());
    std::size_t total_bytes = 0;
    int next = 0;
    for (std::size_t i = 0; i < layout.size(); ++i) {
      for (std::size_t j = 0; j < layout[i].total(); ++j) {
        operands[i].push_back(tu::of_str('[' + std::to_string(next++) + ']'));
        total_bytes += operands[i].back().size();
      }
    }
    const ExecReport ref =
        expect_deliveries_agree([&](Engine& e, const fault::Injector* inj) {
          return e.run(prog, operands, tu::concat(), inj);
        });
    EXPECT_EQ(ref.folded_at(plan.root).size(), total_bytes);
  }
}

TEST(DeliveryEquivalence, DeadRankStillRaisesRankFailureNamingIt) {
  // Asynchronous acks must not hide a crash: every rank waiting on the
  // dead one — for a message or for an ack — accuses it.  The victim is
  // the first non-root rank with two instructions, killed after its first
  // (a flat tree has none: its rank 1 dies before receiving).
  for (const NamedProgram& np : move_programs()) {
    SCOPED_TRACE(np.name);
    fault::FaultSpec spec;
    spec.seed = fault_seed();
    spec.drop_prob = 0.3;
    spec.dead_rank = 1;
    for (std::size_t p = 1; p < np.prog.procs.size(); ++p) {
      if (np.prog.procs[p].instrs.size() >= 2) {
        spec.dead_rank = static_cast<ProcId>(p);
        spec.dead_after_instrs = 1;
        break;
      }
    }
    const fault::Injector inj(spec);
    Engine engine(acked_options());
    const std::vector<Bytes> items(static_cast<std::size_t>(np.prog.num_items),
                                   tu::of_str("x"));
    try {
      (void)engine.run(np.prog, items, &inj);
      FAIL() << "expected exec::RankFailure";
    } catch (const RankFailure& failure) {
      EXPECT_EQ(failure.rank(), spec.dead_rank);
    }
  }
}

}  // namespace
}  // namespace logpc::exec
