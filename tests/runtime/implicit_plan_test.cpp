#include "runtime/implicit_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "baselines/bcast_baselines.hpp"
#include "baselines/kitem_baselines.hpp"
#include "bcast/reduction.hpp"
#include "bcast/single_item.hpp"
#include "bcast/tree.hpp"
#include "exec/engine.hpp"
#include "exec/program.hpp"
#include "runtime/planner.hpp"
#include "runtime/snapshot.hpp"
#include "sim/implicit_sim.hpp"
#include "sum/summation_tree.hpp"

/// The implicit ≡ materialized property suite: every query an ImplicitPlan
/// answers must agree with the materialized tree / schedule / compiled
/// program for the same key, across the whole (P, L, o, g) space the
/// random-machine sweeps cover, and the generator form must keep working at
/// P = 1,000,000 where nothing materialized can exist.

namespace logpc::runtime {
namespace {

constexpr std::array<Problem, 5> kImplicitProblems = {
    Problem::kBroadcast, Problem::kReduce, Problem::kBinomialBroadcast,
    Problem::kBinaryBroadcast, Problem::kChainBroadcast};

/// The materialized tree the implicit decode must reproduce node by node.
bcast::BroadcastTree materialized_tree(const PlanKey& key) {
  const Params& m = key.params;
  switch (key.problem) {
    case Problem::kBroadcast:
    case Problem::kReduce:
      return bcast::BroadcastTree::optimal(m, m.P);
    case Problem::kBinomialBroadcast:
      return baselines::binomial_tree(m, m.P);
    case Problem::kBinaryBroadcast:
      return baselines::binary_tree(m, m.P);
    case Problem::kChainBroadcast:
      return baselines::linear_chain(m, m.P);
    default:
      throw std::logic_error("not an implicit problem");
  }
}

/// The plan the independent per-node builders make for `key` — the oracle
/// for the decoder, which is the Planner's only generator of these
/// families.  `implicit` is the decoder under test.
Plan builder_plan(const PlanKey& key) {
  const Params& m = key.params;
  Plan plan;
  plan.key = key;
  plan.implicit =
      std::make_shared<const ImplicitPlan>(ImplicitPlan::build(key));
  switch (key.problem) {
    case Problem::kBroadcast:
      plan.schedule = bcast::optimal_single_item(m, key.root);
      plan.completion = bcast::B_of_P(m, m.P);
      plan.method = "optimal tree (Thm 2.1)";
      break;
    case Problem::kReduce: {
      bcast::ReductionPlan r = bcast::optimal_reduction(m, key.root);
      plan.schedule = std::move(r.schedule);
      plan.completion = r.completion;
      plan.method = "reversed optimal tree (Sec 4.2)";
      break;
    }
    default: {
      const bcast::BroadcastTree tree = materialized_tree(key);
      plan.schedule = tree.to_schedule(key.root);
      plan.completion = tree.makespan();
      plan.method = key.problem == Problem::kBinomialBroadcast ? "binomial tree"
                    : key.problem == Problem::kBinaryBroadcast ? "binary tree"
                                                               : "linear chain";
      break;
    }
  }
  return plan;
}

std::vector<Params> random_machines(int count, int max_p) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> pd(1, max_p);
  std::uniform_int_distribution<Time> ld(1, 8);
  std::uniform_int_distribution<Time> od(0, 3);
  std::uniform_int_distribution<Time> gd(1, 4);
  std::vector<Params> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(Params{pd(rng), ld(rng), od(rng), gd(rng)});
  }
  // Pin a few shapes the random draw may miss.
  out.push_back(Params{1, 3, 1, 2});
  out.push_back(Params{2, 1, 0, 1});
  out.push_back(Params::postal(64, 2));
  out.push_back(Params{97, 7, 3, 4});
  return out;
}

TEST(ImplicitPlan, SupportsExactlyTheRegularFullMembershipCollectives) {
  const Params m{16, 4, 1, 2};
  for (const Problem p : kImplicitProblems) {
    EXPECT_TRUE(ImplicitPlan::supports(PlanKey::make(p, m)));
  }
  EXPECT_TRUE(ImplicitPlan::supports(PlanKey::summation(m, 100)));
  EXPECT_FALSE(ImplicitPlan::supports(
      PlanKey::make(Problem::kSummation, m, 100, 0, 0x00ffull)));
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::kitem(m, 4)));
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::scatter(m)));
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::gather(m)));
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::alltoall(m)));
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::allreduce(m)));
  EXPECT_FALSE(
      ImplicitPlan::supports(PlanKey::make(Problem::kFlatBroadcast, m)));
  // Degraded membership stays materialized.
  EXPECT_FALSE(ImplicitPlan::supports(
      PlanKey::make(Problem::kBroadcast, m, 1, 0, 0x00ffull)));
  EXPECT_THROW((void)ImplicitPlan::build(PlanKey::scatter(m)),
               std::invalid_argument);
}

TEST(ImplicitPlan, NodeQueriesMatchTheMaterializedTrees) {
  for (const Params& m : random_machines(30, 160)) {
    for (const Problem problem : kImplicitProblems) {
      const PlanKey key = PlanKey::make(problem, m);
      const ImplicitPlan plan = ImplicitPlan::build(key);
      const bcast::BroadcastTree tree = materialized_tree(key);
      ASSERT_EQ(plan.num_nodes(), tree.size()) << key.to_string();
      ASSERT_EQ(plan.completion(), tree.makespan()) << key.to_string();
      for (int n = 0; n < tree.size(); ++n) {
        const bcast::TreeNode& node = tree.node(n);
        ASSERT_EQ(plan.label(n), node.label)
            << key.to_string() << " node " << n;
        ASSERT_EQ(plan.parent(n), node.parent)
            << key.to_string() << " node " << n;
        ASSERT_EQ(plan.child_rank(n), node.rank)
            << key.to_string() << " node " << n;
        ASSERT_EQ(plan.num_children(n),
                  static_cast<int>(node.children.size()))
            << key.to_string() << " node " << n;
        for (std::size_t i = 0; i < node.children.size(); ++i) {
          ASSERT_EQ(plan.child(n, static_cast<int>(i)), node.children[i])
              << key.to_string() << " node " << n << " child " << i;
        }
        ASSERT_EQ(plan.child(n, plan.num_children(n)), -1)
            << key.to_string() << " node " << n;
      }
    }
  }
}

TEST(ImplicitPlan, TreesMatchTheMaterializedTrees) {
  for (const Params& m : random_machines(20, 120)) {
    for (const Problem problem : kImplicitProblems) {
      const PlanKey key = PlanKey::make(problem, m);
      const bcast::BroadcastTree decoded = ImplicitPlan::build(key).to_tree();
      const bcast::BroadcastTree tree = materialized_tree(key);
      ASSERT_EQ(decoded.size(), tree.size()) << key.to_string();
      EXPECT_EQ(decoded.params(), tree.params()) << key.to_string();
      for (int n = 0; n < tree.size(); ++n) {
        ASSERT_EQ(decoded.node(n).label, tree.node(n).label)
            << key.to_string() << " node " << n;
        ASSERT_EQ(decoded.node(n).parent, tree.node(n).parent)
            << key.to_string() << " node " << n;
        ASSERT_EQ(decoded.node(n).rank, tree.node(n).rank)
            << key.to_string() << " node " << n;
        ASSERT_EQ(decoded.node(n).children, tree.node(n).children)
            << key.to_string() << " node " << n;
      }
    }
  }
  // The pipelined k-item baselines run on the decoded binary / chain trees.
  for (const Params& m : {Params{13, 3, 1, 2}, Params::postal(20, 4)}) {
    const Params postal = Params::postal(m.P, m.transfer_time());
    EXPECT_EQ(Planner::build_uncached(
                  PlanKey::make(Problem::kPipelinedBinaryKItem, m, 3))
                  .schedule,
              baselines::pipelined_tree_broadcast(
                  baselines::binary_tree(postal, m.P), 3));
    EXPECT_EQ(Planner::build_uncached(
                  PlanKey::make(Problem::kPipelinedChainKItem, m, 3))
                  .schedule,
              baselines::pipelined_tree_broadcast(
                  baselines::linear_chain(postal, m.P), 3));
  }
}

TEST(ImplicitPlan, SchedulesMatchTheMaterializedBuilders) {
  std::mt19937 rng(7);
  for (const Params& m : random_machines(20, 96)) {
    std::uniform_int_distribution<int> rd(0, m.P - 1);
    const ProcId root = static_cast<ProcId>(rd(rng));
    for (const Problem problem : kImplicitProblems) {
      const PlanKey key = PlanKey::make(problem, m, 1, root);
      const Plan materialized = builder_plan(key);
      ASSERT_TRUE(materialized.materialized);
      ASSERT_NE(materialized.implicit, nullptr) << key.to_string();
      const ImplicitPlan& implicit = *materialized.implicit;
      EXPECT_EQ(implicit.completion(), materialized.completion)
          << key.to_string();
      EXPECT_EQ(implicit.to_schedule(), materialized.schedule)
          << key.to_string();
      EXPECT_EQ(Planner::build_uncached(key).schedule, materialized.schedule)
          << key.to_string();
      // And the implicit-only build agrees on the scalars.
      const Plan lean = Planner::build_uncached(key, /*materialize=*/false);
      EXPECT_FALSE(lean.materialized);
      EXPECT_EQ(lean.completion, materialized.completion);
      EXPECT_EQ(lean.method, materialized.method) << key.to_string();
      EXPECT_EQ(plan_schedule(lean), materialized.schedule)
          << key.to_string();
    }
  }
}

TEST(ImplicitPlan, RankSchedulesTileTheSchedule) {
  for (const Params& m :
       {Params{24, 5, 1, 2}, Params{17, 2, 0, 3}, Params::postal(40, 3)}) {
    for (const Problem problem : {Problem::kBroadcast, Problem::kReduce}) {
      const PlanKey key = PlanKey::make(problem, m, 1, /*root=*/m.P / 2);
      const ImplicitPlan plan = ImplicitPlan::build(key);
      const Schedule whole = plan.to_schedule();
      std::size_t recvs = 0;
      std::size_t sends = 0;
      for (ProcId p = 0; p < m.P; ++p) {
        const RankSchedule rs = plan.rank_schedule(p);
        EXPECT_EQ(rs.proc, p);
        EXPECT_EQ(plan.proc_of_node(rs.node), p);
        EXPECT_EQ(plan.node_of_proc(p), rs.node);
        if (rs.node == 0) {
          EXPECT_EQ(rs.parent_node, -1);
          EXPECT_EQ(p, key.root);
        } else {
          EXPECT_EQ(plan.proc_of_node(rs.parent_node), rs.parent);
        }
        recvs += rs.recvs.size();
        sends += rs.sends.size();
        // Every generated op appears verbatim in the materialized schedule.
        for (const SendOp& op : rs.recvs) {
          EXPECT_EQ(op.to, p);
          EXPECT_NE(std::find(whole.sends().begin(), whole.sends().end(), op),
                    whole.sends().end());
        }
        for (const SendOp& op : rs.sends) {
          EXPECT_EQ(op.from, p);
          EXPECT_NE(std::find(whole.sends().begin(), whole.sends().end(), op),
                    whole.sends().end());
        }
        if (problem == Problem::kBroadcast) {
          EXPECT_EQ(rs.informed_at, plan.label(rs.node));
        } else {
          EXPECT_EQ(rs.informed_at, plan.completion() - plan.label(rs.node));
        }
      }
      // Each tree edge is one rank's recv and another's send.
      EXPECT_EQ(recvs, whole.sends().size());
      EXPECT_EQ(sends, whole.sends().size());
    }
  }
}

/// Instruction streams must agree with the materialized compilers
/// instruction by instruction (links are interned in a different order, so
/// compare everything except the link index, plus link *endpoints*).
void expect_same_streams(const exec::Program& implicit,
                         const exec::Program& materialized) {
  ASSERT_EQ(implicit.procs.size(), materialized.procs.size());
  EXPECT_EQ(implicit.params, materialized.params);
  EXPECT_EQ(implicit.mode, materialized.mode);
  EXPECT_EQ(implicit.num_items, materialized.num_items);
  EXPECT_EQ(implicit.predicted_makespan, materialized.predicted_makespan);
  EXPECT_EQ(implicit.num_messages, materialized.num_messages);
  ASSERT_EQ(implicit.links.size(), materialized.links.size());
  for (std::size_t p = 0; p < implicit.procs.size(); ++p) {
    const auto& a = implicit.procs[p].instrs;
    const auto& b = materialized.procs[p].instrs;
    ASSERT_EQ(a.size(), b.size()) << "proc " << p;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].op, b[i].op) << "proc " << p << " instr " << i;
      EXPECT_EQ(implicit.peer(a[i]), materialized.peer(b[i]))
          << "proc " << p << " instr " << i;
      EXPECT_EQ(a[i].item, b[i].item) << "proc " << p << " instr " << i;
      EXPECT_EQ(a[i].when, b[i].when) << "proc " << p << " instr " << i;
      EXPECT_EQ(a[i].count, b[i].count) << "proc " << p << " instr " << i;
      const exec::Link la =
          implicit.links[static_cast<std::size_t>(a[i].link)];
      const exec::Link lb =
          materialized.links[static_cast<std::size_t>(b[i].link)];
      EXPECT_EQ(la.from, lb.from);
      EXPECT_EQ(la.to, lb.to);
    }
  }
}

TEST(ImplicitPlan, CompiledStreamsMatchTheMaterializedCompilers) {
  for (const Params& m :
       {Params{12, 4, 1, 2}, Params{31, 2, 0, 3}, Params::postal(48, 4)}) {
    for (ProcId root : {ProcId{0}, static_cast<ProcId>(m.P - 1)}) {
      {
        const PlanKey key = PlanKey::broadcast(m, root);
        const ImplicitPlan plan = ImplicitPlan::build(key);
        expect_same_streams(exec::compile_implicit(plan),
                            exec::compile_broadcast(
                                bcast::optimal_single_item(m, root)));
      }
      {
        const PlanKey key = PlanKey::reduce(m, root);
        const ImplicitPlan plan = ImplicitPlan::build(key);
        const bcast::ReductionPlan rp = bcast::optimal_reduction(m, root);
        expect_same_streams(exec::compile_implicit(plan),
                            exec::compile_reduction(rp));
      }
    }
  }
}

TEST(ImplicitPlan, CompiledStreamsMatchAtSixtyFourThousandRanks) {
  // The suites above stop at a few thousand ranks; the one-walk lowering
  // must agree at the top of the served range too.
  const Params m{1 << 16, 6, 1, 2};
  const ProcId root = 12345;
  {
    const ImplicitPlan plan = ImplicitPlan::build(PlanKey::broadcast(m, root));
    expect_same_streams(exec::compile_implicit(plan),
                        exec::compile_broadcast(plan.to_schedule()));
  }
  {
    const ImplicitPlan plan = ImplicitPlan::build(PlanKey::reduce(m, root));
    bcast::ReductionPlan rp;
    rp.params = m;
    rp.root = root;
    rp.schedule = plan.to_schedule();
    rp.completion = plan.completion();
    expect_same_streams(exec::compile_implicit(plan),
                        exec::compile_reduction(rp));
  }
  {
    const ImplicitPlan plan = ImplicitPlan::build(
        PlanKey::make(Problem::kBinomialBroadcast, m, 1, root));
    expect_same_streams(exec::compile_implicit(plan),
                        exec::compile_broadcast(plan.to_schedule()));
  }
}

TEST(ImplicitPlan, EdgeSendsWalkParentsInIndexOrder) {
  for (const Problem problem : kImplicitProblems) {
    const PlanKey key = PlanKey::make(problem, Params{37, 3, 1, 2}, 1, 5);
    const ImplicitPlan plan = ImplicitPlan::build(key);
    const std::vector<SendOp> sends = plan.edge_sends();
    ASSERT_EQ(sends.size(), 36u) << key.to_string();
    // The same sends as the schedule, before its sort.
    std::vector<SendOp> sorted = sends;
    std::sort(sorted.begin(), sorted.end());
    std::vector<SendOp> whole = plan.to_schedule().sends();
    std::sort(whole.begin(), whole.end());
    EXPECT_EQ(sorted, whole) << key.to_string();
    // Grouped by parent node in index order, children by rank.
    std::int64_t last_parent = -1;
    int rank = 0;
    for (const SendOp& op : sends) {
      const ProcId parent = plan.is_reduction() ? op.to : op.from;
      const ProcId child = plan.is_reduction() ? op.from : op.to;
      const std::int64_t node = plan.node_of_proc(parent);
      ASSERT_GE(node, last_parent) << key.to_string();
      rank = node == last_parent ? rank + 1 : 0;
      last_parent = node;
      EXPECT_EQ(plan.child(node, rank), plan.node_of_proc(child))
          << key.to_string();
    }
  }
}

TEST(ImplicitPlan, EngineRunsAreByteExactAgainstTheMaterializedPath) {
  exec::Engine engine;
  const Params m{14, 3, 1, 2};
  const std::string text = "implicit-vs-materialized";
  exec::Bytes payload(text.size());
  std::memcpy(payload.data(), text.data(), text.size());

  // Broadcast: every rank must hold the payload, identically on both paths.
  const PlanKey bkey = PlanKey::broadcast(m, /*root=*/3);
  const exec::Program via_implicit =
      exec::compile_implicit(ImplicitPlan::build(bkey));
  const exec::Program via_ir =
      exec::compile_broadcast(bcast::optimal_single_item(m, bkey.root));
  const exec::ExecReport ri = engine.run(via_implicit, {payload});
  const exec::ExecReport rm = engine.run(via_ir, {payload});
  ASSERT_EQ(ri.items.size(), rm.items.size());
  for (ProcId p = 0; p < m.P; ++p) {
    EXPECT_EQ(ri.item_at(p, 0), rm.item_at(p, 0));
    EXPECT_EQ(ri.item_at(p, 0), payload);
  }

  // Reduce with a *non-commutative* fold: identical accumulators requires
  // identical fold order, not just the same multiset of messages.
  const exec::CombineFn concat = [](exec::Bytes& acc,
                                    std::span<const std::byte> rhs) {
    acc.insert(acc.end(), rhs.begin(), rhs.end());
  };
  std::vector<exec::Bytes> values;
  for (int p = 0; p < m.P; ++p) {
    values.push_back(exec::Bytes{static_cast<std::byte>('a' + p)});
  }
  const PlanKey rkey = PlanKey::reduce(m, /*root=*/5);
  const bcast::ReductionPlan rp = bcast::optimal_reduction(m, rkey.root);
  const exec::ExecReport fi =
      engine.run(exec::compile_implicit(ImplicitPlan::build(rkey)), values,
                 concat);
  const exec::ExecReport fm =
      engine.run(exec::compile_reduction(rp), values, concat);
  EXPECT_EQ(fi.folded_at(5), fm.folded_at(5));
  EXPECT_EQ(fi.folded_at(5).size(), static_cast<std::size_t>(m.P));
}

TEST(ImplicitPlan, MillionRankPlansStayImplicitAndTiny) {
  const Params m{1'000'000, 4, 1, 2};
  Planner planner;
  const PlanPtr plan = planner.plan(PlanKey::broadcast(m));
  ASSERT_NE(plan->implicit, nullptr);
  EXPECT_FALSE(plan->materialized);
  EXPECT_TRUE(plan->schedule.sends().empty());
  const ImplicitPlan& ip = *plan->implicit;
  EXPECT_EQ(ip.num_nodes(), 1'000'000);
  EXPECT_EQ(ip.completion(), bcast::B_of_P(m, m.P));
  // The whole representation is a couple of O(B) tables.
  EXPECT_LT(ip.memory_bytes(), std::size_t{64} * 1024);

  // Full structural simulation of all 1M ranks.
  const sim::ImplicitRunResult run = sim::run_implicit(ip);
  EXPECT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.ranks, 1'000'000u);
  EXPECT_EQ(run.messages, 999'999u);
  EXPECT_EQ(run.makespan, ip.completion());

  // Spot-checked rank queries, including the very last rank.
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> rd(0, m.P - 1);
  for (int i = 0; i < 5000; ++i) {
    const auto p = static_cast<ProcId>(rd(rng));
    const RankSchedule rs = ip.rank_schedule(p);
    EXPECT_EQ(rs.proc, p);
    if (rs.node != 0) {
      EXPECT_EQ(ip.child(rs.parent_node, rs.child_rank), rs.node);
      EXPECT_EQ(rs.recvs.size(), 1u);
    }
  }
  const RankSchedule last = ip.rank_schedule(m.P - 1);
  EXPECT_LE(ip.label(last.node), ip.completion());

  // The baseline families also hold up at 1M (spot checks; the optimal
  // family above gets the full sweep).
  for (const Problem problem :
       {Problem::kBinomialBroadcast, Problem::kBinaryBroadcast}) {
    const ImplicitPlan bp =
        ImplicitPlan::build(PlanKey::make(problem, m));
    EXPECT_EQ(bp.num_nodes(), 1'000'000);
    std::int64_t walked = 0;
    for (std::int64_t n = 999'999; n != 0; n = bp.parent(n)) {
      const std::int64_t parent = bp.parent(n);
      ASSERT_GE(parent, 0);
      ASSERT_LT(parent, n);
      ASSERT_EQ(bp.child(parent, bp.child_rank(n)), n);
      ++walked;
    }
    EXPECT_LE(walked, 64);  // depth is logarithmic
  }
}

TEST(ImplicitPlan, PlannerThresholdControlsMaterialization) {
  constexpr int kThreshold = Planner::kMaterializeThreshold;
  static_assert(kThreshold == 1 << 16);
  Planner planner;
  const PlanPtr small =
      planner.plan(PlanKey::broadcast(Params{kThreshold, 4, 1, 2}));
  EXPECT_TRUE(small->materialized);
  EXPECT_NE(small->implicit, nullptr);
  const PlanPtr big =
      planner.plan(PlanKey::broadcast(Params{kThreshold + 1, 4, 1, 2}));
  EXPECT_FALSE(big->materialized);
  ASSERT_NE(big->implicit, nullptr);
  // plan_schedule materializes on demand and matches the direct builder.
  EXPECT_EQ(plan_schedule(*big),
            bcast::optimal_single_item(big->key.params, big->key.root));
  // Problems without an implicit form materialize whatever P is.
  const PlanPtr scatter =
      planner.plan(PlanKey::scatter(Params{200, 4, 1, 2}));
  EXPECT_TRUE(scatter->materialized);
  EXPECT_EQ(scatter->implicit, nullptr);
}

TEST(ImplicitPlan, SnapshotsRoundTripBothRepresentations) {
  // One materialized entry and two implicit-only ones, the form plan()
  // caches past Planner::kMaterializeThreshold.
  PlanCache cache(16, 1);
  const auto seed = [&](const PlanKey& key, bool materialize) {
    cache.put(key, std::make_shared<const Plan>(
                       Planner::build_uncached(key, materialize)));
  };
  seed(PlanKey::broadcast(Params{16, 3, 1, 2}), true);
  seed(PlanKey::broadcast(Params{4096, 3, 1, 2}), false);
  seed(PlanKey::reduce(Params{100, 2, 0, 1}), false);
  std::stringstream buf;
  EXPECT_EQ(save_snapshot(cache, buf), 3u);

  PlanCache restored(16, 1);
  EXPECT_EQ(load_snapshot(restored, buf), 3u);
  const PlanPtr big = restored.get(PlanKey::broadcast(Params{4096, 3, 1, 2}));
  ASSERT_NE(big, nullptr);
  EXPECT_FALSE(big->materialized);
  ASSERT_NE(big->implicit, nullptr);
  EXPECT_EQ(big->implicit->num_nodes(), 4096);
  EXPECT_EQ(big->completion, big->implicit->completion());
  const PlanPtr small =
      restored.get(PlanKey::broadcast(Params{16, 3, 1, 2}));
  ASSERT_NE(small, nullptr);
  EXPECT_TRUE(small->materialized);
  ASSERT_NE(small->implicit, nullptr);
  EXPECT_EQ(small->implicit->to_schedule(), small->schedule);
}

// ---- Section 5 summation --------------------------------------------------

/// The first field in which two programs differ, or "" when they are
/// identical: every scalar, every link id and endpoint, every instruction.
std::string first_difference(const exec::Program& a, const exec::Program& b) {
  if (a.params != b.params || a.mode != b.mode || a.label != b.label ||
      a.num_items != b.num_items ||
      a.predicted_makespan != b.predicted_makespan ||
      a.num_messages != b.num_messages ||
      a.initials.size() != b.initials.size()) {
    return "program scalars";
  }
  if (a.links.size() != b.links.size()) return "link count";
  for (std::size_t l = 0; l < a.links.size(); ++l) {
    if (a.links[l].from != b.links[l].from || a.links[l].to != b.links[l].to) {
      return "link " + std::to_string(l);
    }
  }
  if (a.procs.size() != b.procs.size()) return "proc count";
  for (std::size_t p = 0; p < a.procs.size(); ++p) {
    const exec::ProcProgram& x = a.procs[p];
    const exec::ProcProgram& y = b.procs[p];
    const std::string where = "proc " + std::to_string(p);
    if (x.proc != y.proc || x.sum_index != y.sum_index ||
        x.num_operands != y.num_operands) {
      return where + " scalars";
    }
    if (x.instrs.size() != y.instrs.size()) return where + " length";
    for (std::size_t i = 0; i < x.instrs.size(); ++i) {
      const exec::Instr& u = x.instrs[i];
      const exec::Instr& v = y.instrs[i];
      if (u.op != v.op || a.peer(u) != b.peer(v) || u.item != v.item ||
          u.count != v.count || u.link != v.link || u.when != v.when) {
        return where + " instr " + std::to_string(i);
      }
    }
  }
  return "";
}

TEST(ImplicitPlan, SummationLowersLikeTheReversedTreeOracle) {
  // (L, o, g): g = o + 1 leaves every middle chunk empty.
  const std::array<std::array<Time, 3>, 4> machines = {
      {{2, 0, 1}, {4, 1, 2}, {3, 1, 4}, {5, 2, 3}}};
  bool saw_idle_ranks = false;
  bool saw_empty_middle_chunk = false;
  for (const int P : {1, 2, 3, 7, 8, 12, 100, 1000, 4097, 65536}) {
    for (const auto& [L, o, g] : machines) {
      const Params m{P, L, o, g};
      // One operand; the root alone (t = o); two per rank; exactly what
      // some deadline sums; and fewer than P, so ranks idle.
      const Time t_exact = sum::min_time_for_operands(m, P) + 1;
      const Count exact = sum::max_operands(m, t_exact);
      for (const Count n : {Count{1}, static_cast<Count>(o + 1),
                            Count{2} * P, exact,
                            static_cast<Count>(P / 2 + 1)}) {
        const PlanKey key = PlanKey::summation(m, n);
        SCOPED_TRACE(key.to_string());
        const Time t = sum::min_time_for_operands(m, n);
        if (n == exact) {
          ASSERT_EQ(t, t_exact);
        }
        const sum::SummationPlan oracle = sum::optimal_summation(m, t);

        const Plan plan = Planner::build_uncached(key);
        ASSERT_NE(plan.implicit, nullptr);
        ASSERT_TRUE(plan.materialized);
        EXPECT_EQ(plan.completion, t);
        EXPECT_EQ(plan.method, "reversed (L+1) tree (Sec 5)");
        EXPECT_EQ(plan.total_operands, oracle.total_operands);
        EXPECT_EQ(plan.schedule, oracle.timing_view());
        ASSERT_EQ(plan.implicit->num_nodes(),
                  static_cast<std::int64_t>(oracle.procs.size()));
        EXPECT_EQ(first_difference(exec::compile(plan),
                                   exec::compile_summation(oracle)),
                  "");

        const Plan lean = Planner::build_uncached(key, /*materialize=*/false);
        EXPECT_FALSE(lean.materialized);
        EXPECT_EQ(lean.completion, t);
        EXPECT_EQ(lean.total_operands, oracle.total_operands);

        saw_idle_ranks = saw_idle_ranks || oracle.procs.size() <
                                               static_cast<std::size_t>(P);
        saw_empty_middle_chunk =
            saw_empty_middle_chunk ||
            (g == o + 1 && !oracle.procs.empty() &&
             oracle.procs[0].recv_from.size() >= 2);
      }
    }
  }
  EXPECT_TRUE(saw_idle_ranks);
  EXPECT_TRUE(saw_empty_middle_chunk);
}

TEST(ImplicitPlan, SummationRankQueriesMatchTheTimingView) {
  for (const Params& m : {Params{7, 3, 2, 3}, Params{24, 5, 1, 2},
                          Params{100, 2, 0, 1}, Params{1000, 4, 1, 2}}) {
    for (const Count n :
         {Count{1}, static_cast<Count>(m.P / 2 + 1), Count{2} * m.P}) {
      const PlanKey key = PlanKey::summation(m, n);
      SCOPED_TRACE(key.to_string());
      const ImplicitPlan plan = ImplicitPlan::build(key);
      const sum::SummationPlan oracle =
          sum::optimal_summation(m, plan.completion());
      const Schedule whole = oracle.timing_view();
      EXPECT_EQ(plan.to_schedule(), whole);
      std::size_t recvs = 0;
      std::size_t sends = 0;
      for (ProcId p = 0; p < m.P; ++p) {
        const RankSchedule rs = plan.rank_schedule(p);
        ASSERT_EQ(rs.proc, p);
        if (static_cast<std::size_t>(p) >= oracle.procs.size()) {
          EXPECT_EQ(rs.node, -1) << "P" << p;
          EXPECT_EQ(rs.parent, kNoProc) << "P" << p;
          EXPECT_TRUE(rs.recvs.empty() && rs.sends.empty()) << "P" << p;
          continue;
        }
        const sum::ProcPlan& pp = oracle.procs[static_cast<std::size_t>(p)];
        EXPECT_EQ(rs.node, p);
        EXPECT_EQ(rs.parent, pp.send_to) << "P" << p;
        EXPECT_EQ(rs.informed_at, pp.send_time) << "P" << p;
        ASSERT_EQ(rs.recvs.size(), pp.recv_from.size()) << "P" << p;
        for (std::size_t j = 0; j < rs.recvs.size(); ++j) {
          const ProcId child = pp.recv_from[j];
          EXPECT_EQ(rs.recvs[j],
                    (SendOp{oracle.procs[static_cast<std::size_t>(child)]
                                .send_time,
                            child, p, 0}))
              << "P" << p << " recv " << j;
        }
        ASSERT_EQ(rs.sends.size(), pp.send_to == kNoProc ? 0u : 1u);
        if (!rs.sends.empty()) {
          EXPECT_EQ(rs.sends[0], (SendOp{pp.send_time, p, pp.send_to, 0}));
          EXPECT_NE(std::find(whole.sends().begin(), whole.sends().end(),
                              rs.sends[0]),
                    whole.sends().end());
        }
        recvs += rs.recvs.size();
        sends += rs.sends.size();
      }
      EXPECT_EQ(recvs, whole.sends().size());
      EXPECT_EQ(sends, whole.sends().size());

      // The tree is the (L+1) broadcast tree the summation reverses.
      const bcast::BroadcastTree decoded = plan.to_tree();
      const bcast::BroadcastTree& tree = oracle.reversed_tree;
      EXPECT_EQ(decoded.params(), tree.params());
      ASSERT_EQ(decoded.size(), tree.size());
      for (int v = 0; v < tree.size(); ++v) {
        EXPECT_EQ(decoded.node(v).label, tree.node(v).label) << v;
        EXPECT_EQ(decoded.node(v).parent, tree.node(v).parent) << v;
        EXPECT_EQ(decoded.node(v).children, tree.node(v).children) << v;
        EXPECT_EQ(plan.label(v), tree.node(v).label) << v;
        EXPECT_EQ(plan.parent(v), tree.node(v).parent) << v;
        EXPECT_EQ(plan.num_children(v),
                  static_cast<int>(tree.node(v).children.size()))
            << v;
      }
      // The broadcast-tree sweep has no summation form: it refuses.
      EXPECT_THROW((void)sim::run_implicit(plan), std::invalid_argument);
    }
  }
}

TEST(ImplicitPlan, MillionRankSummationPlansInLogarithmicMemory) {
  const Params m{1 << 20, 4, 1, 2};
  const Count n = Count{2} * m.P;
  Planner planner;
  const PlanPtr plan = planner.plan(PlanKey::summation(m, n));
  ASSERT_NE(plan->implicit, nullptr);
  EXPECT_FALSE(plan->materialized);
  EXPECT_TRUE(plan->schedule.sends().empty());
  const Time t = sum::min_time_for_operands(m, n);
  EXPECT_EQ(plan->completion, t);
  EXPECT_EQ(plan->total_operands,
            static_cast<std::uint64_t>(sum::max_operands(m, t)));
  const PlanPtr bcast = planner.plan(PlanKey::broadcast(m));
  ASSERT_NE(bcast->implicit, nullptr);
  const std::size_t bytes = plan->implicit->memory_bytes();
  EXPECT_LE(bytes, 2 * bcast->implicit->memory_bytes());
  EXPECT_LT(bytes, std::size_t{64} * 1024);
  // Spot checks: each participant's send leaves at t - label and reaches
  // the parent that lists it among its receptions.
  const ImplicitPlan& ip = *plan->implicit;
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> rd(1, m.P - 1);
  for (int i = 0; i < 2000; ++i) {
    const auto p = static_cast<ProcId>(rd(rng));
    const RankSchedule rs = ip.rank_schedule(p);
    if (rs.node < 0) continue;
    ASSERT_EQ(rs.sends.size(), 1u);
    EXPECT_EQ(rs.sends[0].start, t - ip.label(rs.node));
    const RankSchedule up = ip.rank_schedule(rs.parent);
    EXPECT_NE(std::find(up.recvs.begin(), up.recvs.end(), rs.sends[0]),
              up.recvs.end());
  }
}

TEST(ImplicitPlan, ConcurrentQueriesAreRaceFree) {
  // All queries are const over immutable tables; TSan verifies.
  const Params m{100'000, 4, 1, 2};
  const ImplicitPlan plan = ImplicitPlan::build(PlanKey::broadcast(m));
  // 150000 operands leave some ranks idle, so both answers get queried.
  const ImplicitPlan sum_plan =
      ImplicitPlan::build(PlanKey::summation(m, 150'000));
  ASSERT_LT(sum_plan.num_nodes(), m.P);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&plan, &sum_plan, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      std::uniform_int_distribution<int> rd(0, 99'999);
      for (int i = 0; i < 2000; ++i) {
        const auto p = static_cast<ProcId>(rd(rng));
        const RankSchedule rs = plan.rank_schedule(p);
        ASSERT_EQ(rs.proc, p);
        const RankSchedule ss = sum_plan.rank_schedule(p);
        ASSERT_EQ(ss.proc, p);
        ASSERT_EQ(ss.node < 0, p >= sum_plan.num_nodes());
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

}  // namespace
}  // namespace logpc::runtime
