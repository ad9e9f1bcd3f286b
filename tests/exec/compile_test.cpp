#include "exec/program.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "api/communicator.hpp"
#include "baselines/bcast_baselines.hpp"
#include "bcast/reduction.hpp"
#include "bcast/single_item.hpp"
#include "exec_test_util.hpp"
#include "runtime/implicit_plan.hpp"
#include "runtime/planner.hpp"
#include "sum/summation_tree.hpp"
#include "tune/decision_table.hpp"

/// exec::compile, the one Plan -> Program lowering: for every executable
/// problem it must stamp the plan's completion and the problem's label,
/// and produce the streams of the per-IR reference lowering — whichever
/// representation (implicit generator or materialized schedule) the
/// planner cached.  api::Communicator::compile must be exactly this
/// lowering plus the k-item root relabel.

namespace logpc::exec {
namespace {

using runtime::Plan;
using runtime::PlanKey;
using runtime::Planner;
using runtime::Problem;

/// One executable problem and what exec::compile must make of it.
struct Lowering {
  Problem problem;
  std::int64_t k;
  const char* label;
  Mode mode;
};

/// Names the case in test listings (the default byte dump would include
/// the struct's padding).
void PrintTo(const Lowering& c, std::ostream* os) {
  *os << runtime::problem_name(c.problem) << " k=" << c.k;
}

/// problem_name as a test-name identifier ("binomial_broadcast").
std::string identifier(Problem problem) {
  std::string name(runtime::problem_name(problem));
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

const Params kMachines[] = {
    {4, 4, 1, 2}, {7, 3, 0, 1}, {8, 3, 1, 2}, {12, 5, 1, 3}};

/// Hierarchical keys: two clusters joined by a slower cross class.
constexpr std::int32_t kClusters = 2;
constexpr Time kCrossL = 8, kCrossO = 2, kCrossG = 3;

PlanKey key_for(const Lowering& c, const Params& m, ProcId root) {
  if (c.problem == Problem::kHierarchicalBroadcast) {
    return PlanKey::make(c.problem, m, 1, root, 0, kClusters, kCrossL,
                         kCrossO, kCrossG);
  }
  return PlanKey::make(c.problem, m, c.k, root);
}

/// A planner and the representation its implicit-capable plans take.  The
/// default planner caches both; an implicit-only case first seeds its
/// cache with Planner::build_uncached(key, false), the form plan() caches
/// past Planner::kMaterializeThreshold.
struct PlannerCase {
  std::shared_ptr<Planner> planner;
  bool implicit_only = false;

  [[nodiscard]] runtime::PlanPtr plan(const PlanKey& key) const {
    if (implicit_only && runtime::ImplicitPlan::supports(key) &&
        !planner->cache().contains(key)) {
      planner->cache().put(key, std::make_shared<const Plan>(
                                    Planner::build_uncached(key, false)));
    }
    return planner->plan(key);
  }
};

std::vector<PlannerCase> planners() {
  return {{std::make_shared<Planner>(), false},
          {std::make_shared<Planner>(), true}};
}

/// Field-by-field equality.  With `same_link_ids` false, instructions
/// compare by link endpoints instead of index: compile_implicit numbers
/// links in tree-walk order, the schedule lowerings in send order.
void expect_same_program(const Program& a, const Program& b,
                         bool same_link_ids = true) {
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.num_items, b.num_items);
  EXPECT_EQ(a.predicted_makespan, b.predicted_makespan);
  EXPECT_EQ(a.num_messages, b.num_messages);
  EXPECT_EQ(a.initials, b.initials);
  ASSERT_EQ(a.links.size(), b.links.size());
  ASSERT_EQ(a.procs.size(), b.procs.size());
  for (std::size_t p = 0; p < a.procs.size(); ++p) {
    const ProcProgram& pa = a.procs[p];
    const ProcProgram& pb = b.procs[p];
    EXPECT_EQ(pa.proc, pb.proc);
    EXPECT_EQ(pa.sum_index, pb.sum_index);
    EXPECT_EQ(pa.num_operands, pb.num_operands);
    ASSERT_EQ(pa.instrs.size(), pb.instrs.size()) << "proc " << p;
    for (std::size_t i = 0; i < pa.instrs.size(); ++i) {
      const Instr& x = pa.instrs[i];
      const Instr& y = pb.instrs[i];
      SCOPED_TRACE("proc " + std::to_string(p) + " instr " +
                   std::to_string(i));
      EXPECT_EQ(x.op, y.op);
      EXPECT_EQ(a.peer(x), b.peer(y));
      EXPECT_EQ(x.item, y.item);
      EXPECT_EQ(x.count, y.count);  // kCombineLocal operands / kRecv chain
      EXPECT_EQ(x.when, y.when);
      if (x.link < 0 || y.link < 0 || same_link_ids) {
        EXPECT_EQ(x.link, y.link);
        continue;
      }
      const Link& la = a.links[static_cast<std::size_t>(x.link)];
      const Link& lb = b.links[static_cast<std::size_t>(y.link)];
      EXPECT_EQ(la.from, lb.from);
      EXPECT_EQ(la.to, lb.to);
    }
  }
  if (same_link_ids) {
    for (std::size_t l = 0; l < a.links.size(); ++l) {
      EXPECT_EQ(a.links[l].from, b.links[l].from);
      EXPECT_EQ(a.links[l].to, b.links[l].to);
    }
  }
}

/// The per-IR lowering of `key`'s freshly materialized plan — the path
/// each caller spelled out before exec::compile existed.  The regular trees
/// come from their independent per-node builders, not from the planner
/// (whose only generator for them is the implicit decoder under test).
Program reference(const Lowering& c, const Params& m, const PlanKey& key) {
  switch (c.problem) {
    case Problem::kSummation:
      return compile_summation(
          sum::optimal_summation(m, sum::min_time_for_operands(m, c.k)));
    case Problem::kReduce:
      return compile_reduction(bcast::optimal_reduction(m, key.root));
    case Problem::kBroadcast:
      return compile_broadcast(bcast::optimal_single_item(m, key.root),
                               c.label);
    case Problem::kBinomialBroadcast:
      return compile_broadcast(
          baselines::binomial_tree(m, m.P).to_schedule(key.root), c.label);
    case Problem::kBinaryBroadcast:
      return compile_broadcast(
          baselines::binary_tree(m, m.P).to_schedule(key.root), c.label);
    case Problem::kChainBroadcast:
      return compile_broadcast(
          baselines::linear_chain(m, m.P).to_schedule(key.root), c.label);
    default:
      return compile_broadcast(Planner::build_uncached(key).schedule,
                               c.label);
  }
}

class ExecCompile : public ::testing::TestWithParam<Lowering> {};

TEST_P(ExecCompile, LowersEveryPlanLikeItsPerIrReference) {
  const Lowering& c = GetParam();
  for (const PlannerCase& planner : planners()) {
    for (const Params& m : kMachines) {
      for (const ProcId root : {ProcId{0}, static_cast<ProcId>(m.P - 1)}) {
        const PlanKey key = key_for(c, m, root);
        SCOPED_TRACE(key.to_string());
        const runtime::PlanPtr plan = planner.plan(key);
        EXPECT_EQ(plan->materialized,
                  !planner.implicit_only || plan->implicit == nullptr);
        const Program program = compile(*plan);
        EXPECT_EQ(program.predicted_makespan, plan->completion);
        EXPECT_EQ(program.label, c.label);
        EXPECT_EQ(program.mode, c.mode);
        expect_same_program(program, reference(c, m, key),
                            /*same_link_ids=*/plan->implicit == nullptr);
      }
    }
  }
}

TEST_P(ExecCompile, CommunicatorCompileIsThePlanLowering) {
  const Lowering& c = GetParam();
  if (c.problem == Problem::kHierarchicalBroadcast) {
    // Communicator::compile takes no topology; the hierarchical lowering
    // is reached through the tuned path (TunedHierarchicalRun below).
    EXPECT_THROW((void)api::Communicator(kMachines[0]).compile(c.problem),
                 std::invalid_argument);
    return;
  }
  for (const PlannerCase& planner : planners()) {
    for (const Params& m : kMachines) {
      const api::Communicator comm(m, planner.planner);
      for (const ProcId root : {ProcId{0}, static_cast<ProcId>(m.P - 1)}) {
        SCOPED_TRACE("P=" + std::to_string(m.P) +
                     " root=" + std::to_string(root));
        const Program lowered =
            compile(*planner.plan(PlanKey::make(c.problem, m, c.k, root)));
        const Program via_comm = comm.compile(c.problem, c.k, root);
        if (c.problem == Problem::kKItemBroadcast) {
          // The k-item key pins root 0; other roots relabel that program.
          expect_same_program(
              via_comm,
              relabel_swapped(comm.compile(c.problem, c.k, 0), 0, root));
          expect_same_program(via_comm, relabel_swapped(lowered, 0, root));
        } else {
          expect_same_program(via_comm, lowered);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Executable, ExecCompile,
    ::testing::Values(
        Lowering{Problem::kBroadcast, 1, "bcast", Mode::kMove},
        Lowering{Problem::kBinomialBroadcast, 1, "bcast", Mode::kMove},
        Lowering{Problem::kBinaryBroadcast, 1, "bcast", Mode::kMove},
        Lowering{Problem::kChainBroadcast, 1, "bcast", Mode::kMove},
        Lowering{Problem::kKItemBroadcast, 3, "bcast-seg", Mode::kMove},
        Lowering{Problem::kHierarchicalBroadcast, 1, "bcast-hier",
                 Mode::kMove},
        Lowering{Problem::kReduce, 1, "reduce", Mode::kFold},
        Lowering{Problem::kAllToAll, 1, "allgather", Mode::kMove},
        Lowering{Problem::kAllToAll, 2, "alltoall", Mode::kMove},
        Lowering{Problem::kSummation, 40, "summation", Mode::kSum}),
    [](const ::testing::TestParamInfo<Lowering>& case_info) {
      return identifier(case_info.param.problem) + "_k" +
             std::to_string(case_info.param.k);
    });

class ExecCompileRejects : public ::testing::TestWithParam<Problem> {};

TEST_P(ExecCompileRejects, ProblemsWithoutExecutionSemanticsThrow) {
  const Problem problem = GetParam();
  for (const PlannerCase& planner : planners()) {
    for (const Params& m : {kMachines[0], kMachines[2]}) {
      const runtime::PlanPtr plan =
          planner.plan(PlanKey::make(problem, m, 2));
      EXPECT_THROW((void)compile(*plan), std::invalid_argument)
          << plan->key.to_string();
      const api::Communicator comm(m, planner.planner);
      EXPECT_THROW((void)comm.compile(problem, 2), std::invalid_argument)
          << plan->key.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NoExecutionSemantics, ExecCompileRejects,
    ::testing::Values(Problem::kBufferedKItemBroadcast, Problem::kScatter,
                      Problem::kGather, Problem::kAllToAllPersonalized,
                      Problem::kAllReduce, Problem::kFlatBroadcast,
                      Problem::kSerializedKItem,
                      Problem::kPipelinedBinaryKItem,
                      Problem::kPipelinedChainKItem),
    [](const ::testing::TestParamInfo<Problem>& case_info) {
      return identifier(case_info.param);
    });

TEST(ExecCompileRejectsKeys, MaskedSummationThrows) {
  Planner planner;
  const Params m{8, 3, 1, 2};
  const runtime::PlanPtr plan =
      planner.plan(PlanKey::make(Problem::kSummation, m, 20, 0, 0x7full));
  EXPECT_THROW((void)compile(*plan), std::invalid_argument);
}

TEST(ExecCompileRejectsKeys, SummationChunksWiderThanInt32Throw) {
  // n = 1e15 on four processors plans in closed form (deadline 2.5e14), but
  // each local chunk is ~2.5e14 operands: more than an Instr::count holds.
  Planner planner;
  const runtime::PlanPtr plan = planner.plan(
      PlanKey::summation(Params{4, 4, 1, 2}, 1'000'000'000'000'000));
  EXPECT_EQ(plan->completion, 250'000'000'000'008);
  EXPECT_THROW((void)compile(*plan), std::invalid_argument);
}

TEST(ExecCompileRejectsKeys, SummationSenderWithTwoPeersThrows) {
  // Links are numbered by sender, so a plan in which one processor's
  // partial sum is expected at two places is refused, not mis-linked.
  const Params m{8, 3, 1, 2};
  sum::SummationPlan plan = sum::optimal_summation(m, 20);
  ASSERT_NO_THROW((void)compile_summation(plan));
  ASSERT_FALSE(plan.procs[0].recv_from.empty());
  const auto inner = std::find_if(
      plan.procs.begin() + 1, plan.procs.end(),
      [](const sum::ProcPlan& pp) { return !pp.recv_from.empty(); });
  ASSERT_NE(inner, plan.procs.end());
  // The root's first child now also "sends" to an inner processor.
  inner->recv_from[0] = plan.procs[0].recv_from[0];
  EXPECT_THROW((void)compile_summation(plan), std::invalid_argument);
}

TEST(ExecCompileRejectsKeys, WideItemCountNeverReachesALowering) {
  // Before PlanKey::make bounded k, this key was cached holding the k = 1
  // all-to-all plan and lowered to an 8-item "alltoall" program.
  const api::Communicator comm(Params{8, 4, 1, 2},
                               std::make_shared<Planner>());
  const std::int64_t wide = (std::int64_t{1} << 32) + 1;
  EXPECT_THROW((void)comm.plan(Problem::kAllToAll, wide),
               std::invalid_argument);
  EXPECT_THROW((void)comm.compile(Problem::kAllToAll, wide),
               std::invalid_argument);
}

// ---- CSR layout -------------------------------------------------------

static_assert(sizeof(Instr) <= 24, "an instruction is a 24-byte record");

/// Every rank's stream is a view into one flat array: rank p's ends exactly
/// where rank p + 1's begins, and together they cover the whole array.
void expect_contiguous(const Program& prog) {
  ASSERT_EQ(prog.procs.size(), static_cast<std::size_t>(prog.params.P));
  const std::span<const Instr> all = prog.procs.instrs();
  EXPECT_EQ(prog.procs[0].instrs.data(), all.data());
  for (std::size_t p = 0; p + 1 < prog.procs.size(); ++p) {
    const std::span<const Instr> s = prog.procs[p].instrs;
    ASSERT_EQ(s.data() + s.size(), prog.procs[p + 1].instrs.data())
        << "rank " << p;
  }
  const std::span<const Instr> last = prog.procs[prog.procs.size() - 1].instrs;
  EXPECT_EQ(last.data() + last.size(), all.data() + all.size());
}

/// A program's streams as one copied vector per rank — the layout the flat
/// array replaced, kept here as the oracle for in-place passes.
std::vector<std::vector<Instr>> stream_copies(const Program& prog) {
  std::vector<std::vector<Instr>> out;
  for (const ProcProgram& pp : prog.procs) {
    out.emplace_back(pp.instrs.begin(), pp.instrs.end());
  }
  return out;
}

TEST(ProgramLayout, StreamsShareOneContiguousArrayAtP65536) {
  Planner planner;
  const Params m{1 << 16, 4, 1, 2};
  for (const PlanKey& key :
       {PlanKey::broadcast(m, 17), PlanKey::reduce(m, 17),
        PlanKey::summation(m, 2 * static_cast<std::int64_t>(m.P))}) {
    SCOPED_TRACE(key.to_string());
    expect_contiguous(compile(*planner.plan(key)));
  }
}

TEST(ProgramLayout, CopyRunsAfterItsOriginalIsDestroyed) {
  const Params m{12, 5, 1, 3};
  constexpr ProcId kRoot = 5;
  Planner planner;
  Engine engine;
  const auto copy_of = [&](const PlanKey& key) {
    auto original = std::make_unique<Program>(compile(*planner.plan(key)));
    Program copy = *original;
    original.reset();
    return copy;
  };

  const Bytes payload = testutil::of_str("outlives its original");
  const ExecReport moved =
      engine.run(copy_of(PlanKey::broadcast(m, kRoot)), {payload});
  for (ProcId p = 0; p < m.P; ++p) {
    EXPECT_EQ(moved.item_at(p, 0), payload) << "rank " << p;
  }

  // Non-commutative folds: any change to a stream changes the bytes.
  const PlanKey reduce_key = PlanKey::reduce(m, kRoot);
  std::vector<Bytes> values;
  for (ProcId p = 0; p < m.P; ++p) {
    values.push_back(testutil::of_str(std::string(1, static_cast<char>('a' + p))));
  }
  EXPECT_EQ(engine.run(copy_of(reduce_key), values, testutil::concat()).folded,
            engine.run(compile(*planner.plan(reduce_key)), values,
                       testutil::concat())
                .folded);

  const PlanKey sum_key = PlanKey::summation(m, 40);
  const Program sum_copy = copy_of(sum_key);
  std::vector<std::vector<Bytes>> operands;
  for (const ProcProgram& pp : sum_copy.procs) {
    if (pp.sum_index < 0) continue;
    const auto idx = static_cast<std::size_t>(pp.sum_index);
    if (operands.size() <= idx) operands.resize(idx + 1);
    for (std::size_t i = 0; i < pp.num_operands; ++i) {
      operands[idx].push_back(
          testutil::of_str(std::to_string(idx) + "." + std::to_string(i) + ";"));
    }
  }
  EXPECT_EQ(engine.run(sum_copy, operands, testutil::concat()).folded,
            engine.run(compile(*planner.plan(sum_key)), operands,
                       testutil::concat())
                .folded);
}

TEST(ProgramLayout, RelabelSwappedMatchesSwappingCopiedStreams) {
  Planner planner;
  for (const Params& m : kMachines) {
    for (const std::int64_t k : {2, 3}) {
      const Program normalized = compile(
          *planner.plan(PlanKey::make(Problem::kKItemBroadcast, m, k, 0)));
      for (ProcId root = 1; root < m.P; ++root) {
        SCOPED_TRACE("P=" + std::to_string(m.P) + " k=" + std::to_string(k) +
                     " root=" + std::to_string(root));
        const auto map = [root](ProcId p) {
          return p == 0 ? root : (p == root ? 0 : p);
        };
        std::vector<std::vector<Instr>> streams = stream_copies(normalized);
        std::swap(streams[0], streams[static_cast<std::size_t>(root)]);
        std::vector<Link> links = normalized.links;
        for (Link& l : links) l = Link{map(l.from), map(l.to)};
        std::vector<InitialPlacement> initials = normalized.initials;
        for (InitialPlacement& init : initials) init.proc = map(init.proc);

        for (const Program& relabeled :
             {relabel_swapped(normalized, 0, root),
              relabel_swapped(normalized, root, 0)}) {
          EXPECT_EQ(stream_copies(relabeled), streams);
          EXPECT_EQ(relabeled.links, links);
          EXPECT_EQ(relabeled.initials, initials);
          for (std::size_t p = 0; p < relabeled.procs.size(); ++p) {
            EXPECT_EQ(relabeled.procs[p].proc, static_cast<ProcId>(p));
          }
          expect_contiguous(relabeled);
        }
      }
    }
  }
}

TEST(ProgramLayout, RelabelSwappedMovesSummationOperandCounts) {
  // n = 5 on P = 12 leaves ranks idle: swap a participant with one.
  Planner planner;
  const Program prog =
      compile(*planner.plan(PlanKey::summation(Params{12, 5, 1, 3}, 5)));
  const ProcId idle = static_cast<ProcId>(prog.procs.size() - 1);
  ASSERT_EQ(prog.procs[static_cast<std::size_t>(idle)].sum_index, -1);
  const Program swapped = relabel_swapped(prog, 0, idle);
  const ProcProgram was_root = prog.procs[0];
  const ProcProgram now_root =
      swapped.procs[static_cast<std::size_t>(idle)];
  EXPECT_EQ(now_root.sum_index, was_root.sum_index);
  EXPECT_EQ(now_root.num_operands, was_root.num_operands);
  EXPECT_EQ(swapped.procs[0].sum_index, -1);
  EXPECT_EQ(swapped.procs[0].num_operands, 0u);
  EXPECT_TRUE(swapped.procs[0].instrs.empty());
}

TEST(TunedHierarchicalRun, ReportsTheHierarchicalLabel) {
  auto planner = std::make_shared<Planner>();
  auto table = std::make_shared<tune::DecisionTable>();
  tune::Decision d;
  d.problem = Problem::kHierarchicalBroadcast;
  d.clusters = kClusters;
  d.cross_L = kCrossL;
  d.cross_o = kCrossO;
  d.cross_g = kCrossG;
  d.win_ns = 100;
  table->set({tune::Collective::kBroadcast, 8, 10}, d);
  planner->set_decision_table(table);
  const api::Communicator comm(Params{8, 4, 1, 2}, planner);
  const Bytes payload = testutil::of_str("two-level payload");
  for (const ProcId root : {ProcId{0}, ProcId{5}}) {
    const ExecReport report = comm.run_broadcast_tuned(payload, root);
    EXPECT_EQ(report.label, "bcast-hier");
    for (ProcId p = 0; p < comm.size(); ++p) {
      EXPECT_EQ(report.item_at(p, 0), payload) << "rank " << p;
    }
  }
}

}  // namespace
}  // namespace logpc::exec
