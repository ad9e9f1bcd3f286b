#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bench.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

TEST(Sequence, SameSeedSameHashOtherSeedOtherHash) {
  for (const Workload w : kAllWorkloads) {
    SCOPED_TRACE(std::string(workload_name(w)));
    const std::uint64_t a = sequence_hash(w, 7, 2000);
    EXPECT_EQ(a, sequence_hash(w, 7, 2000));
    std::set<std::uint64_t> hashes{a};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      hashes.insert(sequence_hash(w, seed, 2000));
    }
    EXPECT_EQ(hashes.size(), 7u);
  }
}

TEST(Sequence, WorkloadsDrawUnrelatedStreams) {
  std::set<std::uint64_t> seeds;
  for (const Workload w : kAllWorkloads) seeds.insert(stream_seed(w, 1));
  EXPECT_EQ(seeds.size(), std::size(kAllWorkloads));
}

TEST(Sequence, OpenLoopArrivalsAreIncreasingAtTheStatedRate) {
  ServiceSequence seq(Workload::kSvcOpenMixed, 3);
  std::uint64_t last = 0;
  ServiceOp op;
  for (int i = 0; i < 30000; ++i) {
    op = seq.next();
    ASSERT_GE(op.due_ns, last);
    last = op.due_ns;
  }
  const double rate = 30000 / (static_cast<double>(last) / 1e9);
  const double target = service_mix(Workload::kSvcOpenMixed).rate_per_s;
  EXPECT_NEAR(rate, target, 0.03 * target);
}

TEST(PlanRound, HalfTheCallsRepeatAnEarlierKeyOfTheRound) {
  const std::vector<PlanOp> round = plan_round(11, 4);
  ASSERT_EQ(round.size() % 2, 0u);
  std::size_t repeats = 0;
  std::set<std::tuple<int, int, logpc::Time, logpc::Time, logpc::Time,
                      std::int64_t, int>>
      seen;
  for (const PlanOp& op : round) {
    const auto key = std::make_tuple(op.family, op.params.P, op.params.L,
                                     op.params.o, op.params.g, op.k, op.root);
    if (op.repeat) {
      ++repeats;
      EXPECT_TRUE(seen.count(key)) << "repeat of an unseen key";
    } else {
      seen.insert(key);
    }
    const Family& f = plan_families()[static_cast<std::size_t>(op.family)];
    EXPECT_LE(op.params.P, 1 << f.max_log2_p);
    EXPECT_GE(op.params.P, 2);
    EXPECT_LT(op.root, op.params.P);
  }
  EXPECT_EQ(2 * repeats, round.size());
}

TEST(PlanRound, EveryRoundCoversEveryFamilyAndOctave) {
  std::map<int, std::set<int>> octaves;
  for (const PlanOp& op : plan_round(5, 0)) {
    if (op.repeat) continue;
    octaves[op.family].insert(std::bit_width(
        static_cast<unsigned>(op.params.P)) - 1);
  }
  for (std::size_t f = 0; f < plan_families().size(); ++f) {
    EXPECT_EQ(octaves[static_cast<int>(f)].size(),
              static_cast<std::size_t>(plan_families()[f].max_log2_p));
  }
}

TEST(Trace, SelfTimesSumExactlyToTheRoot) {
  // root [0, 100) with children [10, 30) and [40, 90); the second child has
  // a grandchild [50, 60).
  const std::vector<Span> spans{{1, -1, "gen.request", 0, 100},
                                {1, 0, "svc.submit", 10, 30},
                                {1, 0, "svc.wait", 40, 90},
                                {1, 2, "exec.run", 50, 60}};
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 30u);
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 40u);
  EXPECT_EQ(self[3], 10u);
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], spans[0].duration());
  EXPECT_EQ(layer_of(spans[2]), "svc");
}

TEST(Verify, AWrongByteFailsTheCheck) {
  for (const Workload w : {Workload::kSvcSmallClosed, Workload::kSvcLargeClosed}) {
    SCOPED_TRACE(std::string(workload_name(w)));
    Tally tally;
    ServiceBench bench(w, 2, tally);
    (void)bench.setup();
    EXPECT_EQ(tally.failed.load(), 0u);
    const ServiceMix& mix = service_mix(w);
    const ServiceInputs inputs(mix, stream_seed(w, 2), kServiceMachine.P);
    logpc::exec::Engine engine;
    auto planner = std::make_shared<logpc::runtime::Planner>();
    const logpc::api::Communicator comm(kServiceMachine, planner);
    for (std::size_t s = 0; s < mix.shapes.size(); ++s) {
      ServiceOp op;
      op.shape = static_cast<int>(s);
      logpc::exec::ExecReport r;
      switch (mix.shapes[s].op) {
        case logpc::svc::OpKind::kBroadcast:
          r = engine.run(comm.compile(logpc::runtime::Problem::kBroadcast),
                         std::vector<logpc::exec::Bytes>{inputs.payload(op)});
          break;
        case logpc::svc::OpKind::kReduce:
          r = engine.run(comm.compile(logpc::runtime::Problem::kReduce),
                         inputs.values(op), i64_sum());
          break;
        case logpc::svc::OpKind::kAllgather:
          r = engine.run(comm.compile(logpc::runtime::Problem::kAllToAll),
                         inputs.values(op));
          break;
      }
      EXPECT_TRUE(inputs.verify_report(op, r)) << mix.shapes[s].name;
      logpc::exec::Bytes& target =
          mix.shapes[s].op == logpc::svc::OpKind::kReduce ? r.folded[0]
                                                          : r.items.back().back();
      target[target.size() / 2] ^= std::byte{1};
      EXPECT_FALSE(inputs.verify_report(op, r)) << mix.shapes[s].name;
    }
  }
}

/// Every request's self times sum exactly to its root span, and every
/// span lies inside its parent.
void expect_exact_ledger(const std::vector<Span>& spans) {
  ASSERT_FALSE(spans.empty());
  const std::vector<std::uint64_t> self = self_times(spans);
  std::vector<std::size_t> root(spans.size());
  std::map<std::size_t, std::uint64_t> sum;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    root[i] = p < 0 ? i : root[static_cast<std::size_t>(p)];
    if (p >= 0) {
      const Span& parent = spans[static_cast<std::size_t>(p)];
      EXPECT_GE(spans[i].start_ns, parent.start_ns);
      EXPECT_LE(spans[i].end_ns, parent.end_ns);
      EXPECT_EQ(spans[i].key, parent.key);
    }
    sum[root[i]] += self[i];
  }
  for (const auto& [r, total] : sum) {
    EXPECT_EQ(total, spans[r].duration()) << spans[r].name;
  }
}

TEST(TracedPass, ServiceSelfTimesSumToEachRoot) {
  for (const Workload w :
       {Workload::kSvcSmallClosed, Workload::kSvcOpenMixed}) {
    SCOPED_TRACE(std::string(workload_name(w)));
    Tally tally;
    ServiceBench bench(w, 5, tally);
    (void)bench.setup();
    Tracer tracer;
    const PassResult pass = bench.run(0.3, &tracer);
    ASSERT_FALSE(pass.samples.empty());
    bench.replay(pass, 0.1, tracer);
    // A host stall may fill a tenant queue and get a request rejected;
    // that is backpressure, not a wrong result.
    EXPECT_EQ(tally.mismatched.load(), 0u);
    EXPECT_EQ(tally.errors.load(), 0u);
    EXPECT_EQ(tally.cold.load(), 0u);
    EXPECT_EQ(tally.retries.load(), 0u);
    expect_exact_ledger(tracer.spans());
  }
}

TEST(TracedPass, PlanCompileSelfTimesSumToEachRoot) {
  Tally tally;
  PlanBench bench(9, tally);
  Tracer tracer;
  const PlanPassResult pass = bench.run(0.3, &tracer);
  ASSERT_FALSE(pass.calls.empty());
  EXPECT_EQ(tally.failed.load(), 0u);
  expect_exact_ledger(tracer.spans());
}

}  // namespace
}  // namespace perfbench
