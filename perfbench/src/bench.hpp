#pragma once

/// \file bench.hpp
/// The workload runners: the service closed and open loops, the direct
/// replay through the layers the service composes, and the plan/compile
/// rounds.  Each verifies every operation it runs and can record spans
/// around its calls into the library.

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/communicator.hpp"
#include "obs/critical_path.hpp"
#include "svc/fusion.hpp"
#include "svc/service.hpp"
#include "trace.hpp"
#include "validate/checker.hpp"
#include "workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
namespace svc = logpc::svc;
namespace exec = logpc::exec;
namespace runtime = logpc::runtime;
namespace api = logpc::api;

/// Throughput and latency quantiles are medians over this many equal
/// slices of the window, so a burst of interference from outside the
/// process moves at most the slices it lands in.
constexpr int kSlices = 10;

inline std::uint64_t since_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear interpolation between order statistics.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double mean(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Instructions over all of a compiled program's streams.
inline double instruction_count(const exec::Program& p) {
  std::size_t n = 0;
  for (const exec::ProcProgram& proc : p.procs) n += proc.instrs.size();
  return static_cast<double>(n);
}

/// Correctness ledger of one run.
/// Atomic: the open loop's generator and collector threads both count.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> mismatched{0};  ///< wrong bytes: exit non-zero
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> cold{0};  ///< service runs not on a warm pool
  std::atomic<std::uint64_t> retries{0};

  void fail_mismatch() {
    ++failed;
    ++mismatched;
  }
};

// --- service workloads --------------------------------------------------

/// One completed, verified service operation.
struct Sample {
  ServiceOp op;
  int op_cls = 0;  ///< Shape::cls of the request
  double latency_us = 0;  ///< closed: total_ns; open: from the due time
  double late_us = 0;     ///< open loop: submit - due
  std::uint64_t done_ns = 0;  ///< when perfbench saw the result
  std::uint64_t submit_ns = 0;  ///< duration of the submit() call
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t wall_ns = 0;
  logpc::Time predicted = 0;
  std::uint32_t fused = 1;
  std::uint32_t segments = 1;
  std::size_t payload_bytes = 0;
  std::size_t messages = 0;
  std::size_t kernel_folds = 0;
  std::size_t generic_folds = 0;
};

/// A pass's results.  Latencies are kept per window slice and class as
/// floats, so perfbench's own memory stays small beside the service's in
/// peak_rss_mb; full samples are kept only for a detailed (traced) pass.
struct PassResult {
  double seconds = 0;  ///< the measured window
  bool detailed = false;
  std::uint64_t rejected = 0;
  /// [slice][class] latencies in us; slice kSlices holds the completions
  /// drained after the window.
  std::array<std::array<std::vector<float>, 2>, kSlices + 1> lat;
  std::vector<float> late_us;  ///< open loop: submit - due, every request
  std::vector<Sample> samples;  ///< detailed passes only

  void add(const Sample& s, bool open_loop) {
    const double slice_ns = seconds * 1e9 / kSlices;
    const std::size_t i = std::min<std::size_t>(
        kSlices,
        static_cast<std::size_t>(static_cast<double>(s.done_ns) / slice_ns));
    lat[i][static_cast<std::size_t>(s.op_cls)].push_back(
        static_cast<float>(s.latency_us));
    if (open_loop) late_us.push_back(static_cast<float>(s.late_us));
    if (detailed) samples.push_back(s);
  }
  [[nodiscard]] double ops_per_s() const {
    std::vector<double> per_slice;
    for (std::size_t i = 0; i < kSlices; ++i) {
      per_slice.push_back(
          static_cast<double>(lat[i][0].size() + lat[i][1].size()) /
          (seconds / kSlices));
    }
    return quantile(per_slice, 0.5);
  }
  /// Every latency of the pass, drained ones included.
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> out;
    for (const auto& slice : lat) {
      for (const std::vector<float>& v : slice) out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }
  /// Median over the window's slices of the per-slice `q` quantile of
  /// class `cls` (-1: both).
  [[nodiscard]] double latency(int cls, double q) const {
    std::vector<double> qs;
    for (std::size_t i = 0; i < kSlices; ++i) {
      std::vector<double> v;
      for (int c = 0; c < 2; ++c) {
        if (cls < 0 || cls == c) {
          const std::vector<float>& src = lat[i][static_cast<std::size_t>(c)];
          v.insert(v.end(), src.begin(), src.end());
        }
      }
      if (!v.empty()) qs.push_back(quantile(std::move(v), q));
    }
    return quantile(qs, 0.5);
  }
};

class ServiceBench {
 public:
  ServiceBench(Workload w, std::uint64_t seed, Tally& tally)
      : workload_(w),
        seed_(seed),
        mix_(service_mix(w)),
        inputs_(mix_, stream_seed(w, seed), kServiceMachine.P),
        tally_(tally) {}

  /// Builds a service on a fresh planner and waits for the first verified
  /// response of every request shape; returns the seconds that took.
  double setup() {
    service_.reset();
    const auto t0 = Clock::now();
    svc::CollectiveService::Options opts;
    opts.pools = 1;
    planner_ = std::make_shared<runtime::Planner>();
    service_ = std::make_unique<svc::CollectiveService>(kServiceMachine, opts,
                                                         planner_);
    tenants_.clear();
    // Queues deep enough to ride out a stall of the host: on a shared VM
    // the pool can lose its CPUs for tens of milliseconds, and with the
    // default bound of 64 the open loop then saw rejections.
    for (int t = 0; t < kTenants; ++t) {
      tenants_.push_back(service_->register_tenant(
          {.name = "perfbench-" + std::to_string(t),
           .queue_capacity = kTenantQueue}));
    }
    for (std::size_t s = 0; s < mix_.shapes.size(); ++s) {
      ServiceOp op;
      op.shape = static_cast<int>(s);
      ++tally_.attempted;
      svc::SubmitResult sub = service_->submit(tenants_[0], inputs_.request(op));
      if (!sub.accepted()) {
        ++tally_.failed;
        ++tally_.rejected;
        continue;
      }
      check(op, sub.response.get());
    }
    return seconds_since(t0);
  }

  /// One pass of the workload's load for `seconds`.  With a tracer, every
  /// request gets a root span keyed by its id, with children around the
  /// submit call and the wait on its future.
  PassResult run(double seconds, Tracer* tracer) {
    return mix_.outstanding > 0 ? closed(seconds, tracer)
                                : open(seconds, tracer);
  }

  /// Direct replay of traced requests through the layers the service
  /// composes: Planner::plan -> Communicator::compile -> Engine::run on a
  /// prewarmed engine of its own -> obs::analyze.
  void replay(const PassResult& traced, double seconds, Tracer& tracer) {
    exec::Engine engine;
    engine.prewarm(kServiceMachine.P);
    auto planner = std::make_shared<runtime::Planner>();
    const api::Communicator comm(kServiceMachine, planner);
    const svc::CollectiveService::Options defaults;
    const svc::SegmentPolicy policy{defaults.segment_threshold,
                                    defaults.segment_bytes,
                                    defaults.max_segments};
    const auto t0 = Clock::now();
    for (std::size_t i = 0; !traced.samples.empty(); ++i) {
      if (seconds_since(t0) >= seconds) break;
      const ServiceOp& op = traced.samples[i % traced.samples.size()].op;
      const Shape& shape = mix_.shapes[static_cast<std::size_t>(op.shape)];
      const std::uint64_t key = kReplayKey | i;
      const Scoped root(tracer, key, "gen.replay");

      runtime::Problem problem = runtime::Problem::kBroadcast;
      std::int64_t k = 1;
      runtime::PlanKey pkey = runtime::PlanKey::broadcast(kServiceMachine);
      int segments = 1;
      switch (shape.op) {
        case svc::OpKind::kBroadcast:
          segments = svc::choose_segments(shape.bytes, policy);
          if (segments > 1) {
            problem = runtime::Problem::kKItemBroadcast;
            k = segments;
            pkey = runtime::PlanKey::segmented_broadcast(kServiceMachine, k);
          }
          break;
        case svc::OpKind::kReduce:
          problem = runtime::Problem::kReduce;
          pkey = runtime::PlanKey::reduce(kServiceMachine);
          break;
        case svc::OpKind::kAllgather:
          problem = runtime::Problem::kAllToAll;
          pkey = runtime::PlanKey::alltoall(kServiceMachine, 1);
          break;
      }
      {
        const bool hit = planner->cache().contains(pkey);
        const Scoped s(tracer, key,
                       hit ? "runtime.plan_hit" : "runtime.plan_miss",
                       root.id());
        (void)planner->plan(pkey);
      }
      std::optional<exec::Program> program;
      {
        const Scoped s(tracer, key, "api.compile", root.id());
        program.emplace(comm.compile(problem, k, 0));
      }
      instructions_.push_back(instruction_count(*program));
      exec::ExecReport report;
      {
        const Scoped s(tracer, key, "exec.run", root.id());
        switch (shape.op) {
          case svc::OpKind::kBroadcast: {
            const exec::Bytes& payload = inputs_.payload(op);
            report = segments > 1
                         ? engine.run_segmented(
                               *program,
                               exec::SegmentRun{std::span<const std::byte>(
                                                    payload.data(),
                                                    payload.size()),
                                                segments})
                         : engine.run(*program,
                                      std::vector<exec::Bytes>{payload});
            break;
          }
          case svc::OpKind::kReduce:
            report = engine.run(*program, inputs_.values(op), i64_sum());
            break;
          case svc::OpKind::kAllgather:
            report = engine.run(*program, inputs_.values(op));
            break;
        }
      }
      {
        const Scoped s(tracer, key, "obs.analyze", root.id());
        (void)logpc::obs::analyze(report);
      }
      {
        const Scoped s(tracer, key, "gen.verify", root.id());
        ++tally_.attempted;
        if (!inputs_.verify_report(op, report)) tally_.fail_mismatch();
      }
    }
  }

  [[nodiscard]] const std::vector<double>& instructions() const {
    return instructions_;
  }
  [[nodiscard]] const runtime::Planner& planner() const { return *planner_; }

  /// Span keys of replay and build-probe roots, apart from request ids.
  static constexpr std::uint64_t kReplayKey = 1ull << 62;
  static constexpr std::uint64_t kProbeKey = 1ull << 61;

 private:
  struct Inflight {
    ServiceOp op;
    std::future<svc::Response> future;
    std::uint64_t late_ns = 0;
    std::uint64_t submit_ns = 0;
    std::int32_t root = -1;
  };

  /// Verifies one response; a failed one is tallied and yields no sample.
  bool check(const ServiceOp& op, const svc::Response& r) {
    if (r.status != svc::Status::kOk) {
      ++tally_.failed;
      ++tally_.errors;
      return false;
    }
    if (!r.report.warm_pool) ++tally_.cold;
    tally_.retries += r.report.retries;
    if (!inputs_.verify(op, r)) {
      tally_.fail_mismatch();
      return false;
    }
    return true;
  }

  /// Submits `op`; on admission returns the in-flight record.
  std::optional<Inflight> submit(const ServiceOp& op, Tracer* tracer,
                                 std::uint64_t late_ns) {
    svc::Request req = inputs_.request(op);
    ++tally_.attempted;
    Inflight f;
    f.op = op;
    f.late_ns = late_ns;
    if (tracer) f.root = tracer->open(op.id, "gen.request");
    const std::int32_t span =
        tracer ? tracer->open(op.id, "svc.submit", f.root) : -1;
    const auto t0 = Clock::now();
    svc::SubmitResult sub = service_->submit(
        tenants_[static_cast<std::size_t>(op.tenant)], std::move(req));
    f.submit_ns = since_ns(t0, Clock::now());
    if (tracer) tracer->close(span);
    if (!sub.accepted()) {
      if (tracer) tracer->close(f.root);
      ++tally_.failed;
      ++tally_.rejected;
      ++rejected_;
      return std::nullopt;
    }
    f.future = std::move(sub.response);
    return f;
  }

  /// Waits for `f`, verifies it, and turns it into a sample.
  std::optional<Sample> collect(Inflight& f, Tracer* tracer,
                                Clock::time_point start) {
    const std::int32_t span =
        tracer ? tracer->open(f.op.id, "svc.wait", f.root) : -1;
    const svc::Response r = f.future.get();
    const auto seen = Clock::now();
    if (tracer) {
      tracer->close(span);
      tracer->close(f.root);
    }
    if (!check(f.op, r)) return std::nullopt;
    Sample s;
    s.op = f.op;
    s.op_cls = mix_.shapes[static_cast<std::size_t>(f.op.shape)].cls;
    s.late_us = static_cast<double>(f.late_ns) / 1e3;
    s.latency_us = static_cast<double>(f.late_ns + r.total_ns) / 1e3;
    s.done_ns = since_ns(start, seen);
    s.submit_ns = f.submit_ns;
    s.queue_wait_ns = r.queue_wait_ns;
    s.total_ns = r.total_ns;
    s.wall_ns = r.report.wall_ns;
    s.predicted = r.report.predicted_makespan;
    s.fused = r.fused;
    s.segments = r.segments;
    s.payload_bytes = r.report.payload_bytes;
    s.messages = r.report.messages;
    s.kernel_folds = r.report.kernel_folds;
    s.generic_folds = r.report.generic_folds;
    return s;
  }

  /// Closed loop: one generator thread keeps `outstanding` requests in
  /// flight and collects them oldest first.
  PassResult closed(double seconds, Tracer* tracer) {
    PassResult res;
    res.seconds = seconds;
    res.detailed = tracer != nullptr;
    rejected_ = 0;
    ServiceSequence seq(workload_, seed_);
    std::deque<Inflight> inflight;
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration<double>(seconds);
    const auto n = static_cast<std::size_t>(mix_.outstanding);
    for (;;) {
      while (inflight.size() < n && Clock::now() < end) {
        if (auto f = submit(seq.next(), tracer, 0)) {
          inflight.push_back(std::move(*f));
        }
      }
      if (inflight.empty()) break;
      if (auto s = collect(inflight.front(), tracer, start)) {
        res.add(*s, false);
      }
      inflight.pop_front();
    }
    res.rejected = rejected_;
    return res;
  }

  /// Open loop: the generator submits each request at its seeded Poisson
  /// due time, whatever is outstanding; a collector thread waits on the
  /// futures.  Latency runs from the due time: (submit - due) + total_ns.
  PassResult open(double seconds, Tracer* tracer) {
    PassResult res;
    res.seconds = seconds;
    res.detailed = tracer != nullptr;
    rejected_ = 0;
    ServiceSequence seq(workload_, seed_);
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Inflight> queue;
    bool done = false;
    const auto start = Clock::now();
    std::thread collector([&] {
      for (;;) {
        Inflight f;
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          f = std::move(queue.front());
          queue.pop_front();
        }
        if (auto s = collect(f, tracer, start)) res.add(*s, true);
      }
    });
    // Wake the generator at the due time, not up to the default 50 us
    // timer slack later.
    const int slack = prctl(PR_GET_TIMERSLACK);
    prctl(PR_SET_TIMERSLACK, 1UL);
    const auto window_ns = static_cast<std::uint64_t>(seconds * 1e9);
    for (;;) {
      const ServiceOp op = seq.next();
      if (op.due_ns >= window_ns) break;
      const auto due = start + std::chrono::nanoseconds(op.due_ns);
      std::this_thread::sleep_until(due);
      const std::uint64_t late = since_ns(due, Clock::now());
      if (auto f = submit(op, tracer, late)) {
        {
          const std::lock_guard lock(mu);
          queue.push_back(std::move(*f));
        }
        cv.notify_one();
      }
    }
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack));
    {
      const std::lock_guard lock(mu);
      done = true;
    }
    cv.notify_one();
    collector.join();
    res.rejected = rejected_;
    return res;
  }

  Workload workload_;
  std::uint64_t seed_;
  const ServiceMix& mix_;
  ServiceInputs inputs_;
  Tally& tally_;
  std::shared_ptr<runtime::Planner> planner_;
  std::unique_ptr<svc::CollectiveService> service_;
  std::vector<svc::TenantId> tenants_;
  std::uint64_t rejected_ = 0;
  std::vector<double> instructions_;
};

// --- plan/compile workload ------------------------------------------------

struct CallSample {
  int cls = 0;  ///< 0 = repeat of an earlier key, 1 = first-seen key
  double latency_us = 0;  ///< plan + compile
  bool full_round = false;  ///< the round ran to its end in the window
};

struct PlanPassResult {
  std::vector<CallSample> calls;
  std::vector<double> round_rates;  ///< calls per timed second, full rounds
  double partial_rate = 0;          ///< the cut-short last round
  std::vector<double> instructions;
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  std::uint64_t builds = 0;

  [[nodiscard]] double ops_per_s() const {
    return round_rates.empty() ? partial_rate : quantile(round_rates, 0.5);
  }
  /// The `q` quantile of class `cls` (-1: all) over the calls of the full
  /// rounds (of all calls when no round completed).  Pooled rather than a
  /// median of per-round quantiles: a round's tail is a handful of keys.
  [[nodiscard]] double latency(int cls, double q) const {
    const bool any_full = std::any_of(
        calls.begin(), calls.end(),
        [](const CallSample& c) { return c.full_round; });
    std::vector<double> v;
    for (const CallSample& c : calls) {
      if ((c.full_round || !any_full) && (cls < 0 || cls == c.cls)) {
        v.push_back(c.latency_us);
      }
    }
    return quantile(std::move(v), q);
  }
};

const char* const kBuildSpan[] = {"runtime.build.bcast", "runtime.build.kitem",
                                  "runtime.build.reduce",
                                  "runtime.build.summation",
                                  "runtime.build.alltoall"};

inline logpc::validate::CheckOptions check_options(runtime::Problem p) {
  logpc::validate::CheckOptions o;
  if (p == runtime::Problem::kReduce || p == runtime::Problem::kSummation) {
    // Values converge on the root; duplicate receives are inherent.
    o.require_complete = false;
    o.forbid_duplicate_receive = false;
  }
  // Section 4.1's all-to-all charges send and receive overheads
  // concurrently (see CheckOptions::allow_duplex_overhead).
  if (p == runtime::Problem::kAllToAll) o.allow_duplex_overhead = true;
  return o;
}

/// The plans a round has verified, by canonical key.
using SeenPlans =
    std::unordered_map<runtime::PlanKey, runtime::PlanPtr, runtime::PlanKeyHash>;

class PlanBench {
 public:
  PlanBench(std::uint64_t seed, Tally& tally) : seed_(seed), tally_(tally) {}

  /// Fresh planner, then one verified plan + compile of the smallest key
  /// of every family in round 0.
  double setup() {
    const auto t0 = Clock::now();
    const std::vector<PlanOp> round = plan_round(seed_, 0);
    auto planner = std::make_shared<runtime::Planner>();
    std::vector<const PlanOp*> smallest(plan_families().size(), nullptr);
    for (const PlanOp& op : round) {
      const PlanOp*& s = smallest[static_cast<std::size_t>(op.family)];
      if (s == nullptr || op.params.P < s->params.P) s = &op;
    }
    SeenPlans seen;
    for (const PlanOp* op : smallest) (void)call(*op, planner, seen, nullptr);
    return seconds_since(t0);
  }

  PlanPassResult run(double seconds, Tracer* tracer) {
    PlanPassResult res;
    const auto start = Clock::now();
    for (std::uint64_t r = 0; seconds_since(start) < seconds; ++r) {
      const std::vector<PlanOp> round = plan_round(seed_, r);
      const auto c0 = Clock::now();
      auto planner = std::make_shared<runtime::Planner>();
      double timed_s = seconds_since(c0);
      SeenPlans seen;
      std::size_t n = 0;
      const std::size_t first = res.calls.size();
      for (const PlanOp& op : round) {
        if (seconds_since(start) >= seconds) break;
        if (auto s = call(op, planner, seen, tracer, &res)) {
          timed_s += s->latency_us / 1e6;
          res.calls.push_back(*s);
        }
        ++n;
      }
      for (std::size_t i = first; i < res.calls.size(); ++i) {
        res.calls[i].full_round = n == round.size();
      }
      const runtime::CacheStats stats = planner->cache().stats();
      res.hits += stats.hits;
      res.lookups += stats.hits + stats.misses;
      res.builds += planner->builds();
      const double rate = ratio(static_cast<double>(n), timed_s);
      if (n == round.size()) {
        res.round_rates.push_back(rate);
      } else {
        res.partial_rate = rate;
      }
    }
    return res;
  }

 private:
  /// One Communicator::plan + Communicator::compile call, then its check.
  std::optional<CallSample> call(
      const PlanOp& op, const std::shared_ptr<runtime::Planner>& planner,
                  SeenPlans& seen,
                  Tracer* tracer, PlanPassResult* res = nullptr) {
    const Family& fam = plan_families()[static_cast<std::size_t>(op.family)];
    const api::Communicator comm(op.params, planner);
    ++tally_.attempted;
    const std::int32_t root = tracer ? tracer->open(op.id, "gen.call") : -1;
    runtime::PlanPtr plan;
    std::optional<exec::Program> program;
    const auto t0 = Clock::now();
    try {
      {
        const std::int32_t s =
            tracer ? tracer->open(op.id,
                                  op.repeat ? "runtime.plan_hit"
                                            : "runtime.plan_miss",
                                  root)
                   : -1;
        plan = comm.plan(fam.problem, op.k, op.root);
        if (tracer) tracer->close(s);
      }
      {
        const std::int32_t s =
            tracer ? tracer->open(op.id, "api.compile", root) : -1;
        program.emplace(comm.compile(fam.problem, op.k, op.root));
        if (tracer) tracer->close(s);
      }
    } catch (const std::exception& e) {
      if (tracer) tracer->close(root);
      std::cerr << "plan/compile failed: " << e.what() << "\n";
      ++tally_.failed;
      ++tally_.errors;
      return std::nullopt;
    }
    CallSample sample{op.repeat ? 0 : 1,
                      static_cast<double>(since_ns(t0, Clock::now())) / 1e3};
    if (res) {
      res->instructions.push_back(instruction_count(*program));
    }
    if (tracer && !op.repeat) {
      const Scoped s(*tracer, op.id,
                     kBuildSpan[static_cast<std::size_t>(op.family)], root);
      (void)runtime::Planner::build_uncached(plan->key);
    }
    {
      const std::int32_t s =
          tracer ? tracer->open(op.id, "gen.verify", root) : -1;
      bool ok = program->procs.size() ==
                    static_cast<std::size_t>(op.params.P) &&
                program->predicted_makespan == plan->completion;
      if (op.repeat) {
        const auto it = seen.find(plan->key);
        ok = ok && it != seen.end() && it->second == plan;
      } else {
        ok = ok && plan->materialized &&
             logpc::validate::check(plan->schedule, check_options(fam.problem))
                 .ok();
        seen[plan->key] = plan;
      }
      if (!ok) tally_.fail_mismatch();
      if (tracer) tracer->close(s);
    }
    if (tracer) tracer->close(root);
    return sample;
  }

  std::uint64_t seed_;
  Tally& tally_;
};

}  // namespace perfbench
