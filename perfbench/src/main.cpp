/// perfbench: the repository benchmark.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--out-dir <dir>]
///
/// --trace 0 runs the untraced pass and prints the end-to-end metrics;
/// --trace 1 runs an untraced pass, a traced pass of the same workload and
/// seed, and a direct replay, and prints the per-layer metrics.  Every
/// operation is verified byte-exactly.  The last line of standard output
/// is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
/// exit code is non-zero when any result was wrong.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 15;
/// Untimed load between set-up and the measured window, so fusion and the
/// allocator reach steady state first.
constexpr double kWarmupSeconds = 0.5;

// --- reporting -------------------------------------------------------------

/// The metrics a run reports, in BENCHMARK.json's order, with their units.
struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"interactive_p50_us", "us"},
    {"interactive_p90_us", "us"},
    {"batch_p50_us", "us"},
    {"batch_p90_us", "us"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"svc.submit_ns_p50", "ns"},
    {"svc.queue_wait_us_p50", "us"},
    {"svc.queue_wait_us_p90", "us"},
    {"svc.overhead_us_p50", "us"},
    {"svc.overhead_us_p90", "us"},
    {"svc.engine_share", "ratio"},
    {"svc.batch_size_mean", "count"},
    {"svc.fused_share", "ratio"},
    {"svc.segments_mean", "count"},
    {"svc.rejected", "count"},
    {"svc.latency_p99_us", "us"},
    {"api.compile_us_p50", "us"},
    {"api.compile_us_p90", "us"},
    {"api.program_instructions_mean", "count"},
    {"runtime.plan_miss_us_p50", "us"},
    {"runtime.plan_hit_ns_p50", "ns"},
    {"runtime.build_us_p50.bcast", "us"},
    {"runtime.build_us_p50.kitem", "us"},
    {"runtime.build_us_p50.reduce", "us"},
    {"runtime.build_us_p50.summation", "us"},
    {"runtime.build_us_p50.alltoall", "us"},
    {"runtime.hit_ratio", "ratio"},
    {"runtime.builds", "count"},
    {"exec.run_us_p50", "us"},
    {"exec.run_us_p90", "us"},
    {"exec.ns_per_cycle_p50", "ns/cycle"},
    {"exec.direct_run_us_p50", "us"},
    {"exec.bytes_per_op", "B"},
    {"exec.messages_per_op", "count"},
    {"exec.kernel_fold_share", "ratio"},
    {"exec.warm_share", "ratio"},
    {"exec.retries", "count"},
    {"obs.analyze_us_p50", "us"},
    {"obs.analyze_share", "ratio"},
    {"gen.late_us_p50", "us"},
    {"gen.late_us_p99", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.self_share.api", "ratio"},
    {"trace.self_share.runtime", "ratio"},
    {"trace.self_share.exec", "ratio"},
    {"trace.self_share.obs", "ratio"},
    {"trace.self_share.gen", "ratio"},
};

using Values = std::map<std::string, double>;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Prints every metric of `specs` (0 when the workload does not exercise
/// it), the tally, and the JSON result line.  Returns the exit code.
int report(const Tally& tally, std::span<const MetricSpec> specs,
           const Values& values, const std::string& failure) {
  std::ostringstream js;
  const bool correct = tally.mismatched == 0 && failure.empty();
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%-34s %16.6f %s\n", specs[i].name, v, specs[i].unit);
    js << (i ? ", " : "") << "\"" << specs[i].name
       << "\": {\"value\": " << json_number(v) << ", \"unit\": \""
       << specs[i].unit << "\"}";
  }
  js << "}}";
  std::printf(
      "attempted %llu  failed %llu  (mismatched %llu, rejected %llu, "
      "errors %llu, cold runs %llu, retries %llu)\n",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed),
      static_cast<unsigned long long>(tally.mismatched),
      static_cast<unsigned long long>(tally.rejected),
      static_cast<unsigned long long>(tally.errors),
      static_cast<unsigned long long>(tally.cold),
      static_cast<unsigned long long>(tally.retries));
  if (!failure.empty()) std::printf("FAILED: %s\n", failure.c_str());
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// The end-to-end metrics of an untraced pass.
template <typename Pass>
Values end_to_end(const std::vector<double>& setups, const Pass& pass) {
  return {{"setup_s", quantile(setups, 0.5)},
          {"ops_per_s", pass.ops_per_s()},
          {"latency_p50_us", pass.latency(-1, 0.5)},
          {"latency_p90_us", pass.latency(-1, 0.9)},
          {"interactive_p50_us", pass.latency(0, 0.5)},
          {"interactive_p90_us", pass.latency(0, 0.9)},
          {"batch_p50_us", pass.latency(1, 0.5)},
          {"batch_p90_us", pass.latency(1, 0.9)},
          {"peak_rss_mb", peak_rss_mb()}};
}

/// Layer ledger of a traced pass: the span durations the per-layer metrics
/// read, and per-layer self time as a share of the sequential roots.  A
/// closed loop's request roots overlap one another (a request is in flight
/// while the generator waits on an older one), so the self-time shares are
/// taken over the replay, probe and plan/compile roots only, which run one
/// at a time on the main thread.
struct Ledger {
  std::map<std::string, std::vector<double>> durations_ns;  ///< by name
  std::map<std::string, double> self_ns;                    ///< by layer
  double root_ns = 0;

  explicit Ledger(const std::vector<Span>& spans) {
    const std::vector<std::uint64_t> self = self_times(spans);
    std::vector<bool> sequential(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      durations_ns[spans[i].name].push_back(
          static_cast<double>(spans[i].duration()));
      const std::int32_t p = spans[i].parent;
      sequential[i] = p < 0 ? std::string_view(spans[i].name) != "gen.request"
                            : sequential[static_cast<std::size_t>(p)];
      if (!sequential[i]) continue;
      self_ns[std::string(layer_of(spans[i]))] += static_cast<double>(self[i]);
      if (p < 0) root_ns += static_cast<double>(spans[i].duration());
    }
  }
  [[nodiscard]] std::vector<double> of(const std::string& name) const {
    const auto it = durations_ns.find(name);
    return it == durations_ns.end() ? std::vector<double>{} : it->second;
  }
  [[nodiscard]] double q(const std::string& name, double p,
                         double scale) const {
    return quantile(of(name), p) / scale;
  }
  [[nodiscard]] double sum(const std::string& name) const {
    const std::vector<double> v = of(name);
    return std::accumulate(v.begin(), v.end(), 0.0);
  }
  /// Metrics read from spans alone, common to every workload.
  void add_to(Values& v) const {
    v["api.compile_us_p50"] = q("api.compile", 0.5, 1e3);
    v["api.compile_us_p90"] = q("api.compile", 0.9, 1e3);
    v["runtime.plan_miss_us_p50"] = q("runtime.plan_miss", 0.5, 1e3);
    v["runtime.plan_hit_ns_p50"] = q("runtime.plan_hit", 0.5, 1);
    for (const char* name : kBuildSpan) {
      // "runtime.build.<family>" -> "runtime.build_us_p50.<family>"
      v[std::string("runtime.build_us_p50.") + (name + 14)] = q(name, 0.5, 1e3);
    }
    for (const char* layer : {"api", "runtime", "exec", "obs", "gen"}) {
      const auto it = self_ns.find(layer);
      v[std::string("trace.self_share.") + layer] =
          ratio(it == self_ns.end() ? 0 : it->second, root_ns);
    }
  }
};

struct Args {
  Workload workload = Workload::kSvcSmallClosed;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) return std::nullopt;
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || argc % 2 == 0 || !(a.seconds > 0)) return std::nullopt;
  return a;
}

/// Writes the spans as a Chrome trace, keeping the first kRootsWritten
/// roots of each kind with their children: a 20 s closed-loop pass records
/// about a million spans, some 80 MB of JSON.
void write_trace(const Args& a, const std::vector<Span>& spans) {
  constexpr std::size_t kRootsWritten = 20000;
  if (a.out_dir.empty()) return;
  std::vector<std::int32_t> remap(spans.size(), -1);
  std::map<std::string_view, std::size_t> roots;
  std::vector<Span> kept;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span s = spans[i];
    if (s.parent >= 0) {
      s.parent = remap[static_cast<std::size_t>(s.parent)];
      if (s.parent < 0) continue;  // its root was left out
    } else if (++roots[s.name] > kRootsWritten) {
      continue;
    }
    remap[i] = static_cast<std::int32_t>(kept.size());
    kept.push_back(s);
  }
  const std::string path = a.out_dir + "/trace-" +
                           std::string(workload_name(a.workload)) + "-" +
                           std::to_string(a.seed) + ".json";
  if (write_chrome_trace(kept, path)) {
    std::printf("trace written to %s (%zu of %zu spans)\n", path.c_str(),
                kept.size(), spans.size());
  }
}

/// Times Planner::build_uncached for every family on the service machine.
void probe_builders(Tracer& tracer) {
  const logpc::Params& mach = kServiceMachine;
  const runtime::PlanKey keys[] = {
      runtime::PlanKey::broadcast(mach),
      runtime::PlanKey::segmented_broadcast(mach, 16),
      runtime::PlanKey::reduce(mach),
      runtime::PlanKey::summation(mach, 16),
      runtime::PlanKey::alltoall(mach, 1)};
  for (std::uint64_t r = 0; r < 32; ++r) {
    const std::uint64_t key = ServiceBench::kProbeKey | r;
    const Scoped root(tracer, key, "gen.probe");
    for (std::size_t f = 0; f < std::size(keys); ++f) {
      const Scoped s(tracer, key, kBuildSpan[f], root.id());
      (void)runtime::Planner::build_uncached(keys[f]);
    }
  }
}

int run_service(const Args& a) {
  Tally tally;
  ServiceBench bench(a.workload, a.seed, tally);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(bench.setup());
  (void)bench.run(kWarmupSeconds, nullptr);

  std::string failure;
  const auto check_steady = [&] {
    if (tally.cold != 0) failure = "a service run was not on a warm pool";
    if (tally.retries != 0) failure = "a service run retransmitted";
  };
  if (!a.trace) {
    const PassResult pass = bench.run(a.seconds, nullptr);
    check_steady();
    return report(tally, kEndToEnd, end_to_end(setups, pass), failure);
  }

  const PassResult plain = bench.run(a.seconds * 0.4, nullptr);
  Tracer tracer;
  const PassResult traced = bench.run(a.seconds * 0.4, &tracer);
  check_steady();
  bench.replay(traced, a.seconds * 0.2, tracer);
  probe_builders(tracer);
  const std::vector<Span> spans = tracer.spans();
  const Ledger led(spans);

  std::vector<double> submit_ns, queue_us, overhead_us, wall_us, ns_per_cycle;
  double engine_ns = 0, service_ns = 0, fused = 0, fused_n = 0, segs = 0,
         bytes = 0, msgs = 0, kfolds = 0, gfolds = 0;
  for (const Sample& s : traced.samples) {
    const double in_service =
        static_cast<double>(s.total_ns) - static_cast<double>(s.queue_wait_ns);
    submit_ns.push_back(static_cast<double>(s.submit_ns));
    queue_us.push_back(static_cast<double>(s.queue_wait_ns) / 1e3);
    overhead_us.push_back(
        std::max(0.0, in_service - static_cast<double>(s.wall_ns)) / 1e3);
    wall_us.push_back(static_cast<double>(s.wall_ns) / 1e3);
    if (s.predicted > 0) {
      ns_per_cycle.push_back(static_cast<double>(s.wall_ns) /
                             static_cast<double>(s.predicted));
    }
    engine_ns += static_cast<double>(s.wall_ns);
    service_ns += in_service;
    fused += s.fused;
    fused_n += s.fused > 1 ? 1 : 0;
    segs += s.segments;
    bytes += static_cast<double>(s.payload_bytes);
    msgs += static_cast<double>(s.messages);
    kfolds += static_cast<double>(s.kernel_folds);
    gfolds += static_cast<double>(s.generic_folds);
  }
  const std::vector<double> late_us(plain.late_us.begin(), plain.late_us.end());
  const auto n = static_cast<double>(traced.samples.size());
  const bool open_loop = service_mix(a.workload).outstanding == 0;

  Values v;
  led.add_to(v);
  v["svc.submit_ns_p50"] = quantile(submit_ns, 0.5);
  v["svc.queue_wait_us_p50"] = quantile(queue_us, 0.5);
  v["svc.queue_wait_us_p90"] = quantile(queue_us, 0.9);
  v["svc.overhead_us_p50"] = quantile(overhead_us, 0.5);
  v["svc.overhead_us_p90"] = quantile(overhead_us, 0.9);
  v["svc.engine_share"] = ratio(engine_ns, service_ns);
  v["svc.batch_size_mean"] = ratio(fused, n);
  v["svc.fused_share"] = ratio(fused_n, n);
  v["svc.segments_mean"] = ratio(segs, n);
  v["svc.rejected"] = static_cast<double>(traced.rejected + plain.rejected);
  v["svc.latency_p99_us"] = quantile(plain.latencies(), 0.99);
  v["api.program_instructions_mean"] = mean(bench.instructions());
  v["runtime.hit_ratio"] = bench.planner().cache().stats().hit_ratio();
  v["runtime.builds"] = static_cast<double>(bench.planner().builds());
  v["exec.run_us_p50"] = quantile(wall_us, 0.5);
  v["exec.run_us_p90"] = quantile(wall_us, 0.9);
  v["exec.ns_per_cycle_p50"] = quantile(ns_per_cycle, 0.5);
  v["exec.direct_run_us_p50"] = led.q("exec.run", 0.5, 1e3);
  v["exec.bytes_per_op"] = ratio(bytes, n);
  v["exec.messages_per_op"] = ratio(msgs, n);
  v["exec.kernel_fold_share"] = ratio(kfolds, kfolds + gfolds);
  v["exec.warm_share"] = tally.cold == 0 ? 1.0 : 0.0;
  v["exec.retries"] = static_cast<double>(tally.retries);
  v["obs.analyze_us_p50"] = led.q("obs.analyze", 0.5, 1e3);
  v["obs.analyze_share"] = ratio(
      led.sum("obs.analyze"), led.sum("obs.analyze") + led.sum("exec.run"));
  v["gen.late_us_p50"] = quantile(late_us, 0.5);
  v["gen.late_us_p99"] = quantile(late_us, 0.99);
  v["trace.overhead_pct"] =
      open_loop
          ? 100.0 * (ratio(traced.latency(-1, 0.5), plain.latency(-1, 0.5)) - 1)
          : 100.0 * (ratio(plain.ops_per_s(), traced.ops_per_s()) - 1);
  write_trace(a, spans);
  return report(tally, kPerLayer, v, failure);
}

int run_plan(const Args& a) {
  Tally tally;
  PlanBench bench(a.seed, tally);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(bench.setup());
  if (!a.trace) {
    const PlanPassResult pass = bench.run(a.seconds, nullptr);
    return report(tally, kEndToEnd, end_to_end(setups, pass), "");
  }

  const PlanPassResult plain = bench.run(a.seconds * 0.5, nullptr);
  Tracer tracer;
  const PlanPassResult traced = bench.run(a.seconds * 0.5, &tracer);
  const std::vector<Span> spans = tracer.spans();
  Values v;
  Ledger(spans).add_to(v);
  v["api.program_instructions_mean"] = mean(traced.instructions);
  v["runtime.hit_ratio"] = ratio(static_cast<double>(traced.hits),
                                 static_cast<double>(traced.lookups));
  v["runtime.builds"] = static_cast<double>(traced.builds);
  v["trace.overhead_pct"] =
      100.0 * (ratio(plain.ops_per_s(), traced.ops_per_s()) - 1);
  write_trace(a, spans);
  return report(tally, kPerLayer, v, "");
}

}  // namespace

int main(int argc, char** argv) {
  // Serve every allocation up to 256 MiB from the heap and never trim it.
  // Under glibc's default the mmap threshold adapts to the frees it has
  // seen, so whether the service's multi-MiB request and result buffers
  // are mmapped (page faults plus munmap TLB shootdowns on every request)
  // or recycled differs from run to run: svc_large_closed was bimodal,
  // its p50 spreading 77% of the median across runs.  Fixed, the runs
  // agree within a few percent.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench --workload "
                 "<svc_small_closed|svc_large_closed|svc_open_mixed|"
                 "plan_compile_cold> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n";
    return 2;
  }
  try {
    return is_service(args->workload) ? run_service(*args) : run_plan(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
