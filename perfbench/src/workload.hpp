#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "exec/kernels.hpp"
#include "logp/params.hpp"
#include "runtime/plan_key.hpp"
#include "svc/request.hpp"

/// \file workload.hpp
/// The benchmark's inputs: four workloads, each a pure function of
/// (workload, seed).  The program under test only ever sees the generated
/// requests; the references perfbench verifies against are computed here,
/// independently of the library.

namespace perfbench {

enum class Workload : std::uint8_t {
  kSvcSmallClosed,   ///< per-request fixed costs: 64-256 B, fused
  kSvcLargeClosed,   ///< byte movement: 1 MiB segmented bcast, 256 KiB reduce
  kSvcOpenMixed,     ///< Poisson arrivals, interactive + fused batch
  kPlanCompileCold,  ///< planner builds + compilation, no service
};

inline constexpr Workload kAllWorkloads[] = {
    Workload::kSvcSmallClosed, Workload::kSvcLargeClosed,
    Workload::kSvcOpenMixed, Workload::kPlanCompileCold};

[[nodiscard]] std::string_view workload_name(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] bool is_service(Workload w);

/// splitmix64: tiny, fast and fully specified, so a seed names the same
/// input stream on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n); n must be positive.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Seed of a workload's stream: the user seed mixed with the workload, so
/// two workloads run with one seed still draw unrelated inputs.
[[nodiscard]] std::uint64_t stream_seed(Workload w, std::uint64_t seed);

// --- service workloads ------------------------------------------------

/// Every service workload runs on this LogP machine with this many tenants.
inline constexpr logpc::Params kServiceMachine{4, 4, 1, 2};
inline constexpr int kTenants = 4;
/// Per-tenant queue bound, over the scheduler's default of 64.
inline constexpr std::size_t kTenantQueue = 1024;

/// One request shape of a service mix.  `cls` selects the latency metric
/// pair an operation reports into: 0 = interactive_*, 1 = batch_*.
struct Shape {
  const char* name;
  logpc::svc::OpKind op;
  logpc::svc::QoS qos;
  std::size_t bytes;  ///< broadcast: payload; reduce/allgather: per rank
  int cls;
  double weight;
};

struct ServiceMix {
  std::vector<Shape> shapes;
  int outstanding = 0;    ///< closed loop: requests in flight; 0 = open
  double rate_per_s = 0;  ///< open loop: mean Poisson arrival rate
};

[[nodiscard]] const ServiceMix& service_mix(Workload w);

struct ServiceOp {
  std::uint64_t id = 0;
  int shape = 0;
  int variant = 0;  ///< which of the seeded inputs of the shape
  int tenant = 0;
  std::uint64_t due_ns = 0;  ///< open loop: arrival time after the start
};

/// The infinite request stream of a service workload.
class ServiceSequence {
 public:
  ServiceSequence(Workload w, std::uint64_t seed);
  ServiceOp next();

 private:
  const ServiceMix& mix_;
  Rng rng_;
  std::uint64_t next_id_ = 0;
  double clock_ns_ = 0;
};

/// Seeded inputs of every (shape, variant) with their reference results,
/// and the byte-exact check of a response against them.
class ServiceInputs {
 public:
  static constexpr int kVariants = 4;

  ServiceInputs(const ServiceMix& mix, std::uint64_t seed, int procs);

  [[nodiscard]] logpc::svc::Request request(const ServiceOp& op) const;
  /// Broadcast: every rank's copy equals the payload.  i64-sum reduce: the
  /// root holds the wrapped sum.  Allgather: every rank holds every
  /// contribution.
  [[nodiscard]] bool verify(const ServiceOp& op,
                            const logpc::svc::Response& r) const;
  /// Same checks on a direct engine run of the request.
  [[nodiscard]] bool verify_report(const ServiceOp& op,
                                   const logpc::exec::ExecReport& r) const;

  [[nodiscard]] const logpc::exec::Bytes& payload(const ServiceOp& op) const {
    return at(op).payload;
  }
  [[nodiscard]] const std::vector<logpc::exec::Bytes>& values(
      const ServiceOp& op) const {
    return at(op).values;
  }

 private:
  struct Input {
    logpc::exec::Bytes payload;               ///< broadcast
    std::vector<logpc::exec::Bytes> values;   ///< reduce / allgather
    logpc::exec::Bytes reduced;               ///< reduce reference
  };
  [[nodiscard]] const Input& at(const ServiceOp& op) const;

  const ServiceMix& mix_;
  int procs_;
  std::vector<std::vector<Input>> inputs_;  ///< [shape][variant]
};

/// The typed combiner every reduce in the benchmark uses.
[[nodiscard]] logpc::exec::Combiner i64_sum();

// --- plan/compile workload ----------------------------------------------

/// Planner families the workload draws, with their largest P.  k-item and
/// all-to-all are capped: the k-item construction search grows steeply
/// past P = 128, and the all-to-all schedule is O(P^2).
struct Family {
  const char* name;
  logpc::runtime::Problem problem;
  int max_log2_p;
};
[[nodiscard]] const std::vector<Family>& plan_families();

struct PlanOp {
  std::uint64_t id = 0;
  int family = 0;  ///< index into plan_families()
  logpc::Params params;
  std::int64_t k = 1;
  logpc::ProcId root = 0;
  bool repeat = false;  ///< repeats an earlier key of its round
};

/// One round of the plan/compile workload, served by a fresh planner.  It
/// draws one key per (family, octave of P) — P log-uniform within the
/// octave, random root, (L, o, g) from a small grid — so every round has
/// the same cost profile.  Each key is called twice, the repeat at a random
/// later point of the round: half the calls repeat an earlier key.
[[nodiscard]] std::vector<PlanOp> plan_round(std::uint64_t seed,
                                             std::uint64_t round);

/// FNV-1a over the first `n` operations of a workload's seeded sequence.
[[nodiscard]] std::uint64_t sequence_hash(Workload w, std::uint64_t seed,
                                          int n);

}  // namespace perfbench
