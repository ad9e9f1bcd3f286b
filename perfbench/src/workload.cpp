#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

using logpc::exec::Bytes;
namespace svc = logpc::svc;
namespace runtime = logpc::runtime;

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kSvcSmallClosed: return "svc_small_closed";
    case Workload::kSvcLargeClosed: return "svc_large_closed";
    case Workload::kSvcOpenMixed: return "svc_open_mixed";
    case Workload::kPlanCompileCold: return "plan_compile_cold";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

bool is_service(Workload w) { return w != Workload::kPlanCompileCold; }

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv_str(std::string_view s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(b.data() + i, &v, std::min<std::size_t>(8, n - i));
  }
  return b;
}

/// Wrapping i64 sum, elementwise: the reference the typed kernel must match.
Bytes wrapped_sum(const std::vector<Bytes>& values) {
  Bytes acc = values.front();
  for (std::size_t v = 1; v < values.size(); ++v) {
    for (std::size_t i = 0; i + 8 <= acc.size(); i += 8) {
      std::uint64_t a = 0;
      std::uint64_t b = 0;
      std::memcpy(&a, acc.data() + i, 8);
      std::memcpy(&b, values[v].data() + i, 8);
      a += b;
      std::memcpy(acc.data() + i, &a, 8);
    }
  }
  return acc;
}

bool same(const Bytes& a, const Bytes& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

const ServiceMix& make_mix(Workload w) {
  using svc::OpKind;
  using svc::QoS;
  static const ServiceMix small{
      {{"bcast_64B", OpKind::kBroadcast, QoS::kBatch, 64, 0, 1.0},
       {"reduce_i64_256B", OpKind::kReduce, QoS::kBatch, 256, 1, 1.0},
       {"allgather_64B", OpKind::kAllgather, QoS::kBatch, 64, 1, 1.0}},
      16,
      0};
  static const ServiceMix large{
      {{"bcast_1MiB", OpKind::kBroadcast, QoS::kBatch, 1 << 20, 0, 1.0},
       {"reduce_i64_256KiB", OpKind::kReduce, QoS::kBatch, 256 << 10, 1, 1.0}},
      2,
      0};
  static const ServiceMix open{
      {{"bcast_64B_interactive", OpKind::kBroadcast, QoS::kInteractive, 64, 0,
        0.6},
       {"bcast_4KiB", OpKind::kBroadcast, QoS::kBatch, 4096, 1, 0.2},
       {"reduce_i64_256B", OpKind::kReduce, QoS::kBatch, 256, 1, 0.2}},
      0,
      1500};
  switch (w) {
    case Workload::kSvcSmallClosed: return small;
    case Workload::kSvcLargeClosed: return large;
    case Workload::kSvcOpenMixed: return open;
    case Workload::kPlanCompileCold: break;
  }
  throw std::invalid_argument("not a service workload");
}

}  // namespace

std::uint64_t stream_seed(Workload w, std::uint64_t seed) {
  Rng mix(fnv(fnv_str(workload_name(w)), seed));
  return mix.next();
}

const ServiceMix& service_mix(Workload w) { return make_mix(w); }

ServiceSequence::ServiceSequence(Workload w, std::uint64_t seed)
    : mix_(service_mix(w)), rng_(stream_seed(w, seed)) {}

ServiceOp ServiceSequence::next() {
  ServiceOp op;
  op.id = next_id_++;
  double total = 0;
  for (const Shape& s : mix_.shapes) total += s.weight;
  double draw = rng_.uniform() * total;
  op.shape = static_cast<int>(mix_.shapes.size()) - 1;
  for (std::size_t i = 0; i < mix_.shapes.size(); ++i) {
    if (draw < mix_.shapes[i].weight) {
      op.shape = static_cast<int>(i);
      break;
    }
    draw -= mix_.shapes[i].weight;
  }
  op.variant = static_cast<int>(rng_.below(ServiceInputs::kVariants));
  op.tenant = static_cast<int>(rng_.below(kTenants));
  if (mix_.rate_per_s > 0) {
    // Exponential inter-arrival gaps: a Poisson process at the mix rate.
    clock_ns_ += -std::log1p(-rng_.uniform()) * 1e9 / mix_.rate_per_s;
    op.due_ns = static_cast<std::uint64_t>(clock_ns_);
  }
  return op;
}

ServiceInputs::ServiceInputs(const ServiceMix& mix, std::uint64_t seed,
                             int procs)
    : mix_(mix), procs_(procs) {
  Rng rng(seed ^ 0xA5A5A5A5DEADBEEFull);
  inputs_.resize(mix.shapes.size());
  for (std::size_t s = 0; s < mix.shapes.size(); ++s) {
    const Shape& shape = mix.shapes[s];
    for (int v = 0; v < kVariants; ++v) {
      Input in;
      if (shape.op == svc::OpKind::kBroadcast) {
        in.payload = random_bytes(rng, shape.bytes);
      } else {
        for (int p = 0; p < procs; ++p) {
          in.values.push_back(random_bytes(rng, shape.bytes));
        }
        if (shape.op == svc::OpKind::kReduce) in.reduced = wrapped_sum(in.values);
      }
      inputs_[s].push_back(std::move(in));
    }
  }
}

const ServiceInputs::Input& ServiceInputs::at(const ServiceOp& op) const {
  return inputs_[static_cast<std::size_t>(op.shape)]
                [static_cast<std::size_t>(op.variant)];
}

logpc::exec::Combiner i64_sum() {
  return logpc::exec::Combiner(
      logpc::exec::KernelSpec{logpc::exec::Op::kSum, logpc::exec::DType::kI64});
}

svc::Request ServiceInputs::request(const ServiceOp& op) const {
  const Shape& shape = mix_.shapes[static_cast<std::size_t>(op.shape)];
  const Input& in = at(op);
  svc::Request req;
  req.op = shape.op;
  req.qos = shape.qos;
  req.root = 0;
  if (shape.op == svc::OpKind::kBroadcast) {
    req.payload = in.payload;
  } else {
    req.values = in.values;
  }
  if (shape.op == svc::OpKind::kReduce) req.combine = i64_sum();
  return req;
}

bool ServiceInputs::verify(const ServiceOp& op, const svc::Response& r) const {
  return r.status == svc::Status::kOk && verify_report(op, r.report);
}

bool ServiceInputs::verify_report(const ServiceOp& op,
                                  const logpc::exec::ExecReport& r) const {
  const Shape& shape = mix_.shapes[static_cast<std::size_t>(op.shape)];
  const Input& in = at(op);
  const auto procs = static_cast<std::size_t>(procs_);
  switch (shape.op) {
    case svc::OpKind::kBroadcast:
      if (r.items.size() != procs) return false;
      for (const std::vector<Bytes>& slots : r.items) {
        if (slots.size() != 1 || !same(slots[0], in.payload)) return false;
      }
      return true;
    case svc::OpKind::kReduce:
      return r.folded.size() == procs && same(r.folded[0], in.reduced);
    case svc::OpKind::kAllgather:
      if (r.items.size() != procs) return false;
      for (const std::vector<Bytes>& slots : r.items) {
        if (slots.size() != procs) return false;
        for (std::size_t q = 0; q < procs; ++q) {
          if (!same(slots[q], in.values[q])) return false;
        }
      }
      return true;
  }
  return false;
}

const std::vector<Family>& plan_families() {
  static const std::vector<Family> families{
      {"bcast", runtime::Problem::kBroadcast, 16},
      {"kitem", runtime::Problem::kKItemBroadcast, 7},
      {"reduce", runtime::Problem::kReduce, 16},
      {"summation", runtime::Problem::kSummation, 16},
      {"alltoall", runtime::Problem::kAllToAll, 7},
  };
  return families;
}

std::vector<PlanOp> plan_round(std::uint64_t seed, std::uint64_t round) {
  // (L, o, g) grid; every point has g >= o + 1, which summation requires.
  static constexpr logpc::Time kGrid[][3] = {
      {2, 0, 1}, {4, 1, 2}, {6, 1, 2}, {8, 2, 3}};
  // Where P falls inside its octave is stratified twice.  Each octave
  // splits into kStrata; a seeded permutation staggers the octaves' strata,
  // so every round spreads its keys across the strata and rounds cost about
  // the same, and the stratum advances by one each round, so any
  // kStrata consecutive rounds visit every stratum of every octave and a
  // run's quantiles barely depend on the seed.
  constexpr int kStrata = 8;
  const std::uint64_t base = stream_seed(Workload::kPlanCompileCold, seed);
  Rng phase_rng(base);
  Rng rng(fnv(base, round));
  const std::vector<Family>& families = plan_families();

  std::vector<PlanOp> fresh;
  for (std::size_t f = 0; f < families.size(); ++f) {
    const int octaves = families[f].max_log2_p;
    std::vector<int> phase(static_cast<std::size_t>(octaves));
    for (int i = 0; i < octaves; ++i) phase[static_cast<std::size_t>(i)] = i;
    for (std::size_t i = phase.size(); i > 1; --i) {
      std::swap(phase[i - 1], phase[phase_rng.below(i)]);
    }
    for (int octave = 1; octave <= octaves; ++octave) {
      PlanOp op;
      op.family = static_cast<int>(f);
      const auto stratum = static_cast<int>(
          (static_cast<std::uint64_t>(phase[static_cast<std::size_t>(octave - 1)]) +
           round) % kStrata);
      const double log2p = octave + (stratum + rng.uniform()) / kStrata;
      const int cap = 1 << families[f].max_log2_p;
      const int P = std::min(cap, static_cast<int>(std::exp2(log2p)));
      // k-item keys skip the grid points whose postal latency L + 2o is 2 or
      // 12: there the k-item construction search takes from 0.5 s to past
      // any run budget (P = 16 at L + 2o = 12; P >= 46 at L + 2o = 2).
      const bool kitem =
          families[f].problem == runtime::Problem::kKItemBroadcast;
      const auto& grid =
          kitem ? kGrid[1 + rng.below(2)] : kGrid[rng.below(std::size(kGrid))];
      op.params = logpc::Params{P, grid[0], grid[1], grid[2]};
      op.root = static_cast<logpc::ProcId>(rng.below(static_cast<std::uint64_t>(P)));
      switch (families[f].problem) {
        case runtime::Problem::kKItemBroadcast:
          op.k = 2 + static_cast<std::int64_t>(rng.below(15));
          break;
        case runtime::Problem::kSummation:
          // Two operands per processor.  A random count would make the
          // cost of the largest keys, which dominate a round, vary by 4x.
          op.k = 2 * static_cast<std::int64_t>(P);
          break;
        default:
          op.k = 1;
      }
      fresh.push_back(op);
    }
  }
  for (std::size_t i = fresh.size(); i > 1; --i) {
    std::swap(fresh[i - 1], fresh[rng.below(i)]);
  }
  // Every key is called exactly twice: a random interleaving of the new
  // keys with repeats, each repeat drawn from the keys seen but not yet
  // repeated.
  std::vector<PlanOp> calls;
  calls.reserve(2 * fresh.size());
  std::vector<PlanOp> unrepeated;
  std::size_t next = 0;
  while (calls.size() < 2 * fresh.size()) {
    const std::size_t new_left = fresh.size() - next;
    const bool repeat =
        !unrepeated.empty() &&
        (new_left == 0 ||
         rng.below(new_left + fresh.size() - (calls.size() - next)) >=
             new_left);
    if (repeat) {
      const std::size_t pick = rng.below(unrepeated.size());
      PlanOp again = unrepeated[pick];
      unrepeated[pick] = unrepeated.back();
      unrepeated.pop_back();
      again.repeat = true;
      calls.push_back(again);
    } else {
      calls.push_back(fresh[next]);
      unrepeated.push_back(fresh[next++]);
    }
  }
  for (std::size_t i = 0; i < calls.size(); ++i) {
    calls[i].id = (round << 32) | i;
  }
  return calls;
}

std::uint64_t sequence_hash(Workload w, std::uint64_t seed, int n) {
  std::uint64_t h = fnv_str(workload_name(w));
  if (is_service(w)) {
    ServiceSequence seq(w, seed);
    for (int i = 0; i < n; ++i) {
      const ServiceOp op = seq.next();
      h = fnv(h, op.id);
      h = fnv(h, static_cast<std::uint64_t>(op.shape));
      h = fnv(h, static_cast<std::uint64_t>(op.variant));
      h = fnv(h, static_cast<std::uint64_t>(op.tenant));
      h = fnv(h, op.due_ns);
    }
    return h;
  }
  int emitted = 0;
  for (std::uint64_t round = 0; emitted < n; ++round) {
    for (const PlanOp& op : plan_round(seed, round)) {
      if (emitted == n) break;
      ++emitted;
      h = fnv(h, op.id);
      h = fnv(h, static_cast<std::uint64_t>(op.family));
      h = fnv(h, static_cast<std::uint64_t>(op.params.P));
      h = fnv(h, static_cast<std::uint64_t>(op.params.L));
      h = fnv(h, static_cast<std::uint64_t>(op.params.o));
      h = fnv(h, static_cast<std::uint64_t>(op.params.g));
      h = fnv(h, static_cast<std::uint64_t>(op.k));
      h = fnv(h, static_cast<std::uint64_t>(op.root));
      h = fnv(h, op.repeat ? 1 : 0);
    }
  }
  return h;
}

}  // namespace perfbench
