#pragma once

#include <cstdint>
#include <vector>

#include "logp/time.hpp"

/// \file fib.hpp
/// The generalized Fibonacci sequence of Definition 2.5 and the postal-model
/// broadcast quantities built on it:
///
///   f_i = 1                  for 0 <= i < L,
///   f_i = f_{i-1} + f_{i-L}  otherwise.
///
/// Theorem 2.2: in the postal model (g = 1, o = 0) the number of processors
/// reachable by single-item broadcast in t steps is P(t; L, 0, 1) = f_t.
/// Fact 2.1:   1 + sum_{i=0..t} f_i = f_{t+L}.

namespace logpc {

/// Saturating counter type for processor counts, which grow exponentially in
/// t.  Values are exact until they would exceed kSaturated, after which they
/// clamp (queries that need exact values stay well below the clamp).
using Count = std::uint64_t;

/// Clamp value for saturating arithmetic on Count.
inline constexpr Count kSaturated = Count{1} << 62;

/// a + b with saturation at kSaturated.
[[nodiscard]] Count sat_add(Count a, Count b);

/// The generalized Fibonacci sequence for a fixed latency L >= 1, memoized.
///
/// Thread-compatible: each instance owns its memo; use one per thread or
/// guard externally.
class Fib {
 public:
  /// \param L postal-model latency, L >= 1 (throws std::invalid_argument
  ///          otherwise).  For L == 1 the sequence is f_i = 2^i.
  explicit Fib(Time L);

  [[nodiscard]] Time latency() const { return L_; }

  /// f_i (saturating).  i must be >= 0.
  [[nodiscard]] Count f(Time i) const;

  /// sum_{j=0..i} f_j (saturating); sum(-1) == 0.
  [[nodiscard]] Count sum(Time i) const;

  /// P(t): maximum processors reachable by a t-step postal broadcast
  /// (Theorem 2.2).  Equals f(t).
  [[nodiscard]] Count P_of_t(Time t) const { return f(t); }

  /// B(P): minimum steps for a postal single-item broadcast to P processors;
  /// the least t with f_t >= P.  P must be >= 1.
  [[nodiscard]] Time B_of_P(Count P) const;

  /// True iff P == P(t) for some t, i.e. the optimal broadcast tree on P
  /// nodes is "full"/unique in the paper's sense (Section 3.1 restricts to
  /// such P - 1).
  [[nodiscard]] bool is_exact_P(Count P) const;

  /// k*(P) of Theorem 3.1: with n the index such that f_n < P-1 <= f_{n+1}
  /// (so B(P-1) = n + 1), k* = floor(sum_{i=0..n} f_i / (P-1)).
  /// Requires P >= 2 and P - 1 small enough to be exact.
  [[nodiscard]] Count k_star(Count P) const;

 private:
  Time L_;
  mutable std::vector<Count> f_;    // f_[i] = f_i
  mutable std::vector<Count> sum_;  // sum_[i] = f_0 + ... + f_i

  void extend(Time i) const;
};

/// ---- shared process-wide tables ----------------------------------------
///
/// The planning runtime (src/runtime) asks for B(P) and k* for the
/// same handful of latencies over and over — once per cache miss, from many
/// threads.  These accessors answer from one memoized table per latency,
/// built once behind a static registry + lock, so repeated queries never
/// recompute the sequence.  Thread-safe (unlike the plain Fib class, which
/// stays lock-free for single-owner inner loops).

/// B(P) for latency L, from the shared table.
[[nodiscard]] Time shared_B_of_P(Time L, Count P);

/// Fib::is_exact_P against the shared table.
[[nodiscard]] bool shared_is_exact_P(Time L, Count P);

/// k*(P) of Theorem 3.1 against the shared table.
[[nodiscard]] Count shared_k_star(Time L, Count P);

}  // namespace logpc
