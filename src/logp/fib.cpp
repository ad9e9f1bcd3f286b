#include "logp/fib.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

namespace logpc {

Count sat_add(Count a, Count b) {
  const Count s = a + b;
  return (s >= kSaturated || s < a) ? kSaturated : s;
}

Fib::Fib(Time L) : L_(L) {
  if (L < 1) throw std::invalid_argument("Fib: latency L must be >= 1");
}

void Fib::extend(Time i) const {
  if (f_.empty()) {
    f_.assign(static_cast<std::size_t>(L_), Count{1});
    sum_.resize(static_cast<std::size_t>(L_));
    Count acc = 0;
    for (std::size_t j = 0; j < f_.size(); ++j) {
      acc = sat_add(acc, f_[j]);
      sum_[j] = acc;
    }
  }
  while (static_cast<Time>(f_.size()) <= i) {
    const auto n = f_.size();
    const Count next =
        sat_add(f_[n - 1], f_[n - static_cast<std::size_t>(L_)]);
    f_.push_back(next);
    sum_.push_back(sat_add(sum_[n - 1], next));
  }
}

Count Fib::f(Time i) const {
  if (i < 0) throw std::out_of_range("Fib::f: negative index");
  extend(i);
  return f_[static_cast<std::size_t>(i)];
}

Count Fib::sum(Time i) const {
  if (i < 0) return 0;
  extend(i);
  return sum_[static_cast<std::size_t>(i)];
}

Time Fib::B_of_P(Count P) const {
  if (P < 1) throw std::invalid_argument("Fib::B_of_P: P must be >= 1");
  // f(t) clamps at kSaturated, so the scan below can never reach a larger
  // P — without this guard it spins forever while growing the memo.
  if (P > kSaturated) throw std::overflow_error("Fib::B_of_P: P too big");
  Time t = 0;
  while (f(t) < P) ++t;
  return t;
}

bool Fib::is_exact_P(Count P) const {
  if (P < 1) return false;
  // At or past the clamp f(t) == kSaturated is a floor, not a value, so
  // "f hits P exactly" is unanswerable.
  if (P >= kSaturated) throw std::overflow_error("Fib::is_exact_P: P too big");
  return f(B_of_P(P)) == P;
}

Count Fib::k_star(Count P) const {
  if (P < 2) throw std::invalid_argument("Fib::k_star: P must be >= 2");
  if (P - 1 >= kSaturated) throw std::overflow_error("Fib::k_star: P too big");
  // n: the index with f_n < P-1 <= f_{n+1}; when P-1 == 1 every f_i >= 1 so
  // n = -1 and the empty sum gives k* = 0.
  Time n = -1;
  while (f(n + 1) < P - 1) ++n;
  return sum(n) / (P - 1);
}

namespace {

/// One lazily grown table per latency, shared by every thread.  The single
/// mutex guards both the registry and the tables' lazy extension (Fib alone
/// is thread-compatible, not thread-safe).  The registry is a function-local
/// static, so construction happens exactly once; it is intentionally leaked
/// to stay usable during static destruction.
struct SharedTables {
  std::mutex mu;
  std::map<Time, Fib> tables;
};

SharedTables& shared_tables() {
  static SharedTables* tables = new SharedTables;
  return *tables;
}

template <typename F>
auto with_shared_fib(Time L, F&& query) {
  SharedTables& st = shared_tables();
  const std::scoped_lock lock(st.mu);
  auto it = st.tables.find(L);
  if (it == st.tables.end()) it = st.tables.emplace(L, Fib(L)).first;
  return query(it->second);
}

}  // namespace

Time shared_B_of_P(Time L, Count P) {
  return with_shared_fib(L, [&](const Fib& fib) { return fib.B_of_P(P); });
}

bool shared_is_exact_P(Time L, Count P) {
  return with_shared_fib(L, [&](const Fib& fib) { return fib.is_exact_P(P); });
}

Count shared_k_star(Time L, Count P) {
  return with_shared_fib(L, [&](const Fib& fib) { return fib.k_star(P); });
}

}  // namespace logpc
