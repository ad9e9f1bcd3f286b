#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "validate/checker.hpp"

/// Shared helpers for the exec test suites: fixed-width integers and
/// variable-length strings in and out of exec::Bytes, the two combine
/// operators the paper's summation footnote distinguishes (a commutative
/// one and a non-commutative one), and a program's expected receive log.

namespace logpc::exec::testutil {

inline Bytes of_u64(std::uint64_t v) {
  Bytes b(sizeof v);
  std::memcpy(b.data(), &v, sizeof v);
  return b;
}

inline std::uint64_t to_u64(const Bytes& b) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data(), std::min(b.size(), sizeof v));
  return v;
}

inline Bytes of_str(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return Bytes(p, p + s.size());
}

inline std::string to_str(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// Commutative: 64-bit addition.
inline CombineFn add_u64() {
  return [](Bytes& acc, std::span<const std::byte> rhs) {
    std::uint64_t a = 0, r = 0;
    std::memcpy(&a, acc.data(), std::min(acc.size(), sizeof a));
    std::memcpy(&r, rhs.data(), std::min(rhs.size(), sizeof r));
    a += r;
    acc.resize(sizeof a);
    std::memcpy(acc.data(), &a, sizeof a);
  };
}

/// Associative but NOT commutative: byte concatenation.  Any reordering of
/// the fold shows up as a different string.
inline CombineFn concat() {
  return [](Bytes& acc, std::span<const std::byte> rhs) {
    acc.insert(acc.end(), rhs.begin(), rhs.end());
  };
}

/// The receive sequence each processor will log when execution follows
/// `prog` — the expected side of validate::check_delivery_order.
inline std::vector<std::vector<validate::DeliveryRecord>> expected_deliveries(
    const Program& prog) {
  std::vector<std::vector<validate::DeliveryRecord>> out(prog.procs.size());
  for (std::size_t p = 0; p < prog.procs.size(); ++p) {
    for (const Instr& ins : prog.procs[p].instrs) {
      if (ins.op == OpCode::kRecv) {
        out[p].push_back(validate::DeliveryRecord{prog.peer(ins), ins.item});
      }
    }
  }
  return out;
}

}  // namespace logpc::exec::testutil
