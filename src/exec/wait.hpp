#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

/// \file wait.hpp
/// The engine's one idle strategy.  Every blocking wait — plain mailbox
/// waits, reliable waits with failure detection, and the ack/retransmit
/// loop — walks the same two-step ladder:
///
///   step 1  spin with cpu_relax() (PAUSE/YIELD) for the first
///           kRelaxSpins attempts: the cheapest reaction when the
///           condition flips within a few hundred cycles;
///   step 2  yield once per failed attempt (an oversubscribed machine
///           needs the waiter's core to run the producer — PAUSE-spinning
///           between yields measurably stalls whole collectives), with a
///           *slow tick* every kSlowTickSpins attempts where the caller
///           runs its deadline / failure-detector / retransmit
///           bookkeeping and then a capped exponential yield burst
///           (1, 2, 4, ... up to kMaxYieldBurst extra yields).
///
/// The ladder never sleeps: a waiter re-checks its condition, its
/// deadline and its heartbeat at least once per slow tick, so the
/// watchdog and the failure detector stay live without any wake-up
/// thread.

namespace logpc::exec {

/// One PAUSE/YIELD-class hint to the core that we are spinning.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Per-blocking-wait cursor through the ladder.  Usage:
///
///   Waiter w;
///   while (!attempt()) {
///     if (abort) return false;
///     if (w.should_tick()) {
///       ... deadline / suspect / retransmit bookkeeping ...
///       w.idle();
///     }
///   }
class Waiter {
 public:
  /// Step-1 attempts before yielding begins.  Deliberately short: PAUSE
  /// costs ~100+ cycles on modern x86, and on an oversubscribed host the
  /// condition can only flip after a context switch, so every extra relax
  /// poll is pure latency on the critical path of a blocked receive.
  static constexpr std::uint32_t kRelaxSpins = 8;
  /// Failed attempts between slow ticks (bookkeeping runs).
  static constexpr std::uint32_t kSlowTickSpins = 256;
  /// Cap on the extra yields idle() spends after one slow tick.
  static constexpr std::uint32_t kMaxYieldBurst = 16;

  /// Advances one failed attempt.  Returns true when the caller should run
  /// its slow-path bookkeeping and then call idle(); returns false after
  /// one cpu_relax (step 1) or one yield (step 2).
  bool should_tick() noexcept {
    ++attempts_;
    if (ticks_ == 0 && attempts_ <= kRelaxSpins) {
      cpu_relax();
      return false;
    }
    if (attempts_ < kSlowTickSpins) {
      // Past step 1 the condition is not flipping soon: cede the core so
      // the peer this wait depends on can run.
      std::this_thread::yield();
      return false;
    }
    attempts_ = 0;
    ++ticks_;
    return true;
  }

  /// The yield burst after the caller's slow-path checks passed; doubles
  /// up to kMaxYieldBurst.
  void idle() noexcept {
    for (std::uint32_t i = 0; i < burst_; ++i) std::this_thread::yield();
    burst_ = burst_ < kMaxYieldBurst ? burst_ * 2 : kMaxYieldBurst;
  }

  /// Slow ticks elapsed since construction (bookkeeping runs).
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }

  /// Yields the next idle() will spend.
  [[nodiscard]] std::uint32_t burst() const noexcept { return burst_; }

 private:
  std::uint32_t attempts_ = 0;
  std::uint32_t burst_ = 1;
  std::uint64_t ticks_ = 0;
};

}  // namespace logpc::exec
