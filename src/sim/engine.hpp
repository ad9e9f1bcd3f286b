#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/schedule.hpp"
#include "sim/program.hpp"

/// \file engine.hpp
/// Discrete-event simulator of a LogP machine executing reactive programs.
///
/// The engine realizes the paper's synchronous timing assumptions: every
/// message incurs the full latency L, sends cost o at the sender and o at
/// the receiver, and successive sends (receives) at one processor are at
/// least g apart.  Its output is an ordinary Schedule, so the independent
/// validator can audit exactly what the simulated machine did — the tests
/// close the loop engine -> schedule -> checker.

namespace logpc::sim {

/// Result of a simulation run.
struct RunResult {
  Schedule schedule;           ///< every transmission the machine performed
  Time makespan = 0;           ///< last cycle any item became available
  std::size_t messages = 0;    ///< total transmissions
  bool horizon_reached = false;  ///< true if stopped by the time horizon
};

/// A LogP machine instance: install one Program per processor, place initial
/// items, run.
class Engine {
 public:
  Engine(Params params, int num_items);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] const Params& params() const;

  /// Installs the program for processor `p` (default: inert program).
  void set_program(ProcId p, std::unique_ptr<Program> program);

  /// Makes `item` available at `proc` from cycle `time` (delivered to the
  /// program as an on_item event).
  void place(ItemId item, ProcId proc, Time time = 0);

  /// Runs until no events remain or `horizon` is passed (kNever = no limit).
  /// May be called once per engine.
  RunResult run(Time horizon = kNever);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace logpc::sim
