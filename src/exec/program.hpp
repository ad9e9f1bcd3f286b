#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bcast/reduction.hpp"
#include "sched/schedule.hpp"
#include "sum/summation_tree.hpp"
#include "validate/checker.hpp"

/// \file program.hpp
/// Instruction compilation: lowering a planned collective — a `Schedule`,
/// a `bcast::ReductionPlan` or a `sum::SummationPlan` — into one in-order
/// instruction stream per logical processor, ready for exec::Engine to run
/// on real threads.
///
/// Per processor, the stream is the plan's events in plan-time order:
/// receives keyed by the cycle their payload becomes available, sends by
/// their start cycle (a receive sorts first on ties, since a send at cycle
/// t may forward an item that becomes available exactly at t).  Because a
/// valid LogP schedule's dependency graph is acyclic in plan time, and the
/// mailbox bound equals the model's capacity constraint, executing these
/// streams with blocking sends/receives cannot deadlock however the real
/// threads race.
///
/// Three value semantics, one per planner output family:
///  * kMove  — broadcast-shaped plans (bcast, k-item, scatter, gather,
///             all-to-all): a receive copies the payload into the local
///             item slot, a send transmits the slot verbatim;
///  * kFold  — message reduction (Section 4.2): every receive folds the
///             incoming partial value into the local accumulator in
///             arrival order, the single send transmits the accumulator;
///  * kSum   — Section 5 summation: local operand chunks (kCombineLocal,
///             sized by sum::operand_layout) interleave with receptions
///             exactly as Lemma 5.1 times them, so any associative — even
///             non-commutative — operator folds in combination_order.

namespace logpc::runtime {
class ImplicitPlan;
struct Plan;
}  // namespace logpc::runtime

namespace logpc::exec {

enum class Mode : std::uint8_t { kMove, kFold, kSum };

enum class OpCode : std::uint8_t {
  kSend,          ///< push the item slot (kMove) or accumulator to `peer`
  kRecv,          ///< blocking pop from `peer`; store or fold per Mode
  kCombineLocal,  ///< kSum only: fold the next `count` local operands
};

/// One step of a processor's stream.  `when` is the planned cycle (send
/// start / payload-available time) — carried for reporting and the
/// predicted-vs-measured comparison, never for pacing.
struct Instr {
  OpCode op = OpCode::kSend;
  ProcId peer = kNoProc;   ///< send: destination; recv: source
  ItemId item = 0;         ///< slot to send / item expected on arrival
  std::int32_t count = 0;  ///< kCombineLocal: operands to fold
  std::int32_t link = -1;  ///< mailbox index (kSend/kRecv)
  Time when = 0;           ///< planned cycle of the event
  /// kRecv drain hint: this receive plus the count of immediately
  /// following receives on the same link (>= 1).  The engine's bulk drain
  /// pops at most `chain` messages in one acquire/release round — only
  /// what this stream consumes back-to-back anyway, so the mailbox bound
  /// keeps its capacity-constraint meaning.  Computed at compile time.
  std::int32_t chain = 1;
};

/// One directed processor pair with traffic, i.e. one mailbox.
struct Link {
  ProcId from = kNoProc;
  ProcId to = kNoProc;
};

struct ProcProgram {
  ProcId proc = kNoProc;
  std::int32_t sum_index = -1;    ///< kSum: index into SummationPlan::procs
  std::size_t num_operands = 0;   ///< kSum: local operands this proc folds
  std::vector<Instr> instrs;
};

/// A compiled collective: everything Engine::run needs, decoupled from the
/// planner types it was lowered from.
struct Program {
  Params params;                  ///< machine the plan was stated on
  Mode mode = Mode::kMove;
  std::string label;              ///< "bcast", "alltoall", ... (telemetry)
  int num_items = 1;              ///< item-id space (kMove slot count)
  Time predicted_makespan = 0;    ///< the plan's exact completion, cycles
  std::size_t num_messages = 0;
  std::vector<ProcProgram> procs;          ///< size params.P
  std::vector<Link> links;                 ///< mailbox directory
  std::vector<InitialPlacement> initials;  ///< kMove: pre-filled slots

  /// The receive sequence each processor will log when execution follows
  /// the plan — the expected side of validate::check_delivery_order.
  [[nodiscard]] std::vector<std::vector<validate::DeliveryRecord>>
  expected_deliveries() const;
};

/// Lowers a cached plan: the one Plan -> Program entry point every serving
/// path goes through.  The plan's problem alone picks the value semantics
/// and the telemetry label:
///
///   broadcast, binomial, binary, chain  kMove  "bcast"
///   k-item                              kMove  "bcast-seg"
///   hierarchical                        kMove  "bcast-hier"
///   reduce                              kFold  "reduce"
///   all-to-all                          kMove  "allgather" (k = 1),
///                                              "alltoall" otherwise
///   summation                           kSum   "summation"
///
/// The implicit generator form is lowered when the plan carries one
/// (compile_implicit), the materialized schedule otherwise.  Summation is
/// always lowered from its decoder (built from the key if the plan lacks
/// one), since the cached schedule is only its timing view.
/// predicted_makespan is plan.completion.  A k-item plan is root-
/// normalized (root 0); serving another root is relabel_swapped's job.
/// Throws std::invalid_argument for problems with no execution semantics
/// (scatter, gather, the buffered, personalized, combining and flat
/// schedules, the k-item baselines) and for masked summation keys.
[[nodiscard]] Program compile(const runtime::Plan& plan);

// --- per-IR lowerings --------------------------------------------------
// What compile() dispatches to; public as the reference lowerings the
// equivalence tests compare against.

/// Lowers a move-semantics schedule (broadcast, k-item, scatter, gather,
/// all-to-all, personalized).  Throws std::invalid_argument if a processor
/// would send an item it cannot hold yet — a plan bug the compiler refuses
/// to turn into a hang.
[[nodiscard]] Program compile_broadcast(const Schedule& s,
                                        std::string label = "bcast");

/// Lowers a message reduction: receives fold, the final send carries the
/// accumulator.  Fold order per processor is arrival order, matching
/// bcast::execute_reduction.
[[nodiscard]] Program compile_reduction(const bcast::ReductionPlan& plan);

/// Lowers an implicit plan from one top-down walk over its tree edges
/// (ImplicitPlan::edge_sends) — no materialized Schedule, no per-rank
/// decode.  Produces instruction streams identical, processor by processor
/// and instruction by instruction, to compile_broadcast /
/// compile_reduction run on the materialized schedule for the same key.
/// Link *indices* differ — one link per tree edge, numbered in walk order
/// rather than global send order — but the link endpoints, stream order
/// and timings agree, so engine results are byte-identical.  A summation
/// plan lowers to exactly compile_summation(sum::optimal_summation(...))'s
/// program, link ids included, with the same checks.  `label` defaults to
/// "bcast" / "reduce" / "summation" by plan kind.
[[nodiscard]] Program compile_implicit(const runtime::ImplicitPlan& plan,
                                       std::string label = {});

/// Lowers a summation plan: local chunks from sum::operand_layout
/// interleave with receptions; processors outside plan.procs get empty
/// streams.  Links are numbered in first-use order (each participant sends
/// at most once, so its sender names its link).  Throws
/// std::invalid_argument when a local chunk exceeds INT32_MAX operands
/// (Instr::count) or a processor would send to two peers.
[[nodiscard]] Program compile_summation(const sum::SummationPlan& plan);

/// Relabels a compiled program by swapping processors `a` and `b`:
/// instruction streams, link endpoints and initial placements all move
/// together, so the relabeled program executes the same schedule with the
/// two ranks' roles exchanged.  This is how a root-normalized plan serves
/// an arbitrary root — the k-item cache keys pin root = 0 (the schedule
/// shape is root-invariant), and the serving layer swaps 0 with the
/// requested root at compile time instead of splitting the plan cache.
/// Throws std::invalid_argument when either rank is out of range.
[[nodiscard]] Program relabel_swapped(Program program, ProcId a, ProcId b);

}  // namespace logpc::exec
