#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bcast/reduction.hpp"
#include "sched/schedule.hpp"
#include "sum/summation_tree.hpp"

/// \file program.hpp
/// Instruction compilation: lowering a planned collective — a `Schedule`,
/// a `bcast::ReductionPlan` or a `sum::SummationPlan` — into one in-order
/// instruction stream per logical processor, ready for exec::Engine to run
/// on real threads.
///
/// Layout: the streams of all P ranks live back to back in ONE flat
/// `Instr` array (compressed sparse rows: P + 1 offsets, rank p's stream
/// is [offsets[p], offsets[p + 1])), so a Program holds a fixed number of
/// heap blocks whatever P is.  Every lowering counts each rank's
/// instructions first and then fills the array in place
/// (ProcStreams::build).  An instruction names its mailbox, not its peer:
/// the peer is that link's other endpoint (Program::peer).
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
  kSend,          ///< push the item slot (kMove) or accumulator on `link`
  kRecv,          ///< blocking pop from `link`; store or fold per Mode
  kCombineLocal,  ///< kSum only: fold the next `count` local operands
};

/// One step of a processor's stream, 24 bytes.  `when` is the planned
/// cycle (send start / payload-available time) — carried for reporting and
/// the predicted-vs-measured comparison, never for pacing.
struct Instr {
  OpCode op = OpCode::kSend;
  ItemId item = 0;         ///< slot to send / item expected on arrival
  std::int32_t link = -1;  ///< mailbox index (kSend/kRecv); its endpoints
                           ///< name the peer
  /// By opcode:
  ///  * kCombineLocal — local operands to fold;
  ///  * kRecv — drain chain: this receive plus the count of immediately
  ///    following receives on the same link (>= 1).  The engine's bulk
  ///    drain pops at most that many messages in one acquire/release
  ///    round — only what this stream consumes back-to-back anyway, so
  ///    the mailbox bound keeps its capacity-constraint meaning.
  ///    Computed at compile time;
  ///  * kSend — 0.
  std::int32_t count = 0;
  Time when = 0;           ///< planned cycle of the event

  friend bool operator==(const Instr&, const Instr&) = default;
};
static_assert(sizeof(Instr) <= 24, "Instr is a 24-byte stream record");

/// One directed processor pair with traffic, i.e. one mailbox.
struct Link {
  ProcId from = kNoProc;
  ProcId to = kNoProc;

  friend bool operator==(const Link&, const Link&) = default;
};

/// One rank's slice of a Program, returned by value: `instrs` views the
/// program's flat instruction array, so it stays valid for as long as that
/// Program lives unmodified (copies and moves of the Program carry their
/// own arrays).
struct ProcProgram {
  ProcId proc = kNoProc;
  std::int32_t sum_index = -1;    ///< kSum: index into SummationPlan::procs
  std::size_t num_operands = 0;   ///< kSum: local operands this proc folds
  std::span<const Instr> instrs;
};

/// The per-rank instruction streams of a Program in CSR form: one flat
/// `Instr` array, P + 1 offsets, and — for kSum only — the parallel
/// sum_index / num_operands arrays (empty otherwise, read as -1 / 0).
/// Indexing and iteration yield ProcProgram views.
class ProcStreams {
 public:
  /// Walks the ranks, yielding each one's view.
  class iterator {
   public:
    iterator(const ProcStreams* streams, std::size_t p)
        : streams_(streams), p_(p) {}
    ProcProgram operator*() const { return (*streams_)[p_]; }
    iterator& operator++() {
      ++p_;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    const ProcStreams* streams_;
    std::size_t p_;
  };

  ProcStreams() = default;

  /// The constructor every lowering uses: `walk(emit)` must call
  /// `emit(rank, instr)` for each instruction of ranks [0, P), every rank's
  /// in stream order.  It runs twice — once to count each rank's
  /// instructions, once to write them into their slots of the flat array —
  /// so it must emit the same sequence both times.
  template <class Walk>
  [[nodiscard]] static ProcStreams build(std::size_t P, Walk&& walk);

  [[nodiscard]] std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] ProcProgram operator[](std::size_t p) const {
    return ProcProgram{static_cast<ProcId>(p),
                       sum_index_.empty() ? -1 : sum_index_[p],
                       num_operands_.empty() ? 0 : num_operands_[p],
                       std::span<const Instr>(instrs_).subspan(
                           offsets_[p], offsets_[p + 1] - offsets_[p])};
  }
  [[nodiscard]] iterator begin() const { return iterator(this, 0); }
  [[nodiscard]] iterator end() const { return iterator(this, size()); }

  /// Every rank's stream, back to back in rank order.
  [[nodiscard]] std::span<const Instr> instrs() const { return instrs_; }
  /// Rank `p`'s stream, for in-place passes over a built program.
  [[nodiscard]] std::span<Instr> stream(std::size_t p) {
    return std::span<Instr>(instrs_).subspan(offsets_[p],
                                             offsets_[p + 1] - offsets_[p]);
  }

  /// kSum: installs the parallel per-rank arrays — each rank's plan
  /// participant index (-1: idle) and local operand count.  Both size P.
  void set_operands(std::vector<std::int32_t> sum_index,
                    std::vector<std::size_t> num_operands);

  /// Exchanges the streams (and kSum entries) of ranks `a` and `b` in
  /// place, shifting the streams between them.
  void swap_ranks(std::size_t a, std::size_t b);

 private:
  std::vector<Instr> instrs_;
  std::vector<std::size_t> offsets_;      ///< size P + 1
  std::vector<std::int32_t> sum_index_;   ///< kSum: size P, else empty
  std::vector<std::size_t> num_operands_; ///< kSum: size P, else empty
};

template <class Walk>
ProcStreams ProcStreams::build(std::size_t P, Walk&& walk) {
  ProcStreams s;
  s.offsets_.assign(P + 1, 0);
  walk([&s](ProcId p, const Instr&) {
    ++s.offsets_[static_cast<std::size_t>(p) + 1];
  });
  // offsets_[p + 1] becomes rank p's first slot, then its write cursor:
  // once every rank is written it has advanced to the rank's end, which
  // is rank p + 1's first slot.
  std::size_t total = 0;
  for (std::size_t p = 1; p <= P; ++p) {
    const std::size_t n = s.offsets_[p];
    s.offsets_[p] = total;
    total += n;
  }
  s.instrs_.resize(total);
  walk([&s](ProcId p, const Instr& ins) {
    s.instrs_[s.offsets_[static_cast<std::size_t>(p) + 1]++] = ins;
  });
  return s;
}

/// A compiled collective: everything Engine::run needs, decoupled from the
/// planner types it was lowered from.  A value type: copies and moves own
/// their arrays, views taken from `procs` belong to the object they came
/// from.
struct Program {
  Params params;                  ///< machine the plan was stated on
  Mode mode = Mode::kMove;
  std::string label;              ///< "bcast", "alltoall", ... (telemetry)
  int num_items = 1;              ///< item-id space (kMove slot count)
  Time predicted_makespan = 0;    ///< the plan's exact completion, cycles
  std::size_t num_messages = 0;
  ProcStreams procs;                       ///< size params.P
  std::vector<Link> links;                 ///< mailbox directory
  std::vector<InitialPlacement> initials;  ///< kMove: pre-filled slots

  /// The other end of a send's or receive's link: the destination of a
  /// kSend, the source of a kRecv; kNoProc for kCombineLocal.
  [[nodiscard]] ProcId peer(const Instr& ins) const {
    if (ins.op == OpCode::kCombineLocal) return kNoProc;
    const Link& l = links[static_cast<std::size_t>(ins.link)];
    return ins.op == OpCode::kSend ? l.to : l.from;
  }
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
