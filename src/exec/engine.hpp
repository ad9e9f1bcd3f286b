#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/context.hpp"
#include "exec/kernels.hpp"
#include "exec/mailbox.hpp"
#include "exec/program.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault.hpp"
#include "validate/checker.hpp"

/// \file engine.hpp
/// The shared-memory execution engine: runs a compiled Program on a pool
/// of OS threads — one logical LogP processor per worker — moving real
/// payload bytes through one bounded lock-free mailbox per directed link.
///
/// An Engine is two halves: a *persistent worker-pool resource* (the
/// ThreadPool plus a warm RunContext of mailboxes, ack rings and drain
/// queues, kept alive across runs) and a *cheap per-run execution context*
/// (RunContext::prepare rewinds rather than rebuilds when consecutive runs
/// share a shape).  Back-to-back runs on one engine therefore pay neither
/// thread spawn/join nor per-link allocation — ExecReport::warm_pool /
/// warm_buffers record which path a run took, and svc::CollectiveService
/// keeps a small set of such engines as its persistent pools.
///
/// A run is three pieces.  *Staging*: each public run() validates its
/// inputs and lays out where the payload lives — kMove sizes every result
/// buffer the plan touches inside ExecReport::items before the workers
/// start, so deliveries memcpy straight into place; kFold/kSum fold into
/// ExecReport::folded.  *One worker loop* runs each processor's send,
/// receive and combine-local instructions against that staging.  *Two
/// deliveries* move the messages: the fault-free one pushes and pops (or
/// bulk-drains a receive chain), the acked one below adds the protocol.
///
/// Execution is as-fast-as-possible: planned cycles order each stream but
/// never pace it.  The model's constraints survive as *structure* — the
/// per-processor instruction order, the per-link FIFO, and the mailbox
/// bound of ceil(L/g) messages (the capacity constraint) — so a run is the
/// plan's dependency graph executed raw, and the returned timestamps are
/// what exec::measure() fits effective (L, o, g) from.
///
/// Every run records one log, the per-processor send/recv events
/// (ExecReport::events); the observed delivery sequence is its projection
/// onto receives (ExecReport::deliveries(), cross-checkable with
/// validate::check_delivery_order).  A run also increments the
/// logpc_exec_* metrics and wraps itself plus each worker in obs spans, so
/// executions land in the Chrome-trace exporter next to sim::Trace
/// timelines.
///
/// Fault tolerance: pass a fault::Injector to run() (or construct the
/// engine with Options::acked) and the engine switches every link to *acked
/// delivery*: messages carry per-link sequence numbers, receivers
/// acknowledge acceptance on a reverse ring, and receivers discard
/// retransmitted duplicates exactly-once.  Acks are asynchronous: a send
/// records its message as unacked and moves on, and the sender services
/// its unacked messages — draining acks, retransmitting after a timeout
/// with exponential backoff — in every wait it makes and before its worker
/// returns, so ranks that send to each other before receiving cannot
/// deadlock.  A rank whose heartbeat freezes while a peer waits on it is
/// declared dead: the run aborts with RankFailure naming the rank, all
/// workers are signalled, joined at the epoch barrier, and every mailbox is
/// drained before the error returns — api::Communicator::run_broadcast_ft
/// catches it and re-plans over the survivors.  Without an injector and
/// without Options::acked, the fault-free delivery runs and none of this
/// protocol is compiled into its loop.
///
/// An engine has one configuration: the model's mailbox capacity, one idle
/// strategy for every blocking wait (exec/wait.hpp), occupancy tracking on
/// every ring, and fixed acked-delivery timings (engine.cpp).  Options
/// holds only the watchdog budget and the acked-delivery switch.

namespace logpc::exec {

struct Staging;  // a run's payload layout, private to engine.cpp

// Bytes, CombineFn and the typed-kernel Combiner live in exec/kernels.hpp;
// this header re-exports them through its include for source compatibility.

/// One timed operation on one processor.  Timestamps are nanoseconds on
/// the steady clock, relative to the run's start.
struct ExecEvent {
  enum class Kind : std::uint8_t { kSend, kRecv };
  Kind kind = Kind::kSend;
  ProcId peer = kNoProc;
  ItemId item = 0;
  std::uint64_t start_ns = 0;  ///< op begin (includes any blocking wait)
  std::uint64_t xfer_ns = 0;   ///< send: push accepted; recv: payload arrived
  std::uint64_t end_ns = 0;    ///< payload copied / folded, op complete
  Time planned = 0;            ///< planned cycle of this event
};

/// Thrown by Engine::run when the failure detector declares a rank dead:
/// a peer waited past the retry budget while the rank's heartbeat stayed
/// frozen.  The recovery layer excludes rank() and re-plans; everyone else
/// treats it as the runtime_error it is.
class RankFailure : public std::runtime_error {
 public:
  RankFailure(ProcId rank, const std::string& what)
      : std::runtime_error(what), rank_(rank) {}
  [[nodiscard]] ProcId rank() const { return rank_; }

 private:
  ProcId rank_;
};

/// Everything a run produced: result buffers, measured timestamps, the
/// observed delivery order, and the run-level tallies.
struct ExecReport {
  Params params;
  Mode mode = Mode::kMove;
  std::string label;
  Time predicted_makespan = 0;     ///< plan cycles
  std::uint64_t wall_ns = 0;       ///< measured makespan, dispatch to barrier
  std::size_t messages = 0;
  std::size_t payload_bytes = 0;   ///< bytes moved through mailboxes
  std::size_t mailbox_capacity = 0;
  std::size_t max_mailbox_occupancy = 0;  ///< high-water mark over all links
  std::size_t retries = 0;     ///< retransmissions under acked delivery
  std::size_t duplicates = 0;  ///< retransmitted copies discarded exactly-once
  std::size_t kernel_folds = 0;   ///< folds taken by the typed SIMD kernel
  std::size_t generic_folds = 0;  ///< folds through the type-erased lane
  /// True when the run dispatched onto already-resident worker threads: no
  /// OS thread was spawned on the request path.  A fresh engine's first
  /// run (or the first run after a growth in P) is a cold start; every
  /// same-or-smaller run after it — and every run after prewarm(P) —
  /// reports true.  The service's persistent engine pools regression-
  /// assert this stays true under sustained traffic.
  bool warm_pool = false;
  /// True when the run reused the engine's RunContext warm: same shape as
  /// the previous run, so mailboxes, ack rings, drain queues and heartbeat
  /// slots were recycled with zero allocation.  (Result buffers are the
  /// report's own and are allocated per run.)
  bool warm_buffers = false;
  /// Per-processor event logs, in stream order.  Guarantee (asserted after
  /// every run): `events[p]` is non-decreasing in start_ns — in fact each
  /// op completes before the next begins (start_ns[i+1] >= end_ns[i]),
  /// because one worker thread records its events sequentially on the
  /// steady clock.  obs::analyze() builds the causal DAG on top of this.
  std::vector<std::vector<ExecEvent>> events;  ///< [proc], in stream order
  /// Injected faults, per processor in injection order.  Decisions are
  /// deterministic in the fault seed, so two same-seed runs produce equal
  /// logs (duplicate discards, which depend on retransmit timing, are
  /// counted in `duplicates` instead).
  std::vector<std::vector<fault::FaultEvent>> fault_events;
  std::vector<std::vector<Bytes>> items;  ///< kMove results: [proc][item]
  std::vector<Bytes> folded;  ///< kFold/kSum accumulators: [proc]

  /// The observed delivery sequence, [proc]: the (peer, item) of every
  /// receive event in `events`, in stream order — what
  /// validate::check_delivery_order and check_exactly_once take.
  [[nodiscard]] std::vector<std::vector<validate::DeliveryRecord>>
  deliveries() const;

  /// kMove: processor p's copy of `item`.
  [[nodiscard]] const Bytes& item_at(ProcId p, ItemId item) const {
    return items[static_cast<std::size_t>(p)][static_cast<std::size_t>(item)];
  }
  /// kFold/kSum: processor p's final accumulator (the collective's result
  /// when p is the root).
  [[nodiscard]] const Bytes& folded_at(ProcId p) const {
    return folded[static_cast<std::size_t>(p)];
  }
};

/// A coalesced k-item run: one logical payload executed through a k-item
/// (segmented) kMove program.  The engine splits `payload` into
/// `segments` near-equal contiguous ranges (sizes differing by at most
/// one byte, longer segments first — the same split svc::split_segments
/// produces), seeds the plan's initial placements straight from the
/// spans, and delivers every received segment *in place* into one
/// contiguous per-processor result buffer: ExecReport::items[p] holds a
/// single Bytes equal to the whole payload — byte-identical to what a
/// bulk single-item run of the same payload would report — instead of k
/// per-segment buffers.  That removes the caller's split/concat copies, so
/// a segmented run pays no more serial memcpy than a bulk one.
struct SegmentRun {
  std::span<const std::byte> payload;
  int segments = 1;  ///< must equal the program's num_items
};

class Engine {
 public:
  struct Options {
    /// Abort a run whose blocking wait exceeds this (a plan or engine bug
    /// must fail loudly, not hang the pool).  The clock starts when the
    /// run is dispatched, not while it queues behind another run.
    std::uint64_t timeout_ms = 20000;
    /// Run every link under acked delivery even without a fault::Injector
    /// (which turns it on by itself).  Its timings are fixed: first
    /// retransmit after 200 µs, doubling for 6 steps up to 5 ms, and a
    /// peer whose heartbeat stays frozen for 25 ms is declared dead.
    bool acked = false;
  };

  Engine() = default;
  explicit Engine(Options options) : opts_(options) {}

  /// kMove: `item_values[i]` is item i's payload (sizes may differ per
  /// item).  Every processor named in an initial placement starts with its
  /// items seeded; on return every processor's slots hold what the plan
  /// delivered.  `injector` (optional, non-owning, must outlive the call)
  /// enables fault injection plus the acked-delivery protocol.
  ExecReport run(const Program& program, const std::vector<Bytes>& item_values,
                 const fault::Injector* injector = nullptr);

  /// kMove, segmented: `seg.payload` split into `seg.segments` contiguous
  /// ranges executed through a k-item program, results coalesced back into
  /// one contiguous buffer per processor (see SegmentRun).  Requires a
  /// kMove program with num_items == seg.segments and a non-empty payload.
  /// (A named method, not a run() overload: SegmentRun aggregate-converts
  /// from a payload span, which would make `run(prog, {payload})` at the
  /// existing kMove call sites ambiguous.)
  ExecReport run_segmented(const Program& program, const SegmentRun& seg,
                           const fault::Injector* injector = nullptr);

  /// kFold: `values[p]` is processor p's initial value; receives fold with
  /// `op` in arrival order.  The root's accumulator is the result.  A
  /// typed Combiner (constructed from a KernelSpec) takes the fused SIMD
  /// lane on every size-matched fold; a plain CombineFn converts to the
  /// fully generic path.
  ExecReport run(const Program& program, const std::vector<Bytes>& values,
                 const Combiner& op, const fault::Injector* injector = nullptr);

  /// kSum: `operands[i]` are the local operands of plan.procs[i] (counts
  /// must match sum::operand_layout; throws otherwise), folded with `op` in
  /// the plan's combination order.
  ExecReport run(const Program& program,
                 const std::vector<std::vector<Bytes>>& operands,
                 const Combiner& op, const fault::Injector* injector = nullptr);

  /// The process-wide engine api::Communicator's run_* entry points use by
  /// default.
  ///
  /// Thread-safety contract (all engines, enforced by run_mu_): run() may
  /// be called from any number of threads concurrently; runs serialize on
  /// the engine's run mutex, each getting its full watchdog budget from
  /// dispatch (not from when it started queueing).  Options are fixed at
  /// construction and immutable afterwards — there is deliberately no
  /// setter, so a run never observes a torn options struct and the shared
  /// engine always carries the defaults.  Callers needing acked delivery
  /// or a shorter watchdog construct their own Engine.
  static Engine& shared();

  /// Pre-spawns `procs` worker threads so the first real run dispatches
  /// warm (ExecReport::warm_pool).  A service brings its pools up with
  /// this before opening admission.
  void prewarm(int procs);

  /// The immutable options this engine was constructed with.
  [[nodiscard]] const Options& options() const { return opts_; }

  [[nodiscard]] ThreadPool& pool() { return pool_; }

 private:
  /// Runs `program` against `staging` (built by the public run() that
  /// validated its inputs) and fills in `report`.
  ExecReport execute(const Program& program, ExecReport report,
                     const Staging& staging, const fault::Injector* injector);

  Options opts_;
  ThreadPool pool_;
  /// Serializes runs on this engine *before* the watchdog clock starts, so
  /// a run queued behind a long one gets its full timeout budget.
  std::mutex run_mu_;
  /// Warm per-run resources, reused across same-shape runs (guarded by
  /// run_mu_ — exactly one run touches it at a time).
  RunContext ctx_;
};

}  // namespace logpc::exec
