#include "exec/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "exec/wait.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"

namespace logpc::exec {

/// Where one run's payload lives while its workers run.  kMove: `slots`
/// points every (processor, item) the plan touches at its final bytes
/// inside ExecReport::items, sized before the workers start, so a delivery
/// is one memcpy into place and the report needs no publication pass.
/// kFold/kSum: the accumulators are ExecReport::folded; kSum also folds
/// each processor's local `operands`.
struct Staging {
  std::size_t num_items = 0;
  std::vector<std::span<std::byte>> slots;  ///< kMove: [proc * num_items + item]
  const std::vector<std::vector<Bytes>>* operands = nullptr;  ///< kSum
  const Combiner* op = nullptr;  ///< kFold / kSum
};

namespace {

using Clock = std::chrono::steady_clock;

// Acked-delivery timings: sub-millisecond retransmits, tens of
// milliseconds to a death verdict.
/// First retransmit of an unacked message after this long.
constexpr std::chrono::microseconds kAckTimeout{200};
/// Each retransmit multiplies the wait by this ...
constexpr int kBackoffFactor = 2;
/// ... for this many ramp steps, then resends at a steady cadence ...
constexpr int kBackoffSteps = 6;
/// ... never slower than this.
constexpr std::chrono::microseconds kMaxBackoff{5000};
/// A peer whose heartbeat has not moved for this long — while someone is
/// blocked on it — is declared dead.
constexpr std::chrono::milliseconds kSuspectAfter{25};

std::uint64_t ns_since(Clock::time_point epoch) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

/// Shared failure latch: the first error wins, everyone else bails out of
/// their spin loops promptly.  `failed_rank` distinguishes a declared rank
/// death (recoverable: run_broadcast_ft re-plans around it) from a plain
/// engine error.
struct Failure {
  std::atomic<bool> abort{false};
  std::atomic<ProcId> failed_rank{kNoProc};
  std::mutex mu;
  std::string message;

  void fail(const std::string& m) {
    {
      std::lock_guard lock(mu);
      if (message.empty()) message = m;
    }
    abort.store(true, std::memory_order_release);
  }

  void fail_rank(ProcId rank, const std::string& m) {
    ProcId expected = kNoProc;
    failed_rank.compare_exchange_strong(expected, rank,
                                        std::memory_order_relaxed);
    fail(m);
  }
};

/// One worker's run-level counters, summed into the report after the
/// pool barrier.
struct Tally {
  std::size_t bytes_moved = 0;
  std::size_t retries = 0;
  std::size_t duplicates = 0;
  std::size_t kernel_folds = 0;
  std::size_t generic_folds = 0;
  std::size_t kernel_bytes = 0;
  std::vector<double> backoffs_ns;  ///< lapsed retransmit waits
};

/// Everything the workers of one run share.  Each worker writes only its
/// own processor's entries of `report` and `tallies`, and only its own
/// side of each link's state in `ctx`.
struct Run {
  const Program& program;
  const Staging& staging;
  ExecReport& report;
  RunContext& ctx;
  const fault::Injector* injector;
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<Tally> tallies;
  Failure failure;

  [[nodiscard]] std::uint64_t now_ns() const { return ns_since(start); }

  /// The one blocking wait: walks the Waiter ladder until `attempt`
  /// succeeds.  Each slow tick checks the watchdog deadline, then runs the
  /// delivery's `tick` bookkeeping, which returns false to give up.
  template <class Attempt, class Tick>
  bool block(int wi, Attempt&& attempt, Tick&& tick) {
    Waiter w;
    while (!attempt()) {
      if (failure.abort.load(std::memory_order_acquire)) return false;
      if (w.should_tick()) {
        if (Clock::now() > deadline) {
          failure.fail("exec::Engine: timeout at P" + std::to_string(wi) +
                       " (" + program.label + ")");
          return false;
        }
        if (!tick()) return false;
        w.idle();
      }
    }
    return true;
  }
};

/// Fault-free delivery: a send is one push, a receive one pop — or, on a
/// receive chain, one bulk drain of what the producer already queued.
/// Slow ticks check only the watchdog.
class Direct {
 public:
  Direct(Run& run, int wi) : run_(run), wi_(wi) {}

  bool step(std::size_t /*instr_index*/) { return true; }

  bool send(const Instr& ins, const Message& m) {
    SpscMailbox& mb = *run_.ctx.mailboxes[static_cast<std::size_t>(ins.link)];
    return run_.block(wi_, [&] { return mb.try_push(m); }, [] { return true; });
  }

  bool recv(const Instr& ins, Message& m) {
    const auto link = static_cast<std::size_t>(ins.link);
    SpscMailbox& mb = *run_.ctx.mailboxes[link];
    auto pop = [&] {
      return run_.block(wi_, [&] { return mb.try_pop(m); }, [] { return true; });
    };
    // Drain every message this stream consumes back-to-back on this link
    // (a receive's Instr::count) in one bulk pop — one acquire/release round for the
    // whole batch instead of one per message.  Unchained receives (chain
    // <= 1, e.g. all-to-all's rotating links) take a plain pop: a
    // single-message bulk pop adds queue bookkeeping on top of the same
    // ring round-trip.
    PendingQ& pq = run_.ctx.pending[link];
    if (pq.head < pq.buf.size()) {
      m = pq.buf[pq.head++];
      return true;
    }
    if (ins.count <= 1) return pop();
    // Chained receive with nothing pending: block for the head message
    // exactly like the unchained path (a drip-feeding pipeline pays
    // nothing over a plain pop), then claim whatever the producer already
    // queued behind it — up to the rest of the chain — in one bulk pop.
    if (!pop()) return false;
    pq.buf.clear();
    pq.head = 0;
    (void)mb.pop_bulk(pq.buf, static_cast<std::size_t>(ins.count) - 1);
    return true;
  }

  void finish() {}

 private:
  Run& run_;
  int wi_;
};

/// Acked delivery, taken when a run has a fault::Injector or the engine
/// has Options::acked.  Messages carry per-link sequence numbers; the
/// receiver accepts exactly the next one, acks it on the reverse ring and
/// discards everything else (duplicates re-acked, later ones resent by
/// their sender).  A send records its message as unacked and moves on;
/// every wait this rank makes — and a last one before its worker returns
/// — services those: drain acks, retransmit on the backoff timer, suspect
/// the peer.  Heartbeats feed the failure detector, and the injector's
/// delay / drop / slow / dead hooks act here and nowhere else.
class Acked {
 public:
  Acked(Run& run, int wi)
      : run_(run),
        ctx_(run.ctx),
        inj_(run.injector),
        wi_(wi),
        p_(static_cast<std::size_t>(wi)),
        rank_(static_cast<ProcId>(wi)),
        events_(run.report.fault_events[p_]),
        tally_(run.tallies[p_]),
        slow_(inj_ != nullptr && inj_->is_slow(rank_)) {
    if (slow_ && !run.program.procs[p_].instrs.empty()) {
      events_.push_back(
          fault::FaultEvent{fault::FaultKind::kSlow, rank_, kNoProc, 0});
    }
  }

  bool step(std::size_t instr_index) {
    beat();
    if (inj_ != nullptr && inj_->dies_at(rank_, instr_index)) {
      // Crash-stop: no more sends, receives, acks, or heartbeats.  The
      // peers' failure detectors take it from here.
      events_.push_back(fault::FaultEvent{fault::FaultKind::kDead, rank_,
                                          kNoProc, instr_index});
      return false;
    }
    return !slow_ || stall(inj_->slow_stall_ns());
  }

  bool send(const Instr& ins, Message m) {
    const auto link = static_cast<std::size_t>(ins.link);
    const ProcId peer = run_.program.links[link].to;
    m.seq = ++ctx_.send_seq[link];
    const std::uint64_t delay =
        inj_ != nullptr ? inj_->send_delay_ns(rank_, ins.link, m.seq) : 0;
    if (delay > 0) {
      events_.push_back(
          fault::FaultEvent{fault::FaultKind::kDelay, rank_, peer, m.seq});
      if (!stall(delay)) return false;
    }
    SpscMailbox& mb = *ctx_.mailboxes[link];
    if (!wait_on(peer, [&] { return mb.try_push(m); })) return false;
    unacked_.push_back(Unacked{link, peer, m, watch_of(peer),
                               kAckTimeout, Clock::now() + kAckTimeout,
                               kBackoffSteps});
    return true;
  }

  bool recv(const Instr& ins, Message& m) {
    const auto link = static_cast<std::size_t>(ins.link);
    const ProcId peer = run_.program.links[link].from;
    SpscMailbox& mb = *ctx_.mailboxes[link];
    AckRing& ar = *ctx_.acks[link];
    const std::uint64_t expect = ctx_.accepted[link] + 1;
    for (;;) {
      if (!wait_on(peer, [&] { return mb.try_pop(m); })) return false;
      if (m.seq < expect) {
        // A retransmitted copy of a message already accepted: discard
        // exactly-once, re-ack best-effort so the sender stops resending.
        ++tally_.duplicates;
        ar.try_push(ctx_.accepted[link]);
        continue;
      }
      // A later message overtook one this rank dropped: discard it too,
      // its sender resends it after the missing one (go-back-N).
      if (m.seq > expect) continue;
      const std::uint64_t attempt = ++ctx_.attempts[link];
      if (inj_ != nullptr &&
          inj_->drop_delivery(rank_, ins.link, m.seq, attempt)) {
        // Discarded in transit: no ack, so the sender retransmits.
        events_.push_back(
            fault::FaultEvent{fault::FaultKind::kDrop, rank_, peer, m.seq});
        continue;
      }
      break;
    }
    ctx_.accepted[link] = m.seq;
    ctx_.attempts[link] = 0;
    return wait_on(peer, [&] { return ar.try_push(ctx_.accepted[link]); });
  }

  /// Before the worker returns: wait until every send is acked.
  void finish() {
    (void)run_.block(
        wi_, [&] { beat(); return drain(); }, [&] { return service(); });
  }

 private:
  /// Liveness watch on one peer: last observed heartbeat + when it last
  /// moved.
  struct Watch {
    std::uint64_t hb;
    Clock::time_point changed;
  };

  /// A pushed message whose ack has not arrived, with its retransmit
  /// timer.
  struct Unacked {
    std::size_t link;
    ProcId peer;
    Message m;
    Watch watch;
    std::chrono::microseconds backoff;
    Clock::time_point next_retx;
    int retries_left;
  };

  void beat() { ctx_.hearts[p_].v.fetch_add(1, std::memory_order_relaxed); }

  Watch watch_of(ProcId peer) const {
    return Watch{ctx_.hearts[static_cast<std::size_t>(peer)].v.load(
                     std::memory_order_relaxed),
                 Clock::now()};
  }

  /// Accuses `peer` dead once its heartbeat has stayed frozen for
  /// kSuspectAfter of this rank's waiting on it.
  bool suspect(ProcId peer, Watch& w) {
    const std::uint64_t cur =
        ctx_.hearts[static_cast<std::size_t>(peer)].v.load(
            std::memory_order_relaxed);
    const Clock::time_point now = Clock::now();
    if (cur != w.hb) {
      w.hb = cur;
      w.changed = now;
      return false;
    }
    if (now - w.changed < kSuspectAfter) return false;
    run_.failure.fail_rank(
        peer, "exec::Engine: rank " + std::to_string(peer) +
                  " declared dead (heartbeat frozen while P" +
                  std::to_string(wi_) + " waited on it, " +
                  run_.program.label + ")");
    return true;
  }

  /// A wait on `peer` that keeps this rank's heartbeat moving and, on
  /// every slow tick, suspects the peer and services the unacked sends.
  template <class Attempt>
  bool wait_on(ProcId peer, Attempt&& attempt) {
    Watch watch = watch_of(peer);
    return run_.block(
        wi_, [&] { beat(); return attempt(); },
        [&] { return !suspect(peer, watch) && service(); });
  }

  /// Busy-stall (injected delay / slow-rank stall) that stays alive to the
  /// failure detector and keeps servicing the unacked sends.
  bool stall(std::uint64_t ns) {
    const Clock::time_point until = Clock::now() + std::chrono::nanoseconds(ns);
    return run_.block(
        wi_, [&] { beat(); return Clock::now() >= until; },
        [&] { return service(); });
  }

  /// Drains the acks of every unacked link and forgets what they cover;
  /// true when nothing is left unacked.
  bool drain() {
    std::erase_if(unacked_, [&](const Unacked& u) {
      AckRing& ar = *ctx_.acks[u.link];
      std::uint64_t& acked = ctx_.acked[u.link];
      std::uint64_t a = 0;
      while (ar.try_pop(a)) acked = std::max(acked, a);
      return acked >= u.m.seq;
    });
    return unacked_.empty();
  }

  /// Drain, suspect the peer of each message still unacked, and retransmit
  /// those whose timer lapsed with exponential backoff (kBackoffSteps ramp
  /// steps capped at kMaxBackoff, then a steady cadence) for as long as the
  /// ack is missing.  A copy goes only into an empty ring: a non-empty one
  /// means the receiver has not consumed what is queued yet, so nothing
  /// past it was lost — and copies never crowd out the plan's own messages.
  bool service() {
    drain();
    const Clock::time_point now = Clock::now();
    for (Unacked& u : unacked_) {
      if (suspect(u.peer, u.watch)) return false;
      if (now < u.next_retx) continue;
      tally_.backoffs_ns.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(u.backoff)
              .count()));
      SpscMailbox& mb = *ctx_.mailboxes[u.link];
      if (mb.size() == 0 && mb.try_push(u.m)) ++tally_.retries;
      if (u.retries_left > 0) {
        --u.retries_left;
        u.backoff = std::min(u.backoff * kBackoffFactor, kMaxBackoff);
      }
      u.next_retx = now + u.backoff;
    }
    return true;
  }

  Run& run_;
  RunContext& ctx_;
  const fault::Injector* inj_;
  int wi_;
  std::size_t p_;
  ProcId rank_;
  std::vector<fault::FaultEvent>& events_;
  Tally& tally_;
  bool slow_;
  std::vector<Unacked> unacked_;
};

/// The one worker loop: processor `wi` runs its instruction stream against
/// the run's staging, moving messages through `Delivery`.
template <class Delivery>
void worker(Run& run, int wi) {
  const auto p = static_cast<std::size_t>(wi);
  const Program& program = run.program;
  const ProcProgram& stream = program.procs[p];
  const Staging& staging = run.staging;
  obs::Span span("exec.worker", "exec");
  if (span.active()) {
    span.set_arg("p" + std::to_string(wi) + " " + program.label);
  }
  Delivery net(run, wi);
  Tally& tally = run.tallies[p];

  // kMove reads and writes the item slots; kFold seeds the accumulator
  // with the processor's own value (already in report.folded), kSum
  // starts it empty.  A typed combiner takes the fused kernel on every
  // size-matched fold; anything else — including the first contribution,
  // which is assigned — goes through the generic lane.  The fold ORDER is
  // the instruction stream either way, so non-commutative
  // combination_order survives intact.
  auto slot = [&](ItemId item) {
    return staging.slots[p * staging.num_items + static_cast<std::size_t>(item)];
  };
  Bytes& acc = run.report.folded[p];
  bool acc_have = program.mode == Mode::kFold;
  const KernelFn kernel =
      staging.op != nullptr ? staging.op->kernel() : nullptr;
  auto fold = [&](std::span<const std::byte> rhs) {
    if (!acc_have) {
      acc.assign(rhs.begin(), rhs.end());
      acc_have = true;
      return;
    }
    if (kernel != nullptr && acc.size() == rhs.size()) {
      kernel(acc.data(), rhs.data(), acc.size());
      ++tally.kernel_folds;
      tally.kernel_bytes += rhs.size();
    } else {
      (staging.op->generic())(acc, rhs);
      ++tally.generic_folds;
    }
  };
  std::size_t operand_pos = 0;

  std::vector<ExecEvent>& events = run.report.events[p];
  events.reserve(stream.instrs.size());
  for (std::size_t ii = 0; ii < stream.instrs.size(); ++ii) {
    const Instr& ins = stream.instrs[ii];
    if (!net.step(ii)) return;
    if (ins.op == OpCode::kCombineLocal) {
      const auto& local =
          (*staging.operands)[static_cast<std::size_t>(stream.sum_index)];
      for (std::int32_t c = 0; c < ins.count; ++c) fold(local[operand_pos++]);
      continue;
    }
    ExecEvent ev;
    ev.kind = ins.op == OpCode::kSend ? ExecEvent::Kind::kSend
                                      : ExecEvent::Kind::kRecv;
    ev.peer = program.peer(ins);
    ev.item = ins.item;
    ev.planned = ins.when;
    ev.start_ns = run.now_ns();
    if (ins.op == OpCode::kSend) {
      const std::span<const std::byte> payload =
          program.mode == Mode::kMove ? slot(ins.item)
                                      : std::span<const std::byte>(acc);
      if (!net.send(ins, Message{ins.item, payload.data(), payload.size(), 0})) {
        return;
      }
      ev.xfer_ns = run.now_ns();
      tally.bytes_moved += payload.size();
    } else {
      Message m;
      if (!net.recv(ins, m)) return;
      ev.xfer_ns = run.now_ns();
      if (m.item != ins.item) {
        run.failure.fail("exec::Engine: P" + std::to_string(wi) +
                         " expected item " + std::to_string(ins.item) +
                         " from P" + std::to_string(ev.peer) + ", got " +
                         std::to_string(m.item));
        return;
      }
      if (program.mode == Mode::kMove) {
        const std::span<std::byte> dst = slot(m.item);
        if (dst.size() != m.size) {
          run.failure.fail("exec::Engine: P" + std::to_string(wi) +
                           " received item " + std::to_string(m.item) +
                           " with unexpected payload size " +
                           std::to_string(m.size));
          return;
        }
        if (m.size != 0) std::memcpy(dst.data(), m.data, m.size);
      } else {
        fold(std::span<const std::byte>(m.data, m.size));
      }
    }
    ev.end_ns = run.now_ns();
    events.push_back(ev);
  }
  net.finish();
}

/// The validation every entry point shares.
void check_program(const Program& program, Mode mode, const char* mismatch) {
  if (program.mode != mode) {
    throw std::invalid_argument(std::string("Engine::run: ") + mismatch);
  }
  program.params.require_valid();
  if (program.procs.size() != static_cast<std::size_t>(program.params.P)) {
    throw std::invalid_argument("Engine::run: program/params size mismatch");
  }
}

void check_combiner(const Combiner& op) {
  if (!op.valid()) {
    throw std::invalid_argument("Engine::run: combiner has no operator");
  }
}

/// A report carrying the program's identity and one empty log and
/// accumulator per processor.
ExecReport blank_report(const Program& program) {
  ExecReport report;
  report.params = program.params;
  report.mode = program.mode;
  report.label = program.label;
  report.predicted_makespan = program.predicted_makespan;
  report.messages = program.num_messages;
  const std::size_t P = program.procs.size();
  report.events.resize(P);
  report.fault_events.resize(P);
  report.folded.resize(P);
  return report;
}

/// kMove staging: gives each processor `bufs_per_proc` result buffers,
/// lets `place(bufs, item)` size the item's bytes inside them for every
/// slot the plan touches — initial placements and receive targets — and
/// seeds the initial placements from `source(item)`.
template <class Place, class Source>
Staging stage_items(const Program& program, ExecReport& report,
                    std::size_t bufs_per_proc, Place&& place,
                    Source&& source) {
  const std::size_t P = program.procs.size();
  Staging staging;
  staging.num_items = static_cast<std::size_t>(program.num_items);
  staging.slots.resize(P * staging.num_items);
  report.items.assign(P, std::vector<Bytes>(bufs_per_proc));
  auto touch = [&](std::size_t p, ItemId item) -> std::span<std::byte> {
    const auto i = static_cast<std::size_t>(item);
    return staging.slots[p * staging.num_items + i] =
               place(report.items[p], i);
  };
  for (const InitialPlacement& init : program.initials) {
    const std::span<const std::byte> src = source(init.item);
    const std::span<std::byte> dst =
        touch(static_cast<std::size_t>(init.proc), init.item);
    if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
  }
  for (std::size_t p = 0; p < P; ++p) {
    for (const Instr& ins : program.procs[p].instrs) {
      if (ins.op == OpCode::kRecv) touch(p, ins.item);
    }
  }
  return staging;
}

}  // namespace

std::vector<std::vector<validate::DeliveryRecord>> ExecReport::deliveries()
    const {
  std::vector<std::vector<validate::DeliveryRecord>> out(events.size());
  for (std::size_t p = 0; p < events.size(); ++p) {
    for (const ExecEvent& ev : events[p]) {
      if (ev.kind == ExecEvent::Kind::kRecv) {
        out[p].push_back(validate::DeliveryRecord{ev.peer, ev.item});
      }
    }
  }
  return out;
}

Engine& Engine::shared() {
  static Engine* engine = new Engine();  // leaked: outlives static teardown
  return *engine;
}

void Engine::prewarm(int procs) {
  if (procs <= 0) return;
  pool_.reserve(static_cast<unsigned>(procs));
}

ExecReport Engine::run(const Program& program,
                       const std::vector<Bytes>& item_values,
                       const fault::Injector* injector) {
  check_program(program, Mode::kMove, "program is not move-mode");
  if (item_values.size() != static_cast<std::size_t>(program.num_items)) {
    throw std::invalid_argument(
        "Engine::run: expected " + std::to_string(program.num_items) +
        " item payloads, got " + std::to_string(item_values.size()));
  }
  ExecReport report = blank_report(program);
  const Staging staging = stage_items(
      program, report, item_values.size(),
      [&](std::vector<Bytes>& bufs, std::size_t i) {
        bufs[i].resize(item_values[i].size());
        return std::span<std::byte>(bufs[i]);
      },
      [&](ItemId item) {
        return std::span<const std::byte>(
            item_values[static_cast<std::size_t>(item)]);
      });
  return execute(program, std::move(report), staging, injector);
}

ExecReport Engine::run_segmented(const Program& program,
                                 const SegmentRun& seg,
                                 const fault::Injector* injector) {
  check_program(program, Mode::kMove,
                "segmented run needs a move-mode program");
  if (seg.segments != program.num_items) {
    throw std::invalid_argument(
        "Engine::run: SegmentRun::segments (" +
        std::to_string(seg.segments) + ") must equal the program's num_items (" +
        std::to_string(program.num_items) + ")");
  }
  if (seg.payload.empty()) {
    throw std::invalid_argument(
        "Engine::run: segmented run needs a non-empty payload");
  }
  // Coalesced layout: every processor the plan touches gets ONE
  // contiguous buffer the size of the whole payload, and each segment's
  // slot is its range of it — longer segments first, as
  // svc::split_segments cuts them.
  const std::size_t total = seg.payload.size();
  const std::size_t k = static_cast<std::size_t>(seg.segments);
  const auto range = [base = total / k, rem = total % k](std::size_t i) {
    return std::pair{i * base + std::min(i, rem), base + (i < rem ? 1 : 0)};
  };
  ExecReport report = blank_report(program);
  const Staging staging = stage_items(
      program, report, 1,
      [&](std::vector<Bytes>& bufs, std::size_t i) {
        bufs[0].resize(total);
        const auto [off, len] = range(i);
        return std::span<std::byte>(bufs[0]).subspan(off, len);
      },
      [&](ItemId item) {
        const auto [off, len] = range(static_cast<std::size_t>(item));
        return seg.payload.subspan(off, len);
      });
  return execute(program, std::move(report), staging, injector);
}

ExecReport Engine::run(const Program& program, const std::vector<Bytes>& values,
                       const Combiner& op, const fault::Injector* injector) {
  check_program(program, Mode::kFold, "program is not fold-mode");
  check_combiner(op);
  if (values.size() != program.procs.size()) {
    throw std::invalid_argument(
        "Engine::run: expected one value per processor");
  }
  ExecReport report = blank_report(program);
  report.folded = values;
  Staging staging;
  staging.op = &op;
  return execute(program, std::move(report), staging, injector);
}

ExecReport Engine::run(const Program& program,
                       const std::vector<std::vector<Bytes>>& operands,
                       const Combiner& op, const fault::Injector* injector) {
  check_program(program, Mode::kSum, "program is not summation-mode");
  check_combiner(op);
  for (const ProcProgram& pp : program.procs) {
    if (pp.sum_index < 0) continue;
    const auto idx = static_cast<std::size_t>(pp.sum_index);
    if (idx >= operands.size() || operands[idx].size() != pp.num_operands) {
      throw std::invalid_argument(
          "Engine::run: operand count mismatch at plan index " +
          std::to_string(idx) + " (want " + std::to_string(pp.num_operands) +
          ")");
    }
  }
  Staging staging;
  staging.operands = &operands;
  staging.op = &op;
  return execute(program, blank_report(program), staging, injector);
}

ExecReport Engine::execute(const Program& program, ExecReport report,
                           const Staging& staging,
                           const fault::Injector* injector) {
  const auto P = program.procs.size();
  const auto cap = static_cast<std::size_t>(program.params.capacity());
  if (cap == 0) {
    throw std::invalid_argument(
        "Engine::run: mailbox capacity is 0 for " +
        program.params.to_string() +
        " — a network admitting no in-flight message cannot run any "
        "schedule; fix the machine parameters instead of clamping");
  }
  const bool reliable = injector != nullptr || opts_.acked;

  // Serialize runs on this engine *before* starting the watchdog clock:
  // a run queued behind another must not burn its timeout budget waiting
  // for the pool.
  std::lock_guard run_lock(run_mu_);

  // Threads are warm when the pool already holds a worker per processor;
  // buffers are warm when the context's previous shape matches and
  // prepare() recycled every ring and queue without allocating.
  report.warm_pool = pool_.size() >= static_cast<unsigned>(P);
  RunShape shape;
  shape.links = program.links.size();
  shape.capacity = cap;
  shape.reliable = reliable;
  shape.procs = P;
  report.warm_buffers = ctx_.prepare(shape);
  report.mailbox_capacity = cap;

  const Clock::time_point start = Clock::now();
  Run run{program,
          staging,
          report,
          ctx_,
          injector,
          start,
          start + std::chrono::milliseconds(opts_.timeout_ms),
          std::vector<Tally>(P),
          {}};

  {
    obs::Span run_span("exec.run", "exec");
    if (run_span.active()) {
      run_span.set_arg(program.label + " P=" +
                       std::to_string(program.params.P));
    }
    if (reliable) {
      pool_.run(static_cast<int>(P), [&run](int wi) { worker<Acked>(run, wi); });
    } else {
      pool_.run(static_cast<int>(P), [&run](int wi) { worker<Direct>(run, wi); });
    }
    report.wall_ns = ns_since(start);
  }

#ifndef NDEBUG
  // The documented ordering guarantee of ExecReport::events: one worker
  // records its events sequentially on a monotonic clock, so per-processor
  // logs are non-decreasing in start_ns and op intervals never overlap.
  for (const auto& evs : report.events) {
    for (std::size_t i = 1; i < evs.size(); ++i) {
      assert(evs[i].start_ns >= evs[i - 1].start_ns &&
             "ExecReport::events must be non-decreasing in start_ns");
      assert(evs[i].start_ns >= evs[i - 1].end_ns &&
             "ExecReport::events intervals must not overlap");
    }
  }
#endif

  std::size_t kernel_bytes = 0;
  for (const Tally& t : run.tallies) {
    report.payload_bytes += t.bytes_moved;
    report.retries += t.retries;
    report.duplicates += t.duplicates;
    report.kernel_folds += t.kernel_folds;
    report.generic_folds += t.generic_folds;
    kernel_bytes += t.kernel_bytes;
  }

  Failure& failure = run.failure;
  if (failure.abort.load(std::memory_order_acquire)) {
    // All workers have rejoined the epoch barrier, so nothing is producing
    // or consuming: drain every ring so an aborted run leaves no stale
    // message (or stale ack) behind for a later run to trip on.  (The
    // context re-drains on its next prepare() as well, but a throwing run
    // must not leave the shared rings dirty in between.)
    Message m;
    for (const auto& mb : ctx_.mailboxes) {
      while (mb->try_pop(m)) {
      }
    }
    std::uint64_t a = 0;
    for (const auto& ar : ctx_.acks) {
      while (ar->try_pop(a)) {
      }
    }
    const ProcId fr = failure.failed_rank.load(std::memory_order_relaxed);
    std::string message;
    {
      std::lock_guard lock(failure.mu);
      message = failure.message;
    }
    if (obs::enabled() && fr != kNoProc) {
      obs::MetricsRegistry::global()
          .counter("logpc_fault_rank_failures_total",
                   "ranks declared dead by the engine failure detector")
          .inc();
    }
    if (fr != kNoProc) throw RankFailure(fr, message);
    throw std::runtime_error(message);
  }

  for (const auto& mb : ctx_.mailboxes) {
    report.max_mailbox_occupancy =
        std::max(report.max_mailbox_occupancy, mb->max_occupancy());
  }

  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    const std::string labels = "collective=\"" + program.label + "\"";
    reg.counter("logpc_exec_runs_total",
                "collective executions on the real-thread engine", labels)
        .inc();
    reg.counter("logpc_exec_messages_total",
                "messages moved through exec mailboxes", labels)
        .inc(report.messages);
    reg.counter("logpc_exec_payload_bytes_total",
                "payload bytes moved through exec mailboxes", labels)
        .inc(report.payload_bytes);
    reg.histogram("logpc_exec_run_latency_ns",
                  obs::default_latency_buckets_ns(),
                  "wall-clock duration of one executed collective", labels)
        .observe(static_cast<double>(report.wall_ns));
    reg.counter(report.warm_pool ? "logpc_exec_warm_runs_total"
                                 : "logpc_exec_cold_starts_total",
                report.warm_pool
                    ? "runs dispatched onto already-resident worker threads"
                    : "runs that spawned worker threads on the request path",
                labels)
        .inc();
    const Combiner* op = staging.op;
    if (op != nullptr && op->typed()) {
      const std::string klabels = "op=\"" + std::string(op_name(op->spec().op)) +
                                  "\",dtype=\"" +
                                  dtype_name(op->spec().dtype) + "\"";
      if (report.kernel_folds > 0) {
        reg.counter("logpc_exec_kernel_folds_total",
                    "folds executed by typed SIMD combine kernels", klabels)
            .inc(report.kernel_folds);
        reg.counter("logpc_exec_kernel_fold_bytes_total",
                    "payload bytes folded by typed combine kernels", klabels)
            .inc(kernel_bytes);
      }
      if (report.generic_folds > 0) {
        reg.counter("logpc_exec_kernel_fallback_folds_total",
                    "folds a typed combiner routed to the generic lane "
                    "(operand size mismatch)",
                    klabels)
            .inc(report.generic_folds);
      }
    }
    if (reliable) {
      std::array<std::size_t, 4> by_kind{};
      for (const auto& evs : report.fault_events) {
        for (const fault::FaultEvent& fe : evs) {
          ++by_kind[static_cast<std::size_t>(fe.kind)];
        }
      }
      for (std::size_t k = 0; k < by_kind.size(); ++k) {
        if (by_kind[k] == 0) continue;
        const auto kind = static_cast<fault::FaultKind>(k);
        reg.counter("logpc_fault_injected_total", "injected faults by kind",
                    "kind=\"" + std::string(fault::fault_kind_name(kind)) +
                        "\"")
            .inc(by_kind[k]);
      }
      if (report.retries > 0) {
        reg.counter("logpc_fault_retries_total",
                    "retransmissions under acked delivery")
            .inc(report.retries);
      }
      if (report.duplicates > 0) {
        reg.counter("logpc_fault_duplicates_total",
                    "retransmitted duplicates discarded exactly-once")
            .inc(report.duplicates);
      }
      auto& backoff_hist = reg.histogram(
          "logpc_fault_backoff_ns", obs::default_latency_buckets_ns(),
          "retransmit backoff lapsed before each retry");
      for (const Tally& t : run.tallies) {
        for (const double b : t.backoffs_ns) backoff_hist.observe(b);
      }
    }
  }
  return report;
}

}  // namespace logpc::exec
