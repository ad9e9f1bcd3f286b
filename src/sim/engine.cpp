#include "sim/engine.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <stdexcept>
#include <tuple>

#include "sim/message.hpp"

namespace logpc::sim {

namespace {

enum class EventKind : int {
  kAvailability = 0,  // an item becomes available at a processor
  kTrySend = 1,       // a processor's send port may be free
};

struct Event {
  Time time;
  EventKind kind;
  ProcId proc;
  ItemId item;   // kAvailability only
  std::uint64_t seq;  // FIFO tie-break for determinism

  bool operator>(const Event& other) const {
    return std::tie(time, kind, seq) > std::tie(other.time, other.kind, other.seq);
  }
};

struct PendingSend {
  ProcId to;
  ItemId item;
};

struct ProcState {
  std::unique_ptr<Program> program;
  std::vector<Time> item_available;  // kNever if not held
  std::deque<PendingSend> pending;
  Time next_send_ok = 0;      // earliest legal next send start (gap g)
  std::vector<Time> recv_starts;  // committed receive-overhead starts
  bool started = false;
  bool try_send_queued = false;
};

}  // namespace

struct Engine::Impl : Context {
  Params prm;
  int num_items;
  std::vector<ProcState> procs;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t seq = 0;
  Schedule schedule;
  Time now_time = 0;
  ProcId current = kNoProc;
  bool ran = false;

  Impl(Params p, int k)
      : prm(p), num_items(k), schedule(p, k) {
    p.require_valid();
    if (k < 1) throw std::invalid_argument("Engine: num_items >= 1");
    procs.resize(static_cast<std::size_t>(p.P));
    for (auto& ps : procs) {
      ps.item_available.assign(static_cast<std::size_t>(k), kNever);
    }
  }

  ProcState& proc(ProcId p) { return procs[static_cast<std::size_t>(p)]; }

  // --- Context interface (valid only inside a program callback) ---
  [[nodiscard]] const Params& params() const override { return prm; }
  [[nodiscard]] ProcId self() const override { return current; }
  [[nodiscard]] Time now() const override { return now_time; }
  [[nodiscard]] bool has(ItemId item) const override {
    return procs[static_cast<std::size_t>(current)]
               .item_available[static_cast<std::size_t>(item)] <= now_time;
  }
  void send(ProcId to, ItemId item) override {
    if (to < 0 || to >= prm.P || to == current) {
      throw std::logic_error("Engine: bad send target");
    }
    if (item < 0 || item >= num_items) {
      throw std::logic_error("Engine: bad send item");
    }
    auto& ps = proc(current);
    ps.pending.push_back(PendingSend{to, item});
    queue_try_send(current, std::max(now_time, ps.next_send_ok));
  }
  // ---------------------------------------------------------------

  void push(Time t, EventKind kind, ProcId p, ItemId item = 0) {
    events.push(Event{t, kind, p, item, seq++});
  }

  void queue_try_send(ProcId p, Time t) {
    auto& ps = proc(p);
    if (!ps.try_send_queued) {
      ps.try_send_queued = true;
      push(t, EventKind::kTrySend, p);
    }
  }

  void deliver(ProcId p, ItemId item) {
    auto& ps = proc(p);
    current = p;
    if (!ps.started) {
      ps.started = true;
      if (ps.program) ps.program->on_start(*this);
    }
    if (ps.program) ps.program->on_item(*this, item);
    current = kNoProc;
  }

  // Earliest cycle >= t at which processor p may begin a send overhead:
  // after next_send_ok and (when o > 0) clear of committed receive
  // overheads.
  Time earliest_send(ProcId p, Time t) {
    auto& ps = proc(p);
    t = std::max(t, ps.next_send_ok);
    if (prm.o > 0) {
      bool moved = true;
      while (moved) {
        moved = false;
        for (const Time r : ps.recv_starts) {
          if (t < r + prm.o && r < t + prm.o) {
            t = r + prm.o;
            moved = true;
          }
        }
      }
    }
    return t;
  }

  void handle_try_send(ProcId p) {
    auto& ps = proc(p);
    ps.try_send_queued = false;
    if (ps.pending.empty()) return;
    const Time start = earliest_send(p, now_time);
    if (start > now_time) {
      queue_try_send(p, start);
      return;
    }
    const PendingSend req = ps.pending.front();
    if (ps.item_available[static_cast<std::size_t>(req.item)] > now_time) {
      throw std::logic_error("Engine: program sent an item it does not hold");
    }
    ps.pending.pop_front();
    ps.next_send_ok = now_time + prm.g;
    const Time recv = now_time + prm.o + prm.L;
    schedule.add_send(SendOp{now_time, p, req.to, req.item, kNever});
    auto& dst = proc(req.to);
    dst.recv_starts.push_back(recv);
    const Time avail = recv + prm.o;
    Time& have = dst.item_available[static_cast<std::size_t>(req.item)];
    if (avail < have) {
      have = avail;
      push(avail, EventKind::kAvailability, req.to, req.item);
    }
    if (!ps.pending.empty()) queue_try_send(p, ps.next_send_ok);
  }

  RunResult run(Time horizon) {
    if (ran) throw std::logic_error("Engine::run called twice");
    ran = true;
    RunResult result{};
    while (!events.empty()) {
      const Event ev = events.top();
      if (horizon != kNever && ev.time > horizon) {
        result.horizon_reached = true;
        break;
      }
      events.pop();
      now_time = ev.time;
      switch (ev.kind) {
        case EventKind::kAvailability:
          deliver(ev.proc, ev.item);
          break;
        case EventKind::kTrySend:
          handle_try_send(ev.proc);
          break;
      }
    }
    schedule.sort();
    result.schedule = std::move(schedule);
    result.makespan = result.schedule.makespan();
    result.messages = result.schedule.sends().size();
    return result;
  }
};

Engine::Engine(Params params, int num_items)
    : impl_(std::make_unique<Impl>(params, num_items)) {}

Engine::~Engine() = default;

const Params& Engine::params() const { return impl_->prm; }

void Engine::set_program(ProcId p, std::unique_ptr<Program> program) {
  if (p < 0 || p >= impl_->prm.P) {
    throw std::invalid_argument("Engine::set_program: bad processor");
  }
  impl_->proc(p).program = std::move(program);
}

void Engine::place(ItemId item, ProcId proc, Time time) {
  if (proc < 0 || proc >= impl_->prm.P) {
    throw std::invalid_argument("Engine::place: bad processor");
  }
  if (item < 0 || item >= impl_->num_items) {
    throw std::invalid_argument("Engine::place: bad item");
  }
  impl_->schedule.add_initial(item, proc, time);
  Time& have =
      impl_->proc(proc).item_available[static_cast<std::size_t>(item)];
  if (time < have) {
    have = time;
    impl_->push(time, EventKind::kAvailability, proc, item);
  }
}

RunResult Engine::run(Time horizon) { return impl_->run(horizon); }

}  // namespace logpc::sim
