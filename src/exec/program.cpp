#include "exec/program.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "runtime/implicit_plan.hpp"
#include "runtime/plan_cache.hpp"
#include "sum/executor.hpp"

namespace logpc::exec {

namespace {

/// Interns directed links: one mailbox index per (from, to) pair.
class LinkTable {
 public:
  std::int32_t intern(ProcId from, ProcId to) {
    const std::uint64_t key = (static_cast<std::uint64_t>(
                                   static_cast<std::uint32_t>(from))
                               << 32) |
                              static_cast<std::uint32_t>(to);
    auto [it, inserted] = index_.try_emplace(key, links_.size());
    if (inserted) links_.push_back(Link{from, to});
    return static_cast<std::int32_t>(it->second);
  }

  std::vector<Link> take() { return std::move(links_); }

 private:
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<Link> links_;
};

/// Plan-time ordering key: receives sort by payload-available cycle and
/// before a send starting the same cycle (the send may forward the item
/// that just landed); schedule position breaks remaining ties.
struct Keyed {
  Time when;
  int is_send;
  std::size_t pos;
  Instr instr;

  Keyed(const Instr& ins, std::size_t position)
      : when(ins.when),
        is_send(ins.op == OpCode::kSend ? 1 : 0),
        pos(position),
        instr(ins) {}

  friend bool operator<(const Keyed& a, const Keyed& b) {
    return std::tie(a.when, a.is_send, a.pos) <
           std::tie(b.when, b.is_send, b.pos);
  }
};

/// Back-to-front sweep filling each receive's Instr::count: how many
/// consecutive receives (itself included) the stream performs on the same
/// link with nothing in between.  This is the engine's licence to drain
/// that many messages in one bulk pop.
void annotate_recv_chains(Program& prog) {
  for (std::size_t p = 0; p < prog.procs.size(); ++p) {
    const std::span<Instr> v = prog.procs.stream(p);
    for (std::size_t j = v.size(); j-- > 0;) {
      if (v[j].op != OpCode::kRecv) continue;
      const bool chained = j + 1 < v.size() &&
                           v[j + 1].op == OpCode::kRecv &&
                           v[j + 1].link == v[j].link;
      v[j].count = chained ? v[j + 1].count + 1 : 1;
    }
  }
}

/// The stream builder shared by compile_broadcast (kMove) and
/// compile_reduction (kFold): per processor, the schedule's events in
/// Keyed order, then the mode's safety check — a send must follow the
/// reception (or initial placement) of its item (kMove), and no receive
/// may follow the single send (kFold).  Stream order is exactly what
/// executes, so either violation would be a hang, which the compiler
/// refuses to produce.
Program compile_schedule(const Schedule& s, Mode mode, std::string label,
                         Time predicted_makespan) {
  s.params().require_valid();
  const auto P = static_cast<std::size_t>(s.params().P);
  Program prog;
  prog.params = s.params();
  prog.mode = mode;
  prog.label = std::move(label);
  prog.predicted_makespan = predicted_makespan;
  prog.num_messages = s.sends().size();
  if (mode == Mode::kMove) {
    prog.num_items = s.num_items();
    prog.initials = s.initials();
  }

  // Every rank's events in schedule order, then each stream sorted into
  // Keyed order (position = emission index, which follows schedule order).
  LinkTable links;
  const auto& sends = s.sends();
  std::vector<std::int32_t> link_of(sends.size());
  for (std::size_t i = 0; i < sends.size(); ++i) {
    link_of[i] = links.intern(sends[i].from, sends[i].to);
  }
  prog.links = links.take();
  prog.procs = ProcStreams::build(P, [&](auto&& emit) {
    for (std::size_t i = 0; i < sends.size(); ++i) {
      const SendOp& op = sends[i];
      emit(op.from, Instr{OpCode::kSend, op.item, link_of[i], 0, op.start});
      emit(op.to, Instr{OpCode::kRecv, op.item, link_of[i], 0,
                        s.available_at(op)});
    }
  });
  std::vector<Keyed> keyed;
  for (std::size_t p = 0; p < P; ++p) {
    const std::span<Instr> stream = prog.procs.stream(p);
    keyed.clear();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      keyed.emplace_back(stream[i], i);
    }
    if (std::is_sorted(keyed.begin(), keyed.end())) continue;
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t i = 0; i < stream.size(); ++i) stream[i] = keyed[i].instr;
  }

  if (mode == Mode::kMove) {
    const auto items = static_cast<std::size_t>(prog.num_items);
    std::vector<char> have(P * items, 0);
    for (const auto& init : s.initials()) {
      have[static_cast<std::size_t>(init.proc) * items +
           static_cast<std::size_t>(init.item)] = 1;
    }
    for (std::size_t p = 0; p < P; ++p) {
      for (const Instr& ins : prog.procs[p].instrs) {
        char& slot = have[p * items + static_cast<std::size_t>(ins.item)];
        if (ins.op == OpCode::kRecv) {
          slot = 1;
        } else if (slot == 0) {
          throw std::invalid_argument(
              "exec::compile_broadcast: P" + std::to_string(p) +
              " sends item " + std::to_string(ins.item) +
              " before holding it");
        }
      }
    }
  } else {
    for (std::size_t p = 0; p < P; ++p) {
      bool sent = false;
      for (const Instr& ins : prog.procs[p].instrs) {
        if (ins.op == OpCode::kRecv && sent) {
          throw std::invalid_argument(
              "exec::compile_reduction: P" + std::to_string(p) +
              " receives after its send — not a reduction plan");
        }
        sent = sent || ins.op == OpCode::kSend;
      }
    }
  }
  annotate_recv_chains(prog);
  return prog;
}

}  // namespace

void ProcStreams::set_operands(std::vector<std::int32_t> sum_index,
                               std::vector<std::size_t> num_operands) {
  sum_index_ = std::move(sum_index);
  num_operands_ = std::move(num_operands);
}

void ProcStreams::swap_ranks(std::size_t a, std::size_t b) {
  if (a == b) return;
  if (a > b) std::swap(a, b);
  // [A][M][B] -> [B][M][A]: reverse the whole range, then each piece.
  const auto first = instrs_.begin() + static_cast<std::ptrdiff_t>(offsets_[a]);
  const auto last =
      instrs_.begin() + static_cast<std::ptrdiff_t>(offsets_[b + 1]);
  const std::size_t len_a = offsets_[a + 1] - offsets_[a];
  const std::size_t len_b = offsets_[b + 1] - offsets_[b];
  const std::size_t len_m = offsets_[b] - offsets_[a + 1];
  std::reverse(first, last);
  const auto m_begin = first + static_cast<std::ptrdiff_t>(len_b);
  const auto a_begin = m_begin + static_cast<std::ptrdiff_t>(len_m);
  std::reverse(first, m_begin);
  std::reverse(m_begin, a_begin);
  std::reverse(a_begin, last);
  // Ranks a + 1 .. b now start len_b - len_a later.
  for (std::size_t p = a + 1; p <= b; ++p) {
    offsets_[p] = offsets_[p] + len_b - len_a;
  }
  if (!sum_index_.empty()) {
    std::swap(sum_index_[a], sum_index_[b]);
    std::swap(num_operands_[a], num_operands_[b]);
  }
}

Program compile_broadcast(const Schedule& s, std::string label) {
  return compile_schedule(s, Mode::kMove, std::move(label), s.makespan());
}

Program compile_reduction(const bcast::ReductionPlan& plan) {
  return compile_schedule(plan.schedule, Mode::kFold, "reduce",
                          plan.completion);
}

Program relabel_swapped(Program program, ProcId a, ProcId b) {
  const auto P = static_cast<ProcId>(program.procs.size());
  if (a < 0 || a >= P || b < 0 || b >= P) {
    throw std::invalid_argument("exec::relabel_swapped: rank out of range");
  }
  if (a == b) return program;
  const auto map = [a, b](ProcId p) { return p == a ? b : (p == b ? a : p); };
  program.procs.swap_ranks(static_cast<std::size_t>(a),
                           static_cast<std::size_t>(b));
  for (Link& link : program.links) {
    link.from = map(link.from);
    link.to = map(link.to);
  }
  for (InitialPlacement& init : program.initials) {
    init.proc = map(init.proc);
  }
  return program;
}

namespace {

/// The kSum program writer both summation lowerings share.  A lowering
/// hands lower() a walk that emits every participant's stream through
/// chunk / recv / send and records it with open(); ProcStreams::build runs
/// the walk twice, so all of these are idempotent.  Every participant
/// sends at most once, so its sender names its link; ids go out in
/// first-use order, and the message count is the link count.
class SumStreams {
 public:
  SumStreams(const Params& params, Time deadline, std::string label)
      : link_of_(static_cast<std::size_t>(params.P), -1),
        sum_index_(static_cast<std::size_t>(params.P), -1),
        num_operands_(static_cast<std::size_t>(params.P), 0) {
    params.require_valid();
    prog_.params = params;
    prog_.mode = Mode::kSum;
    prog_.label = std::move(label);
    prog_.num_items = 1;
    prog_.predicted_makespan = deadline;
  }

  /// Records `proc` as plan participant `index` folding `operands` local
  /// operands.
  void open(ProcId proc, std::int64_t index, std::size_t operands) {
    sum_index_[static_cast<std::size_t>(proc)] =
        static_cast<std::int32_t>(index);
    num_operands_[static_cast<std::size_t>(proc)] = operands;
  }

  /// Folds `count` local operands (nothing when 0).
  template <class Emit>
  static void chunk(Emit& emit, ProcId proc, std::size_t count, Time when) {
    if (count == 0) return;
    if (count > static_cast<std::size_t>(
                    std::numeric_limits<std::int32_t>::max())) {
      throw std::invalid_argument(
          "exec::compile_summation: P" + std::to_string(proc) +
          " folds a local chunk of " + std::to_string(count) +
          " operands; an instruction holds at most INT32_MAX");
    }
    emit(proc, Instr{OpCode::kCombineLocal, 0, -1,
                     static_cast<std::int32_t>(count), when});
  }

  template <class Emit>
  void recv(Emit& emit, ProcId proc, ProcId from, Time when) {
    emit(proc, Instr{OpCode::kRecv, 0, link(from, proc), 1, when});
  }

  template <class Emit>
  void send(Emit& emit, ProcId proc, ProcId to, Time when) {
    emit(proc, Instr{OpCode::kSend, 0, link(proc, to), 0, when});
  }

  /// The program whose streams `walk(emit)` writes.
  template <class Walk>
  Program lower(Walk&& walk) {
    prog_.procs = ProcStreams::build(link_of_.size(), walk);
    prog_.procs.set_operands(std::move(sum_index_), std::move(num_operands_));
    prog_.num_messages = prog_.links.size();
    return std::move(prog_);
  }

 private:
  std::int32_t link(ProcId from, ProcId to) {
    std::int32_t& id = link_of_[static_cast<std::size_t>(from)];
    if (id < 0) {
      id = static_cast<std::int32_t>(prog_.links.size());
      prog_.links.push_back(Link{from, to});
    } else if (prog_.links[static_cast<std::size_t>(id)].to != to) {
      throw std::invalid_argument("exec::compile_summation: P" +
                                  std::to_string(from) +
                                  " sends to two processors");
    }
    return id;
  }

  Program prog_;
  std::vector<std::int32_t> link_of_;
  std::vector<std::int32_t> sum_index_;
  std::vector<std::size_t> num_operands_;
};

/// compile_implicit for a summation: one pass over the decoder's edges,
/// which come grouped by parent in node order, children in rank order.  A
/// participant folds a local chunk, then for each child in descending rank
/// (ascending arrival) receives its partial sum and folds the next chunk,
/// then sends.  Lemma 5.1 sizes the chunks from the reception times alone:
/// R0 + 1 operands before the first reception, g - o - 1 between two, none
/// after the last (it ends exactly at the send).
Program compile_decoded_summation(const runtime::ImplicitPlan& plan,
                                  std::string label) {
  const Params& params = plan.params();
  const Time t = plan.completion();
  SumStreams out(params, t, std::move(label));
  const std::vector<SendOp> sends = plan.edge_sends();  // child -> parent
  // up[node]: the edge carrying the node's partial sum to its parent, set
  // when the parent (an earlier node) receives it.
  std::vector<std::size_t> up(static_cast<std::size_t>(plan.num_nodes()));
  // Each link carries one message, so every receive keeps count = 1.
  return out.lower([&](auto&& emit) {
    std::size_t e = 0;
    for (std::int64_t node = 0; node < plan.num_nodes(); ++node) {
      const ProcId proc = plan.proc_of_node(node);
      std::size_t end = e;
      while (end < sends.size() && sends[end].to == proc) ++end;
      const SendOp* parent =
          node == 0 ? nullptr : &sends[up[static_cast<std::size_t>(node)]];
      const Time departs = parent == nullptr ? t : parent->start;
      // A reception starts L + o after its send and, with its addition,
      // holds the accumulator for o + 1 cycles.  Seeding the accumulator
      // costs no addition, hence the first chunk's extra operand.
      Time resume = -1;
      Time when = 0;
      std::size_t operands = 0;
      for (std::size_t j = end; j-- > e;) {
        const Time r = sends[j].start + params.L + params.o;
        const auto n = static_cast<std::size_t>(r - resume);
        SumStreams::chunk(emit, proc, n, when);
        operands += n;
        out.recv(emit, proc, sends[j].from, r);
        up[static_cast<std::size_t>(plan.node_of_proc(sends[j].from))] = j;
        resume = r + params.o + 1;
        when = r;
      }
      const auto last = static_cast<std::size_t>(departs - resume);
      SumStreams::chunk(emit, proc, last, when);
      out.open(proc, node, operands + last);
      if (parent != nullptr) out.send(emit, proc, parent->to, departs);
      e = end;
    }
  });
}

}  // namespace

Program compile_implicit(const runtime::ImplicitPlan& plan,
                         std::string label) {
  if (plan.is_summation()) {
    return compile_decoded_summation(
        plan, label.empty() ? "summation" : std::move(label));
  }
  const Params& params = plan.params();
  params.require_valid();
  const auto P = static_cast<std::size_t>(params.P);
  const Time T = params.transfer_time();
  const bool reduce = plan.is_reduction();
  Program prog;
  prog.params = params;
  prog.mode = reduce ? Mode::kFold : Mode::kMove;
  prog.label = label.empty() ? (reduce ? "reduce" : "bcast")
                             : std::move(label);
  prog.num_items = 1;
  prog.predicted_makespan = plan.completion();
  prog.num_messages = P - 1;
  if (!reduce) {
    prog.initials.push_back(
        InitialPlacement{0, plan.plan_key().root, 0});
  }

  // One link per tree edge, numbered in walk order.  The walk visits a
  // node's parent edge before its own children's edges (parents come in
  // index order and precede their children), each parent's children in
  // rank order.  Broadcast: appending each edge's receive and send as the
  // walk visits it gives every rank its receive, then its sends in time
  // order.  Reduce: receives arrive in descending child rank, so they are
  // appended in reverse walk order, and every rank's single send follows
  // all of them.  Either way this is the Keyed order of the materialized
  // compilers.  Each link carries one message, so every receive's count
  // (its chain) is 1.
  const std::vector<SendOp> sends = plan.edge_sends();
  prog.links.reserve(sends.size());
  for (const SendOp& op : sends) prog.links.push_back(Link{op.from, op.to});
  prog.procs = ProcStreams::build(P, [&](auto&& emit) {
    const auto recv = [&](std::size_t e) {
      const SendOp& op = sends[e];
      emit(op.to, Instr{OpCode::kRecv, 0, static_cast<std::int32_t>(e), 1,
                        op.start + T});
    };
    const auto send = [&](std::size_t e) {
      const SendOp& op = sends[e];
      emit(op.from, Instr{OpCode::kSend, 0, static_cast<std::int32_t>(e), 0,
                          op.start});
    };
    if (!reduce) {
      for (std::size_t e = 0; e < sends.size(); ++e) {
        recv(e);
        send(e);
      }
    } else {
      for (std::size_t e = sends.size(); e-- > 0;) recv(e);
      for (std::size_t e = 0; e < sends.size(); ++e) send(e);
    }
  });
  return prog;
}

Program compile_summation(const sum::SummationPlan& plan) {
  SumStreams out(plan.params, plan.t, "summation");
  const std::vector<sum::ProcLayout> layout = sum::operand_layout(plan);
  Program prog = out.lower([&](auto&& emit) {
    for (std::size_t i = 0; i < plan.procs.size(); ++i) {
      const sum::ProcPlan& pp = plan.procs[i];
      const auto& chunks = layout[i].chunk_sizes;
      std::size_t operands = chunks[0];
      SumStreams::chunk(emit, pp.proc, chunks[0], 0);
      for (std::size_t j = 0; j < pp.recv_from.size(); ++j) {
        out.recv(emit, pp.proc, pp.recv_from[j], pp.recv_times[j]);
        SumStreams::chunk(emit, pp.proc, chunks[j + 1], pp.recv_times[j]);
        operands += chunks[j + 1];
      }
      out.open(pp.proc, static_cast<std::int64_t>(i), operands);
      if (pp.send_to != kNoProc) {
        out.send(emit, pp.proc, pp.send_to, pp.send_time);
      }
    }
  });
  annotate_recv_chains(prog);
  return prog;
}

Program compile(const runtime::Plan& plan) {
  using runtime::Problem;
  const runtime::PlanKey& key = plan.key;
  Mode mode = Mode::kMove;
  std::string label;
  switch (key.problem) {
    case Problem::kBroadcast:
    case Problem::kBinomialBroadcast:
    case Problem::kBinaryBroadcast:
    case Problem::kChainBroadcast:
      label = "bcast";
      break;
    case Problem::kKItemBroadcast:
      label = "bcast-seg";
      break;
    case Problem::kHierarchicalBroadcast:
      label = "bcast-hier";
      break;
    case Problem::kReduce:
      mode = Mode::kFold;
      label = "reduce";
      break;
    case Problem::kAllToAll:
      label = key.k == 1 ? "allgather" : "alltoall";
      break;
    case Problem::kSummation:
      // The cached schedule is only the summation's timing view; the
      // operand layout comes from the decoder.
      if (key.mask != 0) {
        throw std::invalid_argument(
            "exec::compile: masked summation plans have no lowering");
      }
      return plan.implicit
                 ? compile_implicit(*plan.implicit)
                 : compile_implicit(runtime::ImplicitPlan::build(key));
    default:
      throw std::invalid_argument("exec::compile: " + key.to_string() +
                                  " has no execution semantics");
  }
  if (plan.implicit) return compile_implicit(*plan.implicit, std::move(label));
  return compile_schedule(plan.schedule, mode, std::move(label),
                          plan.completion);
}

}  // namespace logpc::exec
