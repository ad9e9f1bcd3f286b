#include "exec/program.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
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
  Time when = 0;
  int is_send = 0;
  std::size_t pos = 0;
  Instr instr;

  friend bool operator<(const Keyed& a, const Keyed& b) {
    return std::tie(a.when, a.is_send, a.pos) <
           std::tie(b.when, b.is_send, b.pos);
  }
};

/// Back-to-front sweep filling Instr::chain: for each receive, how many
/// consecutive receives (itself included) the stream performs on the same
/// link with nothing in between.  This is the engine's licence to drain
/// that many messages in one bulk pop.
void annotate_recv_chains(Program& prog) {
  for (ProcProgram& pp : prog.procs) {
    std::vector<Instr>& v = pp.instrs;
    for (std::size_t j = v.size(); j-- > 0;) {
      if (v[j].op != OpCode::kRecv) continue;
      const bool chained = j + 1 < v.size() &&
                           v[j + 1].op == OpCode::kRecv &&
                           v[j + 1].link == v[j].link;
      v[j].chain = chained ? v[j + 1].chain + 1 : 1;
    }
  }
}

}  // namespace

std::vector<std::vector<validate::DeliveryRecord>>
Program::expected_deliveries() const {
  std::vector<std::vector<validate::DeliveryRecord>> out(procs.size());
  for (std::size_t p = 0; p < procs.size(); ++p) {
    for (const Instr& ins : procs[p].instrs) {
      if (ins.op == OpCode::kRecv) {
        out[p].push_back(validate::DeliveryRecord{ins.peer, ins.item});
      }
    }
  }
  return out;
}

namespace {

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
  prog.procs.resize(P);
  for (std::size_t p = 0; p < P; ++p) {
    prog.procs[p].proc = static_cast<ProcId>(p);
  }

  LinkTable links;
  std::vector<std::vector<Keyed>> streams(P);
  const auto& sends = s.sends();
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const SendOp& op = sends[i];
    const std::int32_t link = links.intern(op.from, op.to);
    streams[static_cast<std::size_t>(op.from)].push_back(
        Keyed{op.start, 1, i,
              Instr{OpCode::kSend, op.to, op.item, 0, link, op.start}});
    streams[static_cast<std::size_t>(op.to)].push_back(
        Keyed{s.available_at(op), 0, i,
              Instr{OpCode::kRecv, op.from, op.item, 0, link,
                    s.available_at(op)}});
  }
  for (std::size_t p = 0; p < P; ++p) {
    std::sort(streams[p].begin(), streams[p].end());
    prog.procs[p].instrs.reserve(streams[p].size());
    for (const Keyed& k : streams[p]) prog.procs[p].instrs.push_back(k.instr);
  }

  if (mode == Mode::kMove) {
    std::vector<std::vector<char>> have(
        P, std::vector<char>(static_cast<std::size_t>(prog.num_items), 0));
    for (const auto& init : s.initials()) {
      have[static_cast<std::size_t>(init.proc)]
          [static_cast<std::size_t>(init.item)] = 1;
    }
    for (std::size_t p = 0; p < P; ++p) {
      for (const Instr& ins : prog.procs[p].instrs) {
        char& slot = have[p][static_cast<std::size_t>(ins.item)];
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
  prog.links = links.take();
  annotate_recv_chains(prog);
  return prog;
}

}  // namespace

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
  std::swap(program.procs[static_cast<std::size_t>(a)],
            program.procs[static_cast<std::size_t>(b)]);
  for (ProcProgram& pp : program.procs) {
    pp.proc = map(pp.proc);
    for (Instr& ins : pp.instrs) {
      if (ins.peer != kNoProc) ins.peer = map(ins.peer);
    }
  }
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

/// The kSum stream writer both summation lowerings share.  Every
/// participant sends at most once, so its sender names its link; ids go out
/// in first-use order.
class SumStreams {
 public:
  SumStreams(const Params& params, Time deadline, std::string label)
      : link_of_(static_cast<std::size_t>(params.P), -1) {
    params.require_valid();
    prog_.params = params;
    prog_.mode = Mode::kSum;
    prog_.label = std::move(label);
    prog_.num_items = 1;
    prog_.predicted_makespan = deadline;
    prog_.procs.resize(static_cast<std::size_t>(params.P));
    for (std::size_t p = 0; p < prog_.procs.size(); ++p) {
      prog_.procs[p].proc = static_cast<ProcId>(p);
    }
  }

  /// Opens `proc`'s stream as plan participant `index`, sized for
  /// `reserve` instructions.
  ProcProgram& open(ProcId proc, std::int64_t index, std::size_t reserve) {
    ProcProgram& stream = prog_.procs[static_cast<std::size_t>(proc)];
    stream.sum_index = static_cast<std::int32_t>(index);
    stream.instrs.reserve(reserve);
    return stream;
  }

  /// Folds `count` local operands (nothing when 0).
  static void chunk(ProcProgram& stream, std::size_t count, Time when) {
    stream.num_operands += count;
    if (count == 0) return;
    if (count > static_cast<std::size_t>(
                    std::numeric_limits<std::int32_t>::max())) {
      throw std::invalid_argument(
          "exec::compile_summation: P" + std::to_string(stream.proc) +
          " folds a local chunk of " + std::to_string(count) +
          " operands; an instruction holds at most INT32_MAX");
    }
    stream.instrs.push_back(Instr{OpCode::kCombineLocal, kNoProc, 0,
                                  static_cast<std::int32_t>(count), -1,
                                  when});
  }

  void recv(ProcProgram& stream, ProcId from, Time when) {
    stream.instrs.push_back(
        Instr{OpCode::kRecv, from, 0, 0, link(from, stream.proc), when});
  }

  void send(ProcProgram& stream, ProcId to, Time when) {
    stream.instrs.push_back(
        Instr{OpCode::kSend, to, 0, 0, link(stream.proc, to), when});
    ++prog_.num_messages;
  }

  Program take() { return std::move(prog_); }

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
  std::size_t e = 0;
  for (std::int64_t node = 0; node < plan.num_nodes(); ++node) {
    const ProcId proc = plan.proc_of_node(node);
    std::size_t end = e;
    while (end < sends.size() && sends[end].to == proc) ++end;
    ProcProgram& stream = out.open(proc, node, 2 * (end - e) + 2);
    const SendOp* parent =
        node == 0 ? nullptr : &sends[up[static_cast<std::size_t>(node)]];
    const Time departs = parent == nullptr ? t : parent->start;
    // A reception starts L + o after its send and, with its addition,
    // holds the accumulator for o + 1 cycles.  Seeding the accumulator
    // costs no addition, hence the first chunk's extra operand.
    Time resume = -1;
    Time when = 0;
    for (std::size_t j = end; j-- > e;) {
      const Time r = sends[j].start + params.L + params.o;
      SumStreams::chunk(stream, static_cast<std::size_t>(r - resume), when);
      out.recv(stream, sends[j].from, r);
      up[static_cast<std::size_t>(plan.node_of_proc(sends[j].from))] = j;
      resume = r + params.o + 1;
      when = r;
    }
    SumStreams::chunk(stream, static_cast<std::size_t>(departs - resume),
                      when);
    if (parent != nullptr) out.send(stream, parent->to, departs);
    e = end;
  }
  // Each link carries one message, so every receive keeps chain = 1.
  return out.take();
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
  prog.procs.resize(P);

  // One link per tree edge, numbered in walk order.  The walk visits a
  // node's parent edge before its own children's edges (parents come in
  // index order and precede their children), each parent's children in
  // rank order.  Broadcast: appending each edge's receive and send as the
  // walk visits it gives every rank its receive, then its sends in time
  // order.  Reduce: receives arrive in descending child rank, so they are
  // appended in reverse walk order, and every rank's single send follows
  // all of them.  Either way this is the Keyed order of the materialized
  // compilers.
  const std::vector<SendOp> sends = plan.edge_sends();
  std::vector<std::int32_t> degree(P, 0);
  for (const SendOp& op : sends) {
    ++degree[static_cast<std::size_t>(op.from)];
    ++degree[static_cast<std::size_t>(op.to)];
  }
  for (std::size_t p = 0; p < P; ++p) {
    prog.procs[p].proc = static_cast<ProcId>(p);
    prog.procs[p].instrs.reserve(static_cast<std::size_t>(degree[p]));
  }
  prog.links.reserve(sends.size());
  for (const SendOp& op : sends) prog.links.push_back(Link{op.from, op.to});
  const auto recv = [&](std::size_t e) {
    const SendOp& op = sends[e];
    prog.procs[static_cast<std::size_t>(op.to)].instrs.push_back(
        Instr{OpCode::kRecv, op.from, 0, 0, static_cast<std::int32_t>(e),
              op.start + T});
  };
  const auto send = [&](std::size_t e) {
    const SendOp& op = sends[e];
    prog.procs[static_cast<std::size_t>(op.from)].instrs.push_back(
        Instr{OpCode::kSend, op.to, 0, 0, static_cast<std::int32_t>(e),
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
  // Each link carries one message, so every receive keeps chain = 1.
  return prog;
}

Program compile_summation(const sum::SummationPlan& plan) {
  SumStreams out(plan.params, plan.t, "summation");
  const std::vector<sum::ProcLayout> layout = sum::operand_layout(plan);
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    const sum::ProcPlan& pp = plan.procs[i];
    const auto& chunks = layout[i].chunk_sizes;
    ProcProgram& stream = out.open(
        pp.proc, static_cast<std::int64_t>(i),
        chunks.size() + pp.recv_from.size() + 1);
    SumStreams::chunk(stream, chunks[0], 0);
    for (std::size_t j = 0; j < pp.recv_from.size(); ++j) {
      out.recv(stream, pp.recv_from[j], pp.recv_times[j]);
      SumStreams::chunk(stream, chunks[j + 1], pp.recv_times[j]);
    }
    if (pp.send_to != kNoProc) out.send(stream, pp.send_to, pp.send_time);
  }
  Program prog = out.take();
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
