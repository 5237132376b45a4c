#include "src/core/distributed_query.h"

#include <algorithm>
#include <optional>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace dpc {

namespace {

// One element of a compact chain (Basic/Advanced).
struct QStep {
  std::string rule_id;
  NodeId loc = kNullNode;
  std::vector<Tuple> slow;
  Vid event_vid{};
  bool has_event_vid = false;
};

// An immutable list shared by the branches of one query: the head is the
// step nearest the leaf and `parent` leads back toward the queried output.
// A fan-out pushes one node per branch onto the shared prefix instead of
// copying it, and the leaf walks head to root once — the bottom-up order
// reconstruction needs.
template <typename Step>
struct StepList {
  StepList(Step s, std::shared_ptr<const StepList> p)
      : step(std::move(s)),
        parent(std::move(p)),
        depth(parent ? parent->depth + 1 : 1) {}
  // Releases an exclusively owned tail iteratively: one nested destructor
  // per node would overflow the stack on a chain near kMaxDepth.
  ~StepList() {
    std::shared_ptr<const StepList> tail = std::move(parent);
    while (tail && tail.use_count() == 1) {
      // Sole owner, and nodes are allocated non-const (Push): detach the
      // next node before this one dies.
      tail = std::move(const_cast<StepList&>(*tail).parent);
    }
  }

  Step step;
  std::shared_ptr<const StepList> parent;
  size_t depth;
};
template <typename Step>
using StepListPtr = std::shared_ptr<const StepList<Step>>;

template <typename Step>
StepListPtr<Step> Push(StepListPtr<Step> parent, Step step) {
  return std::make_shared<StepList<Step>>(std::move(step), std::move(parent));
}

using Chain = StepListPtr<QStep>;        // root-side steps of a chain
using ProvSteps = StepListPtr<ProvStep>;  // ExSPAN steps above a tuple

constexpr size_t kMaxDepth = 100000;

}  // namespace

struct DistributedQuerier::Impl {
  enum class Kind { kExspan, kBasic, kAdvanced };
  Kind kind = Kind::kBasic;
  const ExspanRecorder* exspan = nullptr;
  const BasicRecorder* basic = nullptr;
  const AdvancedRecorder* advanced = nullptr;
  const Program* program = nullptr;
  const FunctionRegistry* fns = nullptr;

  // One in-flight query.
  struct Ctx {
    Tuple output;
    std::optional<Vid> evid;
    NodeId origin = kNullNode;
    SimTime start = 0;
    uint64_t qid = 0;  // trace span key / query sequence number
    int pending = 0;   // active branch tokens
    bool failed = false;
    // The callback fired (result, failure, or deadline); late branch
    // completions must not fire it again.
    bool completed = false;
    Status failure;
    std::vector<ProvTree> trees;
    size_t entries = 0;
    size_t bytes = 0;
    int hops = 0;
    Callback cb;
  };
  using CtxPtr = std::shared_ptr<Ctx>;

  // The protocol driver (defined later in this file); it must outlive
  // every scheduled continuation, so it lives here with the querier.
  std::shared_ptr<void> protocol;
};

DistributedQuerier::DistributedQuerier(const Topology* topology,
                                       EventQueue* queue,
                                       QueryCostModel cost)
    : topology_(topology),
      queue_(queue),
      cost_(cost),
      net_(topology, queue),
      impl_(std::make_unique<Impl>()) {
  DPC_CHECK(topology_ != nullptr);
  DPC_CHECK(queue_ != nullptr);
  net_.SetDeliveryHandler([this](const Message& msg) {
    Status st = HandleMessage(msg);
    if (!st.ok()) {
      DPC_LOG(Warning) << "query frame rejected: " << st.ToString();
    }
  });
}

DistributedQuerier::~DistributedQuerier() = default;

void DistributedQuerier::EnableReliableTransport(TransportOptions options) {
  DPC_CHECK(!impl_->protocol)
      << "EnableReliableTransport must precede the first query";
  transport_ = std::make_unique<ReliableTransport>(&net_, queue_, options);
  transport_->SetDeliveryHandler([this](const Message& msg) {
    Status st = HandleMessage(msg);
    if (!st.ok()) {
      DPC_LOG(Warning) << "query frame rejected: " << st.ToString();
    }
  });
  transport_->SetFailureHandler(
      [this](const Message& msg) { HandleDeliveryFailure(msg); });
}

std::unique_ptr<DistributedQuerier> DistributedQuerier::ForExspan(
    const ExspanRecorder* recorder, const Topology* topology,
    EventQueue* queue, QueryCostModel cost) {
  DPC_CHECK(recorder != nullptr);
  std::unique_ptr<DistributedQuerier> q(
      new DistributedQuerier(topology, queue, cost));
  q->impl_->kind = Impl::Kind::kExspan;
  q->impl_->exspan = recorder;
  return q;
}

std::unique_ptr<DistributedQuerier> DistributedQuerier::ForBasic(
    const BasicRecorder* recorder, const Program* program,
    const FunctionRegistry* fns, const Topology* topology, EventQueue* queue,
    QueryCostModel cost) {
  DPC_CHECK(recorder != nullptr);
  DPC_CHECK(program != nullptr);
  DPC_CHECK(fns != nullptr);
  std::unique_ptr<DistributedQuerier> q(
      new DistributedQuerier(topology, queue, cost));
  q->impl_->kind = Impl::Kind::kBasic;
  q->impl_->basic = recorder;
  q->impl_->program = program;
  q->impl_->fns = fns;
  return q;
}

std::unique_ptr<DistributedQuerier> DistributedQuerier::ForAdvanced(
    const AdvancedRecorder* recorder, const Program* program,
    const FunctionRegistry* fns, const Topology* topology, EventQueue* queue,
    QueryCostModel cost) {
  DPC_CHECK(recorder != nullptr);
  std::unique_ptr<DistributedQuerier> q(
      new DistributedQuerier(topology, queue, cost));
  q->impl_->kind = Impl::Kind::kAdvanced;
  q->impl_->advanced = recorder;
  q->impl_->program = program;
  q->impl_->fns = fns;
  return q;
}

Status DistributedQuerier::HandleMessage(const Message& msg) {
  // `msg.payload` is peer bytes: anything undecodable fails the frame
  // with a Status — never a DPC_CHECK — because a malformed or replayed
  // message must not take the node down.
  ByteReader r(msg.payload);
  auto id = r.GetU64();
  if (!id.ok()) {
    GlobalMetrics().GetCounter("query.malformed_messages").IncrementAt(msg.dst);
    return Status::InvalidArgument("malformed query frame from node " +
                                   std::to_string(msg.src) + ": " +
                                   id.status().ToString());
  }
  auto it = continuations_.find(*id);
  if (it == continuations_.end()) {
    GlobalMetrics()
        .GetCounter("query.unknown_continuations")
        .IncrementAt(msg.dst);
    return Status::NotFound("unknown query continuation " +
                            std::to_string(*id) + " from node " +
                            std::to_string(msg.src));
  }
  auto fn = std::move(it->second.fn);
  continuations_.erase(it);
  fn();
  return Status::OK();
}

void DistributedQuerier::HandleDeliveryFailure(const Message& msg) {
  ByteReader r(msg.payload);
  auto id = r.GetU64();
  if (!id.ok()) return;
  auto it = continuations_.find(*id);
  if (it == continuations_.end()) return;
  auto on_fail = std::move(it->second.on_fail);
  continuations_.erase(it);
  if (on_fail) on_fail();
}

namespace {

// Everything below runs inside the event queue; the helper lambdas close
// over the querier through `self`.
struct Protocol {
  DistributedQuerier* owner;
  const Topology* topo;
  EventQueue* queue;
  MessageChannel* chan;
  const QueryCostModel* cost;
  DistributedQuerier::Impl* impl;
  std::unordered_map<uint64_t, DistributedQuerier::Continuation>*
      continuations;
  uint64_t* next_id;

  using Ctx = DistributedQuerier::Impl::Ctx;
  using CtxPtr = DistributedQuerier::Impl::CtxPtr;

  // --- plumbing -----------------------------------------------------------

  // Fires the callback exactly once per query; late completions (after a
  // deadline already fired it) are dropped.
  void Finish(const CtxPtr& ctx, Result<QueryResult> res) {
    if (ctx->completed) return;
    ctx->completed = true;
    MetricsRegistry& reg = GlobalMetrics();
    if (res.ok()) {
      reg.GetCounter("query.completed").IncrementAt(ctx->origin);
      reg.GetHistogram("query.latency_s").Observe(res->latency_s);
      reg.GetHistogram("query.hops").Observe(res->hops);
    } else {
      reg.GetCounter("query.failed").IncrementAt(ctx->origin);
    }
    if (Trace().enabled()) {
      Trace().AsyncEnd(ctx->origin, TraceCat::kQuery, "query", ctx->qid,
                       res.ok() ? "\"outcome\": \"ok\", \"trees\": " +
                                      std::to_string(res->trees.size())
                                : std::string("\"outcome\": \"failed\""));
    }
    ctx->cb(std::move(res));
  }

  void Send(const CtxPtr& ctx, NodeId from, NodeId to, size_t carried,
            std::function<void()> fn) {
    uint64_t id = (*next_id)++;
    DistributedQuerier::Continuation cont;
    cont.fn = std::move(fn);
    // The reliable transport reports an abandoned frame (partitioned or
    // persistently lossy path): its branch fails the query cleanly.
    cont.on_fail = [this, ctx]() {
      Fail(ctx, Status::DeadlineExceeded(
                    "query frame delivery abandoned by transport"));
    };
    (*continuations)[id] = std::move(cont);
    Message msg;
    msg.kind = MessageKind::kQuery;
    msg.src = from;
    msg.dst = to;
    ByteWriter w;
    w.PutU64(id);
    msg.payload = w.Take();
    // Model the carried response size as padding so the per-link transfer
    // time is realistic without allocating or hashing the bytes.
    size_t modeled =
        std::max(msg.payload.size(), carried + cost->request_bytes);
    msg.padding = modeled - msg.payload.size();
    if (from != to) ctx->hops += topo->Distance(from, to);
    if (Trace().enabled()) {
      Trace().Instant(from, TraceCat::kQuery, "hop",
                      "\"qid\": " + std::to_string(ctx->qid) +
                          ", \"to\": " + std::to_string(to) +
                          ", \"bytes\": " + std::to_string(modeled));
    }
    chan->Send(std::move(msg));
  }

  void After(double delay, std::function<void()> fn) {
    queue->ScheduleAfter(delay, std::move(fn));
  }

  void Fetch(const CtxPtr& ctx, size_t entries, size_t bytes) {
    ctx->entries += entries;
    ctx->bytes += bytes;
  }

  double ProcessingDelay(size_t entries, size_t bytes) const {
    return static_cast<double>(entries) * cost->per_entry_s +
           static_cast<double>(bytes) * cost->per_processed_byte_s;
  }

  void Fail(const CtxPtr& ctx, Status status) {
    if (!ctx->failed) {
      ctx->failed = true;
      ctx->failure = std::move(status);
    }
    Release(ctx);
  }

  // Consumes one branch token; completes the query when none remain.
  void Release(const CtxPtr& ctx) {
    if (ctx->pending <= 0) {
      // A duplicate or late branch completion — e.g. a retransmitted
      // frame whose first copy already finished this query. A peer (or
      // the network) can provoke this at will, so it must be a counted
      // no-op rather than a DPC_CHECK abort.
      GlobalMetrics()
          .GetCounter("query.duplicate_responses")
          .IncrementAt(ctx->origin);
      return;
    }
    if (--ctx->pending > 0) return;
    if (ctx->failed) {
      Finish(ctx, ctx->failure);
      return;
    }
    SortAndDedupTrees(ctx->trees);
    if (ctx->trees.empty()) {
      Finish(ctx, Status::NotFound("no derivation found for " +
                                   ctx->output.ToString()));
      return;
    }
    QueryResult res;
    res.trees = std::move(ctx->trees);
    res.latency_s = queue->now() - ctx->start;
    res.entries_touched = ctx->entries;
    res.bytes_transferred = ctx->bytes;
    res.hops = ctx->hops;
    Finish(ctx, std::move(res));
  }

  // --- chain schemes (Basic / Advanced) ------------------------------------

  // Scheme-specific row expansion at (loc, rid).
  Status RowsFor(const CtxPtr& ctx, const NodeRid& at,
                 std::vector<std::pair<QStep, NodeRid>>& out) {
    if (impl->kind == DistributedQuerier::Impl::Kind::kBasic) {
      for (const RuleExecEntry* exec :
           impl->basic->RuleExecAt(at.loc).FindByRid(at.rid)) {
        Fetch(ctx, 1, exec->SerializedSize(true));
        QStep step;
        step.rule_id = exec->rule_id;
        step.loc = exec->rloc;
        size_t slow_begin = 0;
        if (exec->next.IsNull()) {
          if (exec->vids.empty()) {
            return Status::Internal("leaf ruleExec row without event vid");
          }
          step.event_vid = exec->vids[0];
          step.has_event_vid = true;
          slow_begin = 1;
        }
        for (size_t i = slow_begin; i < exec->vids.size(); ++i) {
          const Tuple* st =
              impl->basic->TuplesAt(exec->rloc).Find(exec->vids[i]);
          if (st == nullptr) {
            return Status::NotFound("unresolvable slow-tuple vid");
          }
          Fetch(ctx, 1, st->SerializedSize());
          step.slow.push_back(*st);
        }
        out.emplace_back(std::move(step), exec->next);
      }
      return Status::OK();
    }
    // Advanced (with or without the §5.4 split).
    auto add_step = [&](const std::string& rule_id, NodeId rloc,
                        const std::vector<Vid>& vids,
                        const NodeRid& next) -> Status {
      QStep step;
      step.rule_id = rule_id;
      step.loc = rloc;
      for (const Vid& v : vids) {
        const Tuple* st = impl->advanced->TuplesAt(rloc).Find(v);
        if (st == nullptr) {
          return Status::NotFound("unresolvable slow-tuple vid");
        }
        Fetch(ctx, 1, st->SerializedSize());
        step.slow.push_back(*st);
      }
      out.emplace_back(std::move(step), next);
      return Status::OK();
    };
    if (impl->advanced->inter_class_sharing()) {
      const RuleExecNodeEntry* node =
          impl->advanced->RuleExecNodesAt(at.loc).FindByRid(at.rid);
      if (node == nullptr) return Status::OK();
      for (const RuleExecLinkEntry* link :
           impl->advanced->RuleExecLinksAt(at.loc).FindByRid(at.rid)) {
        Fetch(ctx, 2, node->SerializedSize() + link->SerializedSize());
        DPC_RETURN_NOT_OK(
            add_step(node->rule_id, node->rloc, node->vids, link->next));
      }
      return Status::OK();
    }
    for (const RuleExecEntry* exec :
         impl->advanced->RuleExecAt(at.loc).FindByRid(at.rid)) {
      Fetch(ctx, 1, exec->SerializedSize(true));
      DPC_RETURN_NOT_OK(
          add_step(exec->rule_id, exec->rloc, exec->vids, exec->next));
    }
    return Status::OK();
  }

  // Executes one chain step at `at.loc`; owns one branch token.
  void ChainStep(CtxPtr ctx, NodeRid at, Chain chain, Vid target_evid,
                 size_t carried) {
    size_t depth = chain ? chain->depth : 0;
    if (depth > kMaxDepth) {
      Fail(ctx, Status::Internal("query exceeded depth limit"));
      return;
    }
    std::vector<std::pair<QStep, NodeRid>> rows;
    Status st = RowsFor(ctx, at, rows);
    if (!st.ok()) {
      Fail(ctx, std::move(st));
      return;
    }
    if (rows.empty()) {
      // Dangling reference: this branch dies (Theorem 5 guarantees the
      // true chain survives elsewhere).
      Release(ctx);
      return;
    }
    if (Trace().enabled()) {
      Trace().Instant(at.loc, TraceCat::kQuery, "chain_step",
                      "\"qid\": " + std::to_string(ctx->qid) +
                          ", \"rows\": " + std::to_string(rows.size()) +
                          ", \"depth\": " + std::to_string(depth));
    }
    ctx->pending += static_cast<int>(rows.size()) - 1;
    // Charge what the rows actually occupy on the wire: a fixed ruleExec
    // frame plus the serialized slow tuples (not their count).
    size_t row_bytes = 0;
    for (const auto& [step, _] : rows) {
      row_bytes += 64;
      for (const Tuple& st_tuple : step.slow) {
        row_bytes += st_tuple.SerializedSize();
      }
    }
    double delay = ProcessingDelay(rows.size(), row_bytes);

    After(delay, [this, ctx, at, rows = std::move(rows),
                  chain = std::move(chain), target_evid, carried]() mutable {
      for (auto& [step, next] : rows) {
        Chain branch_chain = Push(chain, std::move(step));
        size_t branch_carried = carried + 96 * branch_chain->depth;
        if (next.IsNull()) {
          FinishChain(ctx, at.loc, std::move(branch_chain), target_evid,
                      branch_carried);
        } else {
          NodeRid next_ref = next;
          Send(ctx, at.loc, next_ref.loc, branch_carried,
               [this, ctx, next_ref, bc = std::move(branch_chain),
                target_evid, branch_carried]() mutable {
                 ChainStep(ctx, next_ref, std::move(bc), target_evid,
                           branch_carried);
               });
        }
      }
    });
  }

  // Leaf reached at `leaf_loc`: retrieve the event, ship the response to
  // the origin, reconstruct there. Owns one branch token.
  void FinishChain(CtxPtr ctx, NodeId leaf_loc, Chain chain, Vid target_evid,
                   size_t carried) {
    const QStep& leaf = chain->step;
    Vid evid = target_evid;
    if (impl->kind == DistributedQuerier::Impl::Kind::kBasic) {
      if (!leaf.has_event_vid) {
        Fail(ctx, Status::Internal("Basic chain leaf lacks an event vid"));
        return;
      }
      evid = leaf.event_vid;
      if (ctx->evid.has_value() && evid != *ctx->evid) {
        Release(ctx);  // filtered out
        return;
      }
    }
    const TupleStore& events =
        impl->kind == DistributedQuerier::Impl::Kind::kBasic
            ? impl->basic->EventsAt(leaf.loc)
            : impl->advanced->EventsAt(leaf.loc);
    const Tuple* event = events.Find(evid);
    if (event == nullptr) {
      Release(ctx);  // another class's branch (§5.6 EVID filter)
      return;
    }
    Fetch(ctx, 1, event->SerializedSize());
    Tuple event_copy = *event;
    size_t response = carried + event_copy.SerializedSize();
    Send(ctx, leaf_loc, ctx->origin, response,
         [this, ctx, chain = std::move(chain),
          event_copy = std::move(event_copy)]() mutable {
           // Step 2 (§4): bottom-up re-execution at the querying node.
           double delay = static_cast<double>(chain->depth) *
                          cost->per_rederivation_s;
           After(delay, [this, ctx, chain = std::move(chain),
                         event_copy = std::move(event_copy)]() {
             ProvTree tree;
             tree.set_event(event_copy);
             Tuple current = event_copy;
             for (const StepList<QStep>* node = chain.get(); node != nullptr;
                  node = node->parent.get()) {
               const QStep& step = node->step;
               const Rule* rule = impl->program->FindRule(step.rule_id);
               if (rule == nullptr) {
                 Release(ctx);
                 return;
               }
               Result<Tuple> head =
                   ReExecuteRule(*rule, current, step.slow, *impl->fns);
               if (!head.ok()) {
                 Release(ctx);  // spurious branch, pruned
                 return;
               }
               tree.AppendStep(ProvStep{step.rule_id, *head, step.slow});
               current = *head;
             }
             if (!tree.empty() && tree.Output() == ctx->output) {
               ctx->trees.push_back(std::move(tree));
             }
             Release(ctx);
           });
         });
  }

  void StartChain(CtxPtr ctx) {
    const ProvTable& prov =
        impl->kind == DistributedQuerier::Impl::Kind::kBasic
            ? impl->basic->ProvAt(ctx->origin)
            : impl->advanced->ProvAt(ctx->origin);
    auto rows = prov.FindByVid(ctx->output.Vid());
    if (rows.empty()) {
      ctx->pending = 1;
      Fail(ctx, Status::NotFound("no prov entry for " +
                                 ctx->output.ToString()));
      return;
    }
    bool with_evid = impl->kind == DistributedQuerier::Impl::Kind::kAdvanced;
    // Rows are variable-length (per-row rule references and evids): charge
    // each row's own serialized size rather than assuming uniformity.
    for (const ProvEntry* row : rows) {
      Fetch(ctx, 1, row->SerializedSize(with_evid));
    }
    std::vector<const ProvEntry*> selected;
    for (const ProvEntry* row : rows) {
      if (with_evid && ctx->evid.has_value() && row->evid != *ctx->evid) {
        continue;
      }
      selected.push_back(row);
    }
    if (selected.empty()) {
      ctx->pending = 1;
      Fail(ctx, Status::NotFound("no derivation found for " +
                                 ctx->output.ToString()));
      return;
    }
    ctx->pending = static_cast<int>(selected.size());
    for (const ProvEntry* row : selected) {
      NodeRid at = row->rule;
      Vid target_evid = row->evid;
      Send(ctx, ctx->origin, at.loc, cost->request_bytes,
           [this, ctx, at, target_evid]() {
             ChainStep(ctx, at, nullptr, target_evid, 0);
           });
    }
  }

  // --- ExSPAN ----------------------------------------------------------

  // Walks the prov/ruleExec rows for `vid` at `loc`; `above` holds the
  // steps already collected between the output and this tuple (the head
  // is the step nearest this tuple). Owns one branch token.
  void ExspanStep(CtxPtr ctx, Vid vid, NodeId loc, ProvSteps above,
                  size_t carried, size_t depth) {
    if (depth > kMaxDepth) {
      Fail(ctx, Status::Internal("query exceeded depth limit"));
      return;
    }
    const Tuple* tuple = impl->exspan->TuplesAt(loc).Find(vid);
    if (tuple == nullptr) tuple = impl->exspan->EventsAt(loc).Find(vid);
    if (tuple == nullptr) {
      Fail(ctx, Status::NotFound("no materialized tuple for vid"));
      return;
    }
    Fetch(ctx, 1, tuple->SerializedSize());
    auto prov_rows = impl->exspan->ProvAt(loc).FindByVid(vid);
    if (prov_rows.empty()) {
      Fail(ctx, Status::NotFound("no prov entry for vid"));
      return;
    }
    for (const ProvEntry* row : prov_rows) {
      Fetch(ctx, 1, row->SerializedSize(false));
    }
    if (Trace().enabled()) {
      Trace().Instant(loc, TraceCat::kQuery, "exspan_step",
                      "\"qid\": " + std::to_string(ctx->qid) +
                          ", \"rows\": " + std::to_string(prov_rows.size()) +
                          ", \"depth\": " + std::to_string(depth));
    }
    ctx->pending += static_cast<int>(prov_rows.size()) - 1;
    double delay = ProcessingDelay(1 + prov_rows.size(),
                                   tuple->SerializedSize());
    Tuple tuple_copy = *tuple;
    size_t new_carried = carried + tuple_copy.SerializedSize() + 44;

    After(delay, [this, ctx, loc, prov_rows, above = std::move(above),
                  tuple_copy = std::move(tuple_copy), new_carried,
                  depth]() mutable {
      for (const ProvEntry* row : prov_rows) {
        if (row->rule.IsNull()) {
          // Base/input leaf: the derivation is complete.
          if (!above) {
            // The queried tuple itself is a base tuple: no derivation.
            Release(ctx);
            continue;
          }
          if (ctx->evid.has_value() && tuple_copy.Vid() != *ctx->evid) {
            Release(ctx);
            continue;
          }
          std::vector<ProvStep> steps;  // leaf first
          steps.reserve(above->depth);
          for (const StepList<ProvStep>* node = above.get(); node != nullptr;
               node = node->parent.get()) {
            steps.push_back(node->step);
          }
          ProvTree tree(tuple_copy, std::move(steps));
          Send(ctx, loc, ctx->origin, new_carried,
               [this, ctx, tree = std::move(tree)]() mutable {
                 if (tree.Output() == ctx->output) {
                   ctx->trees.push_back(std::move(tree));
                 }
                 Release(ctx);
               });
          continue;
        }
        NodeRid rule_ref = row->rule;
        Send(ctx, loc, rule_ref.loc, new_carried,
             [this, ctx, rule_ref, above, tuple_copy, new_carried,
              depth]() mutable {
               ExpandRuleExec(ctx, rule_ref, std::move(above),
                              std::move(tuple_copy), new_carried, depth);
             });
      }
    });
  }

  void ExpandRuleExec(CtxPtr ctx, NodeRid at, ProvSteps above,
                      Tuple derived, size_t carried, size_t depth) {
    auto execs = impl->exspan->RuleExecAt(at.loc).FindByRid(at.rid);
    if (execs.empty()) {
      Fail(ctx, Status::NotFound("dangling RID"));
      return;
    }
    ctx->pending += static_cast<int>(execs.size()) - 1;
    for (const RuleExecEntry* exec : execs) {
      Fetch(ctx, 1, exec->SerializedSize(false));
      if (exec->vids.empty()) {
        Fail(ctx, Status::Internal("ExSPAN ruleExec row without vids"));
        continue;
      }
      std::vector<Tuple> slow;
      bool ok = true;
      size_t slow_bytes = 0;
      for (size_t i = 1; i < exec->vids.size(); ++i) {
        const Tuple* st = impl->exspan->TuplesAt(exec->rloc).Find(
            exec->vids[i]);
        if (st == nullptr) {
          Fail(ctx, Status::NotFound("unresolvable slow-tuple vid"));
          ok = false;
          break;
        }
        Fetch(ctx, 1, st->SerializedSize());
        slow_bytes += st->SerializedSize();
        slow.push_back(*st);
      }
      if (!ok) continue;
      ProvSteps next_above =
          Push(above, ProvStep{exec->rule_id, derived, std::move(slow)});
      double delay = ProcessingDelay(exec->vids.size(), slow_bytes);
      Vid event_vid = exec->vids[0];
      NodeId rloc = exec->rloc;
      size_t next_carried = carried + slow_bytes + 64;
      After(delay, [this, ctx, event_vid, rloc,
                    next_above = std::move(next_above), next_carried,
                    depth]() mutable {
        ExspanStep(ctx, event_vid, rloc, std::move(next_above),
                   next_carried, depth + 1);
      });
    }
  }

  void StartExspan(CtxPtr ctx) {
    ctx->pending = 1;
    ExspanStep(ctx, ctx->output.Vid(), ctx->origin, nullptr, 0, 0);
  }
};

}  // namespace

void DistributedQuerier::QueryAsync(const Tuple& output, const Vid* evid,
                                    SimTime when, double deadline_s,
                                    Callback cb) {
  auto ctx = std::make_shared<Impl::Ctx>();
  ctx->output = output;
  if (evid != nullptr) ctx->evid = *evid;
  ctx->origin = output.Location();
  ctx->cb = std::move(cb);
  if (deadline_s <= 0) deadline_s = default_deadline_s_;

  if (!impl_->protocol) {
    MessageChannel* chan =
        transport_ != nullptr ? static_cast<MessageChannel*>(transport_.get())
                              : &net_;
    auto* proto = new Protocol{this,  topology_,       queue_,
                               chan,  &cost_,          impl_.get(),
                               &continuations_, &next_continuation_};
    impl_->protocol = std::shared_ptr<void>(
        proto, [](void* p) { delete static_cast<Protocol*>(p); });
  }
  Protocol* proto = static_cast<Protocol*>(impl_->protocol.get());
  ctx->qid = next_query_id_++;
  queue_->ScheduleAt(when, [this, proto, ctx]() {
    ctx->start = queue_->now();
    GlobalMetrics().GetCounter("query.started").IncrementAt(ctx->origin);
    if (Trace().enabled()) {
      Trace().AsyncBegin(ctx->origin, TraceCat::kQuery, "query", ctx->qid,
                         "\"output\": \"" + ctx->output.relation() + "\"");
    }
    if (impl_->kind == Impl::Kind::kExspan) {
      proto->StartExspan(ctx);
    } else {
      proto->StartChain(ctx);
    }
  });
  if (deadline_s > 0) {
    // The deadline completes the callback even when loss or a partition
    // orphans every branch; stragglers finishing later are dropped by
    // the `completed` guard.
    queue_->ScheduleAt(when + deadline_s, [ctx, deadline_s]() {
      if (ctx->completed) return;
      ctx->completed = true;
      MetricsRegistry& reg = GlobalMetrics();
      reg.GetCounter("query.deadline_exceeded").IncrementAt(ctx->origin);
      reg.GetCounter("query.failed").IncrementAt(ctx->origin);
      if (Trace().enabled()) {
        Trace().AsyncEnd(ctx->origin, TraceCat::kQuery, "query", ctx->qid,
                         "\"outcome\": \"deadline_exceeded\"");
      }
      ctx->cb(Status::DeadlineExceeded(
          "query missed its " + std::to_string(deadline_s) + "s deadline"));
    });
  }
}

Result<QueryResult> DistributedQuerier::QueryAndWait(const Tuple& output,
                                                     const Vid* evid) {
  std::optional<Result<QueryResult>> out;
  QueryAsync(output, evid, queue_->now(),
             [&out](Result<QueryResult> res) { out = std::move(res); });
  queue_->RunAll();
  if (!out.has_value()) {
    // Lost query traffic orphaned every remaining branch and no deadline
    // was set: report it instead of aborting the process.
    return Status::DeadlineExceeded(
        "query did not complete: query traffic was lost in transit for " +
        output.ToString());
  }
  return std::move(*out);
}

}  // namespace dpc
