#include "src/core/distributed_query.h"

#include <algorithm>
#include <optional>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace dpc {

struct DistributedQuerier::Impl {
  explicit Impl(QueryWalk w) : walk(std::move(w)) {
    MetricsRegistry& reg = GlobalMetrics();
    metrics.started = &reg.GetCounter("query.started");
    metrics.completed = &reg.GetCounter("query.completed");
    metrics.failed = &reg.GetCounter("query.failed");
    metrics.deadline_exceeded = &reg.GetCounter("query.deadline_exceeded");
    metrics.malformed_messages = &reg.GetCounter("query.malformed_messages");
    metrics.unknown_continuations =
        &reg.GetCounter("query.unknown_continuations");
    metrics.duplicate_responses = &reg.GetCounter("query.duplicate_responses");
    metrics.latency_s = &reg.GetHistogram("query.latency_s");
    metrics.hops = &reg.GetHistogram("query.hops");
  }

  QueryWalk walk;

  // Resolved once: a by-name lookup takes the registry mutex, walks its
  // map and allocates the name, and queries and frames are hot.
  struct Metrics {
    Counter* started;
    Counter* completed;
    Counter* failed;
    Counter* deadline_exceeded;
    Counter* malformed_messages;
    Counter* unknown_continuations;
    Counter* duplicate_responses;
    Histogram* latency_s;
    Histogram* hops;
  } metrics;

  // One in-flight query; the walk charges its reads here.
  struct Ctx final : QueryMeter {
    void Charge(size_t e, size_t b) override {
      entries += e;
      bytes += b;
    }
    const Vid* evid_ptr() const { return evid ? &*evid : nullptr; }

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

DistributedQuerier::DistributedQuerier(QueryWalk walk, EventQueue* queue,
                                       QueryCostModel cost)
    : topology_(&walk.topology()),
      queue_(queue),
      cost_(cost),
      net_(topology_, queue),
      impl_(std::make_unique<Impl>(std::move(walk))) {
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
  return std::unique_ptr<DistributedQuerier>(new DistributedQuerier(
      QueryWalk::ForExspan(recorder, topology), queue, cost));
}

std::unique_ptr<DistributedQuerier> DistributedQuerier::ForBasic(
    const BasicRecorder* recorder, const Program* program,
    const FunctionRegistry* fns, const Topology* topology, EventQueue* queue,
    QueryCostModel cost) {
  return std::unique_ptr<DistributedQuerier>(new DistributedQuerier(
      QueryWalk::ForBasic(recorder, program, fns, topology), queue, cost));
}

std::unique_ptr<DistributedQuerier> DistributedQuerier::ForAdvanced(
    const AdvancedRecorder* recorder, const Program* program,
    const FunctionRegistry* fns, const Topology* topology, EventQueue* queue,
    QueryCostModel cost) {
  return std::unique_ptr<DistributedQuerier>(new DistributedQuerier(
      QueryWalk::ForAdvanced(recorder, program, fns, topology), queue, cost));
}

Status DistributedQuerier::HandleMessage(const Message& msg) {
  // `msg.payload` is peer bytes: anything undecodable fails the frame
  // with a Status — never a DPC_CHECK — because a malformed or replayed
  // message must not take the node down.
  ByteReader r(msg.payload);
  auto id = r.GetU64();
  if (!id.ok()) {
    impl_->metrics.malformed_messages->IncrementAt(msg.dst);
    return Status::InvalidArgument("malformed query frame from node " +
                                   std::to_string(msg.src) + ": " +
                                   id.status().ToString());
  }
  auto it = continuations_.find(*id);
  if (it == continuations_.end()) {
    impl_->metrics.unknown_continuations->IncrementAt(msg.dst);
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
  const QueryWalk* walk;
  std::unordered_map<uint64_t, DistributedQuerier::Continuation>*
      continuations;
  uint64_t* next_id;
  const DistributedQuerier::Impl::Metrics* metrics;

  using Ctx = DistributedQuerier::Impl::Ctx;
  using CtxPtr = DistributedQuerier::Impl::CtxPtr;

  // --- plumbing -----------------------------------------------------------

  // Fires the callback exactly once per query; late completions (after a
  // deadline already fired it) are dropped.
  void Finish(const CtxPtr& ctx, Result<QueryResult> res) {
    if (ctx->completed) return;
    ctx->completed = true;
    if (res.ok()) {
      metrics->completed->IncrementAt(ctx->origin);
      metrics->latency_s->Observe(res->latency_s);
      metrics->hops->Observe(res->hops);
    } else {
      metrics->failed->IncrementAt(ctx->origin);
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
      metrics->duplicate_responses->IncrementAt(ctx->origin);
      return;
    }
    if (--ctx->pending > 0) return;
    if (ctx->failed) {
      Finish(ctx, ctx->failure);
      return;
    }
    Status answered = walk->Finish(ctx->output, ctx->trees);
    if (!answered.ok()) {
      Finish(ctx, std::move(answered));
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

  // --- chain shape (Basic / Advanced) ------------------------------------

  // Reads the output's prov rows at the origin and sends one frame per
  // chain root. Owns one branch token.
  void StartChain(const CtxPtr& ctx) {
    std::vector<ChainRoot> roots;
    Status st = walk->ReadRoots(ctx->output, ctx->evid_ptr(), *ctx, roots);
    if (!st.ok()) {
      Fail(ctx, std::move(st));
      return;
    }
    if (roots.empty()) {
      Release(ctx);  // every root belongs to another event: NotFound
      return;
    }
    ctx->pending += static_cast<int>(roots.size()) - 1;
    for (const ChainRoot& root : roots) {
      Send(ctx, ctx->origin, root.at.loc, cost->request_bytes,
           [this, ctx, root]() {
             ChainStep(ctx, root.at, nullptr, root.evid, 0);
           });
    }
  }

  // Executes one chain step at `at.loc`; owns one branch token.
  void ChainStep(CtxPtr ctx, NodeRid at, ChainPath chain, Vid root_evid,
                 size_t carried) {
    std::vector<WalkRow> rows;
    Status st = walk->ReadRule(at, PathDepth(chain), *ctx, rows);
    if (!st.ok()) {
      Fail(ctx, std::move(st));
      return;
    }
    if (Trace().enabled()) {
      Trace().Instant(at.loc, TraceCat::kQuery, "chain_step",
                      "\"qid\": " + std::to_string(ctx->qid) +
                          ", \"rows\": " + std::to_string(rows.size()) +
                          ", \"depth\": " +
                          std::to_string(PathDepth(chain)));
    }
    ctx->pending += static_cast<int>(rows.size()) - 1;
    // Charge what the rows actually occupy on the wire: a fixed ruleExec
    // frame plus the serialized slow tuples (not their count).
    size_t row_bytes = 0;
    for (const WalkRow& row : rows) {
      row_bytes += 64;
      for (const Tuple& slow : row.slow) row_bytes += slow.SerializedSize();
    }
    double delay = ProcessingDelay(rows.size(), row_bytes);

    After(delay, [this, ctx, at, rows = std::move(rows),
                  chain = std::move(chain), root_evid, carried]() mutable {
      for (WalkRow& row : rows) {
        ChainPath branch = PushStep(chain, std::move(row));
        size_t branch_carried = carried + 96 * branch->depth;
        NodeRid next = branch->step.next;
        if (next.IsNull()) {
          FinishChain(ctx, at.loc, std::move(branch), root_evid,
                      branch_carried);
          continue;
        }
        Send(ctx, at.loc, next.loc, branch_carried,
             [this, ctx, next, branch = std::move(branch), root_evid,
              branch_carried]() mutable {
               ChainStep(ctx, next, std::move(branch), root_evid,
                         branch_carried);
             });
      }
    });
  }

  // Leaf reached at `leaf_loc`: retrieve the event, ship the response to
  // the origin, reconstruct there. Owns one branch token.
  void FinishChain(CtxPtr ctx, NodeId leaf_loc, ChainPath chain,
                   Vid root_evid, size_t carried) {
    const Tuple* event =
        walk->LeafEvent(chain->step, root_evid, ctx->evid_ptr(), *ctx);
    if (event == nullptr) {
      Release(ctx);  // another event's branch
      return;
    }
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
             Result<size_t> rederived = walk->Reconstruct(
                 chain, event_copy, ctx->output, ctx->trees);
             if (!rederived.ok()) {
               Fail(ctx, rederived.status());
               return;
             }
             Release(ctx);
           });
         });
  }

  // --- materialized shape (ExSPAN) ---------------------------------------

  // Reads the tuple `vid` at `loc`; `above` holds the steps already
  // collected between the output and this tuple (the head is the step
  // nearest this tuple). Owns one branch token.
  void ExspanStep(CtxPtr ctx, Vid vid, NodeId loc, TuplePath above,
                  size_t carried) {
    std::vector<NodeRid> rules;
    Result<const Tuple*> tuple =
        walk->ReadTuple(vid, loc, PathDepth(above), *ctx, rules);
    if (!tuple.ok()) {
      Fail(ctx, tuple.status());
      return;
    }
    if (Trace().enabled()) {
      Trace().Instant(loc, TraceCat::kQuery, "exspan_step",
                      "\"qid\": " + std::to_string(ctx->qid) +
                          ", \"rows\": " + std::to_string(rules.size()) +
                          ", \"depth\": " +
                          std::to_string(PathDepth(above)));
    }
    ctx->pending += static_cast<int>(rules.size()) - 1;
    Tuple tuple_copy = **tuple;
    size_t tuple_bytes = tuple_copy.SerializedSize();
    double delay = ProcessingDelay(1 + rules.size(), tuple_bytes);
    size_t new_carried = carried + tuple_bytes + 44;

    After(delay, [this, ctx, loc, rules = std::move(rules),
                  above = std::move(above),
                  tuple_copy = std::move(tuple_copy), new_carried]() {
      for (const NodeRid& rule : rules) {
        if (!rule.IsNull()) {
          Send(ctx, loc, rule.loc, new_carried,
               [this, ctx, rule, above, tuple_copy, new_carried]() {
                 ExpandRuleExec(ctx, rule, above, tuple_copy, new_carried);
               });
          continue;
        }
        // Base tuple: the derivation is complete.
        std::optional<ProvTree> tree =
            walk->BaseTree(tuple_copy, above, ctx->evid_ptr());
        if (!tree.has_value()) {
          Release(ctx);
          continue;
        }
        Send(ctx, loc, ctx->origin, new_carried,
             [this, ctx, tree = std::move(*tree)]() mutable {
               ctx->trees.push_back(std::move(tree));
               Release(ctx);
             });
      }
    });
  }

  // Expands the rule executions at `at` that derived `derived`; each
  // continues at the tuple it consumed. Owns one branch token.
  void ExpandRuleExec(const CtxPtr& ctx, const NodeRid& at,
                      const TuplePath& above, const Tuple& derived,
                      size_t carried) {
    std::vector<WalkRow> rows;
    Status st = walk->ReadRule(at, PathDepth(above), *ctx, rows);
    if (!st.ok()) {
      Fail(ctx, std::move(st));
      return;
    }
    ctx->pending += static_cast<int>(rows.size()) - 1;
    for (WalkRow& row : rows) {
      size_t slow_bytes = 0;
      for (const Tuple& slow : row.slow) slow_bytes += slow.SerializedSize();
      double delay = ProcessingDelay(1 + row.slow.size(), slow_bytes);
      TuplePath next_above =
          PushStep(above, ProvStep{std::move(row.rule_id), derived,
                                   std::move(row.slow)});
      After(delay, [this, ctx, vid = row.vid, loc = row.loc,
                    next_above = std::move(next_above),
                    next_carried = carried + slow_bytes + 64]() mutable {
        ExspanStep(ctx, vid, loc, std::move(next_above), next_carried);
      });
    }
  }

  // Runs at the origin when the query launches; hands the query's first
  // branch token to the walk's shape.
  void Start(const CtxPtr& ctx) {
    ctx->pending = 1;
    Status target = walk->CheckTarget(ctx->output);
    if (!target.ok()) {
      Fail(ctx, std::move(target));
    } else if (walk->materialized()) {
      ExspanStep(ctx, ctx->output.Vid(), ctx->origin, nullptr, 0);
    } else {
      StartChain(ctx);
    }
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
    auto* proto = new Protocol{this,
                               topology_,
                               queue_,
                               chan,
                               &cost_,
                               &impl_->walk,
                               &continuations_,
                               &next_continuation_,
                               &impl_->metrics};
    impl_->protocol = std::shared_ptr<void>(
        proto, [](void* p) { delete static_cast<Protocol*>(p); });
  }
  Protocol* proto = static_cast<Protocol*>(impl_->protocol.get());
  ctx->qid = next_query_id_++;
  queue_->ScheduleAt(when, [this, proto, ctx]() {
    ctx->start = queue_->now();
    impl_->metrics.started->IncrementAt(ctx->origin);
    if (Trace().enabled()) {
      Trace().AsyncBegin(ctx->origin, TraceCat::kQuery, "query", ctx->qid,
                         "\"output\": \"" + ctx->output.relation() + "\"");
    }
    proto->Start(ctx);
  });
  if (deadline_s > 0) {
    // The deadline completes the callback even when loss or a partition
    // orphans every branch; stragglers finishing later are dropped by
    // the `completed` guard.
    // The counters belong to the process-wide registry, so the event
    // keeps working if it outlives this querier.
    queue_->ScheduleAt(when + deadline_s,
                       [ctx, deadline_s,
                        exceeded = impl_->metrics.deadline_exceeded,
                        failed = impl_->metrics.failed]() {
      if (ctx->completed) return;
      ctx->completed = true;
      exceeded->IncrementAt(ctx->origin);
      failed->IncrementAt(ctx->origin);
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
