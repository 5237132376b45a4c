#include "src/runtime/system.h"

#include <chrono>
#include <utility>

#include "src/net/shard_engine.h"
#include "src/runtime/batch_eval.h"

#include "src/util/logging.h"

namespace dpc {

thread_local std::vector<System::PendingEvent>* System::tls_collector_ =
    nullptr;
thread_local System* System::tls_collector_owner_ = nullptr;

namespace {

using WallClock = std::chrono::steady_clock;

double WallMicrosSince(WallClock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             WallClock::now() - t0)
             .count() /
         1000.0;
}

}  // namespace

System::System(const Program* program, const Topology* topology,
               MessageChannel* channel, EventQueue* queue,
               FunctionRegistry functions, ProvenanceRecorder* recorder)
    : program_(program),
      plan_(program != nullptr ? PlanProgram(*program) : ProgramPlan{}),
      topology_(topology),
      channel_(channel),
      queue_(queue),
      functions_(std::move(functions)),
      recorder_(recorder) {
  DPC_CHECK(program_ != nullptr);
  DPC_CHECK(topology_ != nullptr);
  DPC_CHECK(channel_ != nullptr);
  DPC_CHECK(queue_ != nullptr);
  dbs_.resize(topology_->num_nodes());
  outputs_.resize(topology_->num_nodes());
  MetricsRegistry& reg = GlobalMetrics();
  metrics_.events_injected = &reg.GetCounter("system.events_injected");
  metrics_.rule_firings = &reg.GetCounter("system.rule_firings");
  metrics_.outputs = &reg.GetCounter("system.outputs");
  metrics_.control_signals = &reg.GetCounter("system.control_signals");
  metrics_.malformed_messages = &reg.GetCounter("system.malformed_messages");
  metrics_.invalid_heads = &reg.GetCounter("system.invalid_heads");
  metrics_.batch_size = &reg.GetHistogram("system.batch_size");
  batched_firings_counters_.reserve(program_->rules().size());
  for (const Rule& r : program_->rules()) {
    batched_firings_counters_.push_back(
        &reg.GetCounter("system.batched_firings." + r.id));
  }
  compiled_.reserve(program_->rules().size());
  for (size_t i = 0; i < program_->rules().size(); ++i) {
    const Rule& r = program_->rules()[i];
    compiled_.emplace_back(r, plan_.rules[i], functions_);
    triggers_[r.EventAtom().relation].rules.push_back(i);
  }
  // Every trigger relation batches: DELP condition 3 (E104, enforced on
  // every Program) keeps head relations out of condition atoms, so no
  // emission can change what a later evaluation reads. Ordinals follow
  // relation-name order.
  uint64_t ordinal = 0;
  for (auto& [relation, trigger] : triggers_) trigger.ordinal = ++ordinal;
  head_triggers_.reserve(program_->rules().size());
  for (const Rule& r : program_->rules()) {
    head_triggers_.push_back(TriggerOf(r.head.relation));
  }
  tracer_ = &Trace();
  channel_->SetDeliveryHandler([this](const Message& msg) {
    Status st = HandleMessage(msg);
    if (!st.ok()) {
      DPC_LOG(Error) << "dropped message from node " << msg.src << ": "
                     << st.ToString();
    }
  });
}

Status System::InsertSlowTuple(const Tuple& t) {
  if (!program_->IsSlowChanging(t.relation())) {
    return Status::InvalidArgument("relation " + t.relation() +
                                   " is not slow-changing in program " +
                                   program_->name());
  }
  NodeId node = t.Location();
  if (node < 0 || node >= topology_->num_nodes()) {
    return Status::OutOfRange("tuple located at unknown node " +
                              std::to_string(node));
  }
  // One shared allocation serves the database row and the recorder's
  // materialization; both see the same memoized VID.
  TupleRef ref = MakeTupleRef(t);
  if (!dbs_[node].Insert(ref)) {
    return Status::OK();  // already present: no state change, no broadcast
  }
  if (replay_log_ != nullptr) {
    replay_log_->RecordSlowInsert(GlobalNow(), t);
  }
  if (recorder_ != nullptr && recorder_->OnSlowInsert(node, ref)) {
    // §5.5: broadcast a sig so every node resets its equivalence cache.
    // The inserting node resets synchronously — there must be no window
    // where its own cache is stale — and the broadcast covers the rest
    // (Network::Broadcast does not echo to the originator).
    stats_.control_signals.fetch_add(1, std::memory_order_relaxed);
    metrics_.control_signals->IncrementAt(node);
    recorder_->OnControlSignal(node);
    Message sig;
    sig.kind = MessageKind::kControl;
    channel_->Broadcast(node, std::move(sig));
  }
  return Status::OK();
}

Status System::DeleteSlowTuple(const Tuple& t) {
  if (!program_->IsSlowChanging(t.relation())) {
    return Status::InvalidArgument("relation " + t.relation() +
                                   " is not slow-changing in program " +
                                   program_->name());
  }
  NodeId node = t.Location();
  if (node < 0 || node >= topology_->num_nodes()) {
    return Status::OutOfRange("tuple located at unknown node " +
                              std::to_string(node));
  }
  if (!dbs_[node].Erase(t)) {
    return Status::NotFound("tuple not present: " + t.ToString());
  }
  if (replay_log_ != nullptr) {
    replay_log_->RecordSlowDelete(GlobalNow(), t);
  }
  // Deletions never invalidate stored provenance (§5.5): provenance is
  // monotone execution history.
  if (recorder_ != nullptr) recorder_->OnSlowDelete(node, t);
  return Status::OK();
}

Status System::ScheduleInject(const Tuple& event, SimTime when) {
  if (event.relation() != program_->input_event_relation()) {
    return Status::InvalidArgument(
        "injected relation " + event.relation() +
        " is not the program's input event relation " +
        program_->input_event_relation());
  }
  // Arity must match r1's event atom: recorders hash equivalence-key
  // attribute positions of the event, and a short tuple must be rejected
  // here with a Status rather than crashing the node at hash time.
  const Atom& event_atom = program_->rules().front().EventAtom();
  if (event.arity() != event_atom.args.size()) {
    return Status::InvalidArgument(
        "injected event " + event.ToString() + " has arity " +
        std::to_string(event.arity()) + " but the program's event atom " +
        event_atom.ToString() + " expects arity " +
        std::to_string(event_atom.args.size()));
  }
  NodeId node = event.Location();
  if (node < 0 || node >= topology_->num_nodes()) {
    return Status::OutOfRange("event located at unknown node " +
                              std::to_string(node));
  }
  if (replay_log_ != nullptr) {
    replay_log_->RecordInject(when, event);
  }
  // The input event relation is r1's event relation, so it has a trigger.
  const Trigger* trigger = TriggerOf(event.relation());
  uint64_t tag = BatchTagFor(node, trigger);
  auto inject = [this, ev = MakeTupleRef(event), node, trigger, tag]() {
    stats_.events_injected.fetch_add(1, std::memory_order_relaxed);
    metrics_.events_injected->IncrementAt(node);
    Dispatch(node, *trigger, ev, ProvMeta{}, /*is_arrival=*/false, tag);
  };
  if (engine_ != nullptr) {
    engine_->ScheduleAtNode(node, when, std::move(inject), tag);
  } else {
    queue_->ScheduleAtTagged(when, tag, std::move(inject));
  }
  return Status::OK();
}

uint64_t System::BatchTagFor(NodeId node, const Trigger* trigger) const {
  if (!batch_eval_ || trigger == nullptr) return 0;
  // (node + 1) keeps the tag nonzero for node 0; the ordinal separates
  // relations landing at the same node at the same instant.
  return (static_cast<uint64_t>(static_cast<uint32_t>(node + 1)) << 32) |
         trigger->ordinal;
}

const System::Trigger* System::TriggerOf(const std::string& relation) const {
  auto it = triggers_.find(relation);
  return it == triggers_.end() ? nullptr : &it->second;
}

ProvMeta System::RunEventHook(NodeId node, const TupleRef& tuple,
                              const ProvMeta& meta, bool is_arrival) {
  if (recorder_ == nullptr) return meta;
  if (is_arrival) {
    // Arrival-side provenance materialization (ExSPAN's shipped
    // (RLoc, RID) row) happens here, on the destination's shard;
    // terminal arrivals get theirs from EmitOutput's OnOutput.
    recorder_->OnArrival(node, tuple, meta);
    return meta;
  }
  if (tracer_->enabled()) {
    auto t0 = WallClock::now();
    ProvMeta m = recorder_->OnInject(node, tuple);
    tracer_->CompleteAt(
        node, TraceCat::kRecorder, "on_inject", NowFor(node),
        "\"wall_us\": " + std::to_string(WallMicrosSince(t0)));
    return m;
  }
  return recorder_->OnInject(node, tuple);
}

void System::Dispatch(NodeId node, const Trigger& trigger,
                      const TupleRef& tuple, const ProvMeta& meta,
                      bool is_arrival, uint64_t tag) {
  if (tls_collector_owner_ == this) {
    // A batch drain is collecting on this thread: defer the event.
    tls_collector_->push_back(PendingEvent{tuple, meta, is_arrival});
    return;
  }
  std::vector<PendingEvent> batch;
  batch.push_back(PendingEvent{tuple, meta, is_arrival});
  // Only the event the queue itself just popped may drain its peers: a
  // direct HandleMessage call (tests, replay) has no queue context, and
  // the next entry must fire at this same instant with this same tag.
  // While another System's drain is in progress on this thread (shared
  // queue, colliding tags) the event runs alone rather than nest a drain.
  EventQueue* q = batch_eval_ && tag != 0 && tls_collector_ == nullptr
                      ? EventQueue::Current()
                      : nullptr;
  if (q != nullptr && q->HeadTagAtNow() == tag) {
    tls_collector_ = &batch;
    tls_collector_owner_ = this;
    q->DrainAtTime(tag);
    tls_collector_ = nullptr;
    tls_collector_owner_ = nullptr;
  }
  ProcessBatch(node, trigger, batch);
}

void System::ProcessBatch(NodeId node, const Trigger& trigger,
                          std::vector<PendingEvent>& batch) {
  // Batch metrics count drained batches only (two or more events).
  const bool drained = batch.size() > 1;
  if (drained) metrics_.batch_size->Observe(static_cast<double>(batch.size()));
  const std::vector<size_t>& rules = trigger.rules;
  std::vector<const Tuple*> events;
  events.reserve(batch.size());
  for (const PendingEvent& pe : batch) events.push_back(pe.tuple.get());

  // Phase A: evaluate each rule once over the whole batch. Pure — reads
  // the local database only — and no emission of Phase B can change what
  // it read (E104: head relations are never condition atoms), so every
  // event sees exactly the state it would have seen tuple-at-a-time.
  bool tracing = tracer_->enabled();
  std::vector<std::vector<BatchEventFirings>> results(rules.size());
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const size_t rule_index = rules[ri];
    auto eval_start = tracing ? WallClock::now() : WallClock::time_point{};
    results[ri] = compiled_[rule_index].FireBatch(events, dbs_[node]);
    if (!drained && !tracing) continue;
    uint64_t firings = 0;
    for (const BatchEventFirings& r : results[ri]) firings += r.firings.size();
    if (drained) {
      batched_firings_counters_[rule_index]->IncrementAt(node, firings);
    }
    if (!tracing) continue;
    std::string args =
        drained ? "\"batch_size\": " + std::to_string(batch.size())
                : "\"plan_steps\": " +
                      std::to_string(plan_.rules[rule_index].steps.size());
    args += ", \"firings\": " + std::to_string(firings) +
            ", \"wall_us\": " + std::to_string(WallMicrosSince(eval_start));
    tracer_->CompleteAt(node, drained ? TraceCat::kBatch : TraceCat::kRule,
                        (drained ? "batch:" : "fire:") +
                            program_->rules()[rule_index].id,
                        NowFor(node), std::move(args));
  }

  // Phase B: emit per event, in batch (= queue sequence) order — the
  // identical interleaving of recorder hooks, sends and outputs as N
  // separate dispatches, so downstream tie-breaks cannot diverge.
  for (size_t e = 0; e < batch.size(); ++e) {
    PendingEvent& pe = batch[e];
    ProvMeta meta = RunEventHook(node, pe.tuple, pe.meta, pe.is_arrival);
    for (size_t ri = 0; ri < rules.size(); ++ri) {
      BatchEventFirings& r = results[ri][e];
      if (!r.status.ok()) {
        DPC_LOG(Error) << "rule " << program_->rules()[rules[ri]].id
                       << " failed: " << r.status.ToString();
        continue;
      }
      for (RuleFiring& f : r.firings) {
        EmitFiring(node, rules[ri], pe.tuple, meta, f);
      }
    }
  }
}

void System::EmitFiring(NodeId node, size_t rule_index, const TupleRef& tuple,
                        const ProvMeta& meta, RuleFiring& f) {
  const Rule& rule = program_->rules()[rule_index];
  stats_.rule_firings.fetch_add(1, std::memory_order_relaxed);
  metrics_.rule_firings->IncrementAt(node);
  // One allocation carries the head through the recorder, the local
  // database / output record, and message construction.
  TupleRef head = MakeTupleRef(std::move(f.head));
  // A head built from untrusted event values can lack an integer
  // location, or name a node outside the topology. Validate before
  // the recorder hook (ExSPAN indexes per-node state by it) and
  // drop the firing (counted) instead of aborting in
  // Tuple::Location or walking off the node array.
  if (!head->HasValidLocation() || head->Location() < 0 ||
      head->Location() >= topology_->num_nodes()) {
    metrics_.invalid_heads->IncrementAt(node);
    DPC_LOG(Error) << "rule " << rule.id
                   << " derived a head without a valid location: "
                   << head->ToString();
    return;
  }
  ProvMeta head_meta = meta;
  if (recorder_ != nullptr) {
    if (tracer_->enabled()) {
      auto t0 = WallClock::now();
      head_meta = recorder_->OnRuleFired(node, rule, tuple, meta,
                                         f.slow_tuples, head);
      tracer_->CompleteAt(node, TraceCat::kRecorder, "on_rule_fired",
                          NowFor(node),
                          "\"rule\": \"" + rule.id + "\", \"wall_us\": " +
                              std::to_string(WallMicrosSince(t0)));
    } else {
      head_meta = recorder_->OnRuleFired(node, rule, tuple, meta,
                                         f.slow_tuples, head);
    }
  }
  const Trigger* head_trigger = head_triggers_[rule_index];
  if (head_trigger != nullptr) {
    // The pipeline continues: ship (or locally deliver) the new event.
    SendEvent(node, head, head_meta, head_trigger);
  } else if (head->Location() == node) {
    EmitOutput(node, head, head_meta);
  } else {
    // Terminal output materialized remotely (e.g. DNS r4's reply).
    SendEvent(node, head, head_meta, nullptr);
  }
}

void System::EmitOutput(NodeId node, const TupleRef& tuple,
                        const ProvMeta& meta) {
  stats_.outputs.fetch_add(1, std::memory_order_relaxed);
  metrics_.outputs->IncrementAt(node);
  dbs_[node].Insert(tuple);
  if (recorder_ != nullptr) {
    if (tracer_->enabled()) {
      auto t0 = WallClock::now();
      recorder_->OnOutput(node, tuple, meta);
      tracer_->CompleteAt(
          node, TraceCat::kRecorder, "on_output", NowFor(node),
          "\"wall_us\": " + std::to_string(WallMicrosSince(t0)));
    } else {
      recorder_->OnOutput(node, tuple, meta);
    }
  }
  outputs_[node].push_back(OutputRecord{*tuple, meta, NowFor(node)});
  if (output_callback_) output_callback_(node, outputs_[node].back());
}

std::vector<uint8_t> System::EncodeEventPayload(const Tuple& tuple,
                                                const ProvMeta& meta) const {
  ByteWriter w;
  w.Reserve(tuple.SerializedSize());
  tuple.Serialize(w);
  if (recorder_ != nullptr) recorder_->SerializeMeta(meta, w);
  return w.Take();
}

void System::SendEvent(NodeId from, const TupleRef& tuple,
                       const ProvMeta& meta, const Trigger* trigger) {
  Message msg;
  msg.kind = MessageKind::kEvent;
  msg.src = from;
  msg.dst = tuple->Location();
  msg.payload = EncodeEventPayload(*tuple, meta);
  // Tag the delivery so same-instant arrivals of a batchable trigger
  // relation drain into one batch at the destination (docs/perf.md). The
  // network attaches the tag to the final-hop delivery entry only.
  msg.batch_tag = BatchTagFor(msg.dst, trigger);
  channel_->Send(std::move(msg));
}

Status System::HandleMessage(const Message& msg) {
  switch (msg.kind) {
    case MessageKind::kControl: {
      stats_.control_signals.fetch_add(1, std::memory_order_relaxed);
      metrics_.control_signals->IncrementAt(msg.dst);
      if (recorder_ != nullptr) recorder_->OnControlSignal(msg.dst);
      return Status::OK();
    }
    case MessageKind::kEvent: {
      // Everything decoded here is untrusted peer bytes: any failure is
      // a counted Status, never a DPC_CHECK (a malformed message must
      // cost the sender a dropped event, not the receiver its process).
      ByteReader r(msg.payload);
      Result<Tuple> tuple = Tuple::Deserialize(r);
      if (!tuple.ok()) {
        metrics_.malformed_messages->IncrementAt(msg.dst);
        return Status::InvalidArgument("bad event payload from node " +
                                       std::to_string(msg.src) + ": " +
                                       tuple.status().ToString());
      }
      if (!tuple->HasValidLocation()) {
        metrics_.malformed_messages->IncrementAt(msg.dst);
        return Status::InvalidArgument(
            "event tuple without an integer location from node " +
            std::to_string(msg.src) + ": " + tuple->ToString());
      }
      ProvMeta meta;
      if (recorder_ != nullptr) {
        Result<ProvMeta> m = recorder_->DeserializeMeta(r);
        if (!m.ok()) {
          metrics_.malformed_messages->IncrementAt(msg.dst);
          return Status::InvalidArgument("bad meta payload from node " +
                                         std::to_string(msg.src) + ": " +
                                         m.status().ToString());
        }
        meta = std::move(m).value();
      }
      NodeId node = msg.dst;
      TupleRef ev = MakeTupleRef(std::move(tuple).value());
      if (const Trigger* trigger = TriggerOf(ev->relation())) {
        Dispatch(node, *trigger, ev, meta, /*is_arrival=*/true,
                 msg.batch_tag);
      } else {
        EmitOutput(node, ev, meta);
      }
      return Status::OK();
    }
    case MessageKind::kQuery:
      metrics_.malformed_messages->IncrementAt(msg.dst);
      return Status::InvalidArgument(
          "unexpected query message in System (query traffic rides the "
          "querier's own network)");
    case MessageKind::kAck:
      // Transport acks are consumed by ReliableTransport; one arriving
      // here means the channel is the raw Network — drop it.
      metrics_.malformed_messages->IncrementAt(msg.dst);
      return Status::InvalidArgument("unexpected transport ack in System");
  }
  return Status::InvalidArgument("unknown message kind");
}

void System::Run(size_t max_events) {
  if (engine_ != nullptr) {
    engine_->RunAll(max_events);
  } else {
    queue_->RunAll(max_events);
  }
}

void System::RunUntil(SimTime t) {
  if (engine_ != nullptr) {
    engine_->RunUntil(t);
  } else {
    queue_->RunUntil(t);
  }
}

SimTime System::NowFor(NodeId node) const {
  return engine_ != nullptr ? engine_->queue(engine_->shard_of(node)).now()
                            : queue_->now();
}

SimTime System::GlobalNow() const {
  return engine_ != nullptr ? engine_->now() : queue_->now();
}

std::vector<OutputRecord> System::AllOutputs() const {
  std::vector<OutputRecord> out;
  for (const auto& per_node : outputs_) {
    out.insert(out.end(), per_node.begin(), per_node.end());
  }
  return out;
}

}  // namespace dpc
