// Timing decorators over the library's public seams: ProvenanceRecorder
// and MessageChannel. The traced run installs them around the scheme
// recorder, around the WalRecorder (so the WAL's own time is the outer
// span minus its inner scheme spans) and around the Network; the
// untraced run installs none, so it measures the program unchanged.
#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "src/core/recorder.h"
#include "src/net/network.h"

namespace perfbench {

class TimedRecorder final : public dpc::ProvenanceRecorder {
 public:
  // `wal` marks the decorator around a WalRecorder: every hook records
  // under kWal, and metadata coding passes through untimed (the WAL
  // forwards it to the scheme, whose own decorator times it).
  TimedRecorder(dpc::ProvenanceRecorder* inner, SpanLog* log, bool wal)
      : inner_(inner), log_(log), wal_(wal) {}

  std::string name() const override { return inner_->name(); }

  dpc::ProvMeta OnInject(dpc::NodeId node,
                         const dpc::TupleRef& event) override {
    Scope s(log_, wal_ ? kWal : kInject);
    dpc::ProvMeta meta = inner_->OnInject(node, event);
    // Advanced's existFlag: the event joined an equivalence class that
    // already has a tree. The other schemes never share.
    ++(meta.exist_flag ? shared_classes_ : new_classes_);
    return meta;
  }
  dpc::ProvMeta OnRuleFired(dpc::NodeId node, const dpc::Rule& rule,
                            const dpc::TupleRef& event,
                            const dpc::ProvMeta& meta,
                            const std::vector<dpc::TupleRef>& slow,
                            const dpc::TupleRef& head) override {
    Scope s(log_, wal_ ? kWal : kRuleFired);
    return inner_->OnRuleFired(node, rule, event, meta, slow, head);
  }
  void OnOutput(dpc::NodeId node, const dpc::TupleRef& output,
                const dpc::ProvMeta& meta) override {
    Scope s(log_, wal_ ? kWal : kOutput);
    inner_->OnOutput(node, output, meta);
  }
  void OnArrival(dpc::NodeId node, const dpc::TupleRef& tuple,
                 const dpc::ProvMeta& meta) override {
    Scope s(log_, wal_ ? kWal : kArrival);
    inner_->OnArrival(node, tuple, meta);
  }
  bool OnSlowInsert(dpc::NodeId node, const dpc::TupleRef& t) override {
    Scope s(log_, wal_ ? kWal : kSlow);
    return inner_->OnSlowInsert(node, t);
  }
  void OnSlowDelete(dpc::NodeId node, const dpc::Tuple& t) override {
    Scope s(log_, wal_ ? kWal : kSlow);
    inner_->OnSlowDelete(node, t);
  }
  void OnControlSignal(dpc::NodeId node) override {
    Scope s(log_, wal_ ? kWal : kSlow);
    inner_->OnControlSignal(node);
  }
  void SerializeMeta(const dpc::ProvMeta& meta,
                     dpc::ByteWriter& w) const override {
    Scope s(wal_ ? nullptr : log_, kMeta);
    inner_->SerializeMeta(meta, w);
  }
  dpc::Result<dpc::ProvMeta> DeserializeMeta(
      dpc::ByteReader& r) const override {
    Scope s(wal_ ? nullptr : log_, kMeta);
    return inner_->DeserializeMeta(r);
  }

  dpc::StorageBreakdown StorageAt(dpc::NodeId node) const override {
    return inner_->StorageAt(node);
  }
  bool SupportsNodeState() const override {
    return inner_->SupportsNodeState();
  }
  void SerializeNodeState(dpc::NodeId node,
                          dpc::ByteWriter& w) const override {
    inner_->SerializeNodeState(node, w);
  }
  dpc::Status RestoreNodeState(dpc::NodeId node,
                               dpc::ByteReader& r) override {
    return inner_->RestoreNodeState(node, r);
  }
  uint64_t StateEpoch(dpc::NodeId node) const override {
    return inner_->StateEpoch(node);
  }

  uint64_t new_classes() const { return new_classes_; }
  uint64_t shared_classes() const { return shared_classes_; }

 private:
  dpc::ProvenanceRecorder* inner_;
  SpanLog* log_;
  bool wal_;
  uint64_t new_classes_ = 0;
  uint64_t shared_classes_ = 0;
};

class TimedChannel final : public dpc::MessageChannel {
 public:
  TimedChannel(dpc::MessageChannel* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  void SetDeliveryHandler(DeliveryHandler handler) override {
    inner_->SetDeliveryHandler(
        [log = log_, handler = std::move(handler)](const dpc::Message& m) {
          Scope s(log, kDeliver);
          handler(m);
        });
  }
  void Send(dpc::Message msg) override {
    Scope s(log_, kSend);
    inner_->Send(std::move(msg));
  }
  void Broadcast(dpc::NodeId from, dpc::Message msg) override {
    Scope s(log_, kSend);
    inner_->Broadcast(from, std::move(msg));
  }

 private:
  dpc::MessageChannel* inner_;
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
