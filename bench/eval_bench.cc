// Microbenchmark: the naive oracle FireRule (full table scans per
// condition atom) vs the runtime's rule executor (CompiledRule: the rule
// compiled once into positional ops over lazily built hash indexes)
// applied per event — a batch of one, as every lone dispatch runs it —
// vs the same executor applied once over a batch of same-relation events.
// Prints a JSON report; the checked-in snapshot lives at BENCH_eval.json.
//
//   r1 h(@L, A, B, C) :- e(@L, A), s1(@L, A, B), s2(@L, B, C).
//
// Every event matches exactly one s1 row, which selects exactly one s2
// row: the naive evaluator still scans both tables per event, while the
// executor does two O(1) index probes. The batch case evaluates 10k
// same-timestamp events (each of 1,000 keys ten times) in one call: the
// per-call scratch and each key group's first probe are shared.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/analysis/planner.h"
#include "src/ndlog/eval.h"
#include "src/ndlog/parser.h"
#include "src/runtime/batch_eval.h"
#include "src/util/logging.h"

namespace dpc {
namespace {

constexpr char kRuleText[] =
    "r1 h(@L, A, B, C) :- e(@L, A), s1(@L, A, B), s2(@L, B, C).";

struct CaseResult {
  int rows = 0;
  double naive_us_per_event = 0;
  double executor_us_per_event = 0;
  double batched_us_per_event = 0;
  double speedup = 0;          // naive / executor
  double batched_speedup = 0;  // executor / batched
};

double MicrosPerEvent(const std::vector<Tuple>& events, size_t iters,
                      const std::function<size_t(const Tuple&)>& fire) {
  size_t total_firings = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t it = 0; it < iters; ++it) {
    for (const Tuple& ev : events) total_firings += fire(ev);
  }
  auto end = std::chrono::steady_clock::now();
  DPC_CHECK(total_firings == iters * events.size());
  double us = std::chrono::duration<double, std::micro>(end - start).count();
  return us / static_cast<double>(iters * events.size());
}

// The executor over one event: what a dispatch that drains no peers runs.
size_t FireOne(const CompiledRule& rule, const Tuple& event,
               const Database& db) {
  std::vector<BatchEventFirings> out = rule.FireBatch({&event}, db);
  DPC_CHECK(out.front().status.ok());
  return out.front().firings.size();
}

// One FireBatch call over the whole event set per iteration — the
// runtime's path when all events land at one simulated instant.
double MicrosPerEventBatched(const CompiledRule& rule,
                             const std::vector<Tuple>& events,
                             const Database& db, size_t iters) {
  std::vector<const Tuple*> batch;
  batch.reserve(events.size());
  for (const Tuple& ev : events) batch.push_back(&ev);
  size_t total_firings = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t it = 0; it < iters; ++it) {
    for (const BatchEventFirings& r : rule.FireBatch(batch, db)) {
      DPC_CHECK(r.status.ok());
      total_firings += r.firings.size();
    }
  }
  auto end = std::chrono::steady_clock::now();
  DPC_CHECK(total_firings == iters * events.size());
  double us = std::chrono::duration<double, std::micro>(end - start).count();
  return us / static_cast<double>(iters * events.size());
}

void FillDb(Database& db, int rows) {
  for (int a = 0; a < rows; ++a) {
    db.Insert(Tuple::Make("s1", 0,
                          {Value::Int(a), Value::Int((a * 7) % rows)}));
    db.Insert(Tuple::Make("s2", 0, {Value::Int(a), Value::Int(a + 1)}));
  }
}

// Warm-up: verifies all three ways agree and builds the lazy indexes
// outside the timed region (as the runtime would after the first event).
void WarmAndCheck(const Rule& rule, const CompiledRule& compiled,
                  const std::vector<Tuple>& events, const Database& db) {
  std::vector<const Tuple*> batch;
  for (const Tuple& ev : events) batch.push_back(&ev);
  std::vector<BatchEventFirings> batched = compiled.FireBatch(batch, db);
  for (size_t i = 0; i < events.size(); ++i) {
    auto naive = FireRule(rule, events[i], db, FunctionRegistry{});
    std::vector<BatchEventFirings> one = compiled.FireBatch({&events[i]}, db);
    DPC_CHECK(naive.ok() && one[0].status.ok() && batched[i].status.ok());
    DPC_CHECK(naive->size() == 1 && one[0].firings.size() == 1 &&
              batched[i].firings.size() == 1);
    DPC_CHECK(naive->front().head == one[0].firings.front().head);
    DPC_CHECK(naive->front().head == batched[i].firings.front().head);
  }
}

CaseResult RunCase(const Rule& rule, const CompiledRule& compiled, int rows,
                   size_t iters) {
  Database db;
  FillDb(db, rows);
  std::vector<Tuple> events;
  for (int a = 0; a < rows; a += (rows > 64 ? rows / 64 : 1)) {
    events.push_back(Tuple::Make("e", 0, {Value::Int(a)}));
  }
  WarmAndCheck(rule, compiled, events, db);

  CaseResult res;
  res.rows = rows;
  FunctionRegistry fns;
  res.naive_us_per_event = MicrosPerEvent(events, iters, [&](const Tuple& ev) {
    return FireRule(rule, ev, db, fns)->size();
  });
  res.executor_us_per_event =
      MicrosPerEvent(events, iters, [&](const Tuple& ev) {
        return FireOne(compiled, ev, db);
      });
  res.batched_us_per_event =
      MicrosPerEventBatched(compiled, events, db, iters);
  res.speedup = res.naive_us_per_event / res.executor_us_per_event;
  res.batched_speedup = res.executor_us_per_event / res.batched_us_per_event;
  return res;
}

// The headline batch case: 10k events of one relation at one simulated
// instant against a 1,000-row table — the runtime drains them into a
// single batch, so the comparison is one FireBatch call vs 10k
// batches of one.
CaseResult RunBatchCase(const Rule& rule, const CompiledRule& compiled,
                        int rows, int num_events, size_t iters) {
  Database db;
  FillDb(db, rows);
  std::vector<Tuple> events;
  events.reserve(static_cast<size_t>(num_events));
  for (int i = 0; i < num_events; ++i) {
    events.push_back(Tuple::Make("e", 0, {Value::Int(i % rows)}));
  }
  WarmAndCheck(rule, compiled, events, db);

  CaseResult res;
  res.rows = rows;
  res.executor_us_per_event =
      MicrosPerEvent(events, iters, [&](const Tuple& ev) {
        return FireOne(compiled, ev, db);
      });
  res.batched_us_per_event =
      MicrosPerEventBatched(compiled, events, db, iters);
  res.batched_speedup = res.executor_us_per_event / res.batched_us_per_event;
  return res;
}

int Main() {
  auto rules = ParseRules(kRuleText);
  DPC_CHECK(rules.ok());
  const Rule& rule = rules->front();
  ProgramPlan plan = PlanRules(*rules);
  FunctionRegistry fns;
  CompiledRule compiled(rule, plan.rules[0], fns);

  std::vector<CaseResult> cases;
  cases.push_back(RunCase(rule, compiled, 10, 4000));
  cases.push_back(RunCase(rule, compiled, 100, 1500));
  cases.push_back(RunCase(rule, compiled, 1000, 300));
  CaseResult batch = RunBatchCase(rule, compiled, 1000,
                                  /*num_events=*/10000, /*iters=*/30);

  std::printf("{\n  \"bench\": \"eval_bench\",\n  \"rule\": \"%s\",\n"
              "  \"cases\": [\n",
              kRuleText);
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::printf("    {\"rows\": %d, \"naive_us_per_event\": %.3f, "
                "\"executor_us_per_event\": %.3f, "
                "\"batched_us_per_event\": %.3f, \"speedup\": %.1f, "
                "\"batched_speedup\": %.1f}%s\n",
                c.rows, c.naive_us_per_event, c.executor_us_per_event,
                c.batched_us_per_event, c.speedup, c.batched_speedup,
                i + 1 < cases.size() ? "," : "");
  }
  std::printf("  ],\n  \"batch_case\": {\"rows\": %d, \"events\": 10000, "
              "\"executor_us_per_event\": %.3f, \"batched_us_per_event\": "
              "%.3f, \"batched_speedup\": %.1f}\n}\n",
              batch.rows, batch.executor_us_per_event,
              batch.batched_us_per_event, batch.batched_speedup);
  return 0;
}

}  // namespace
}  // namespace dpc

int main() { return dpc::Main(); }
