// Single-rule evaluation by name-keyed bindings: the expression, matching
// and instantiation primitives (shared with the analyzer's constant
// folding and query-time re-execution), and FireRule, the naive reference
// evaluator. Given an event tuple and the local database of slow-changing
// tables, FireRule produces every head tuple derivable by one application
// of the rule, together with the slow-changing tuples that joined (which
// become the provenance of the firing). The runtime evaluates rules with
// the compiled executor (src/runtime/batch_eval.h); FireRule is the oracle
// its tests and benchmark compare against.
#ifndef DPC_NDLOG_EVAL_H_
#define DPC_NDLOG_EVAL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/db/table.h"
#include "src/db/tuple.h"
#include "src/ndlog/ast.h"
#include "src/ndlog/functions.h"
#include "src/util/result.h"

namespace dpc {

// Variable name -> value environment built during matching.
using Bindings = std::unordered_map<std::string, Value>;

// Applies binary operator `op`: the operator semantics every evaluator
// shares. Arithmetic requires integer operands ("+" also concatenates
// strings) and fails with InvalidArgument on division or modulo by zero
// and on any result outside int64 (INT64_MIN % -1 is 0); comparisons work
// on either type (ordered lexicographically for strings).
Result<Value> EvalBinary(Expr::Op op, const Value& lhs, const Value& rhs);

// Evaluates `expr` under `env`, with EvalBinary's operator semantics.
Result<Value> EvalExpr(const Expr& expr, const Bindings& env,
                       const FunctionRegistry& fns);

// Unifies `atom` against `tuple`. On success extends `env` (consistently
// with existing bindings) and returns true. `env` may be partially extended
// on failure; callers either pass a scratch copy or record the extensions
// in a trail (below) and roll them back.
bool MatchAtom(const Atom& atom, const Tuple& tuple, Bindings& env);

// As above, but appends the name of every variable newly bound by this
// call to `trail` (also on failure), so the caller can undo a failed or
// explored match with UndoTrail instead of copying the whole environment
// per candidate tuple.
bool MatchAtom(const Atom& atom, const Tuple& tuple, Bindings& env,
               std::vector<std::string>& trail);

// Removes from `env` every binding recorded in `trail` past `mark`, then
// truncates `trail` back to `mark`. Together with the trailing MatchAtom
// overload this gives join loops O(bindings-touched) rollback.
void UndoTrail(Bindings& env, std::vector<std::string>& trail, size_t mark);

// Instantiates `atom` under a complete `env`; fails if any variable is
// unbound.
Result<Tuple> InstantiateAtom(const Atom& atom, const Bindings& env);

// One derivation produced by a rule firing. The joined condition tuples
// are shared handles onto the database's own rows, so a firing costs no
// tuple copies and downstream consumers (recorders) see the rows' memoized
// identities.
struct RuleFiring {
  Tuple head;
  // The slow-changing condition tuples that joined, in body-atom order.
  std::vector<TupleRef> slow_tuples;
};

// Fires `rule` with `event` as the instance of the rule's event atom,
// joining condition atoms in body order by full table scans and applying
// assignments and constraints at the leaves. Returns every derivation
// (possibly none). The test and benchmark oracle for CompiledRule.
Result<std::vector<RuleFiring>> FireRule(const Rule& rule, const Tuple& event,
                                         const Database& db,
                                         const FunctionRegistry& fns);

}  // namespace dpc

#endif  // DPC_NDLOG_EVAL_H_
