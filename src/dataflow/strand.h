// Rule strands: the compiled, executable form of one OverLog rule (paper §2, Figure 1).
//
// The planner translates each rule into a strand: a trigger predicate followed by a
// sequence of operations — table lookups (joins, the strand's stateful "stages"),
// assignments, and selection filters — ending in a head projection that emits (or, for
// `delete` rules, retracts) the result tuple. Strand execution walks the operations
// depth-first over the join alternatives, firing the tracer's input / precondition /
// stage-completion / output taps exactly where P2's dataflow taps sit (Figure 2).
//
// ContinuousAggRule covers rules whose body is entirely materialized and whose head
// aggregates. A body that reads one table through assignments and filters only is kept
// per group: a change re-aggregates just the groups it touched. Any other body is
// recomputed as a full group-by whenever one of its tables changes.

#ifndef SRC_DATAFLOW_STRAND_H_
#define SRC_DATAFLOW_STRAND_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dataflow/aggregates.h"
#include "src/lang/ast.h"
#include "src/lang/expr.h"
#include "src/runtime/table.h"
#include "src/trace/metrics.h"
#include "src/trace/tracer.h"

namespace p2 {

class Node;

// One post-trigger operation in a strand.
struct StrandOp {
  enum class Kind {
    kJoin,       // positive table lookup: one branch per matching row
    kNotExists,  // negated predicate: prune the branch if any row matches
    kAssign,
    kFilter,
  };
  Kind kind = Kind::kFilter;
  int slot = -1;                    // kAssign target's binding slot
  const Predicate* pred = nullptr;  // kJoin / kNotExists
  Table* table = nullptr;           // kJoin / kNotExists
  int stage = 0;                    // kJoin: 1-based stage index
  // kJoin: every primary-key position of `table` is bound at this point, so the join
  // is an O(1) key probe instead of a scan (set by the planner).
  bool key_lookup = false;
  // kJoin / kNotExists: some (but not necessarily all-key) argument positions are
  // bound, so the lookup probes secondary index `index_id` over `probe_positions`
  // instead of scanning. Mutually exclusive with key_lookup (which wins when the
  // whole primary key is bound). Set by the planner when the node enables
  // NodeOptions::use_join_indexes.
  bool use_index = false;
  size_t index_id = 0;
  std::vector<size_t> probe_positions;
  const std::string* var = nullptr; // kAssign target (its name, for introspection)
  const Expr* expr = nullptr;       // kAssign value / kFilter condition
};

// Attempts to unify `pred`'s argument pattern with `tuple`, extending `binds` (bound
// variables must match; unbound variables bind; constants and expressions must evaluate
// equal). Returns false on mismatch — `binds` may then contain partial bindings, so the
// caller must truncate back to its mark. Exposed for tests and shared by strands,
// continuous aggregates, and trigger matching.
bool MatchPredicate(const Predicate& pred, const Tuple& tuple, Bindings* binds,
                    EvalContext& ctx);

class Strand {
 public:
  // `trigger` may be a periodic, event, or table-delta predicate. `num_stages` is the
  // number of kJoin ops in `ops`.
  Strand(Node* node, const Rule* rule, const Predicate* trigger, std::vector<StrandOp> ops,
         int num_stages);

  Strand(const Strand&) = delete;
  Strand& operator=(const Strand&) = delete;

  const std::string& rule_id() const { return rule_->id; }
  const Rule& rule() const { return *rule_; }
  const Predicate& trigger() const { return *trigger_; }
  const std::string& trigger_name() const { return trigger_->name; }
  int num_stages() const { return num_stages_; }
  const std::vector<StrandOp>& ops() const { return ops_; }

  // Runs the strand for one triggering tuple.
  void Trigger(const TupleRef& event);

  // Telemetry handle (owned by the node's MetricsRegistry; null when metrics are
  // disabled). The node times each Trigger into it — see Node::TriggerStrand.
  RuleMetrics* metrics() const { return metrics_; }
  void set_metrics(RuleMetrics* m) { metrics_ = m; }

 private:
  // The evaluation context (virtual now, rng, local address) is built once per
  // Trigger and threaded through: strand execution is synchronous, so virtual time
  // cannot advance mid-strand and rebuilding it per recursion level would only
  // re-run the scheduler clock lookup on every join branch.
  void RunOps(size_t op_index, Bindings& binds, EvalContext& ctx);
  void EmitLeaf(const Bindings& binds, EvalContext& ctx);
  void EmitHeadTuple(const Bindings& binds, const Value* agg_result, EvalContext& ctx);
  // `trigger_binds` holds what the trigger bound (for a zero-count emission).
  void EmitAggregates(const Bindings& trigger_binds, EvalContext& ctx);

  Node* node_;
  const Rule* rule_;
  const Predicate* trigger_;
  std::vector<StrandOp> ops_;
  int num_stages_;
  RuleMetrics* metrics_ = nullptr;
  TraceTarget trace_target_;
  std::vector<bool> stage_open_;  // per join stage: processed input, not yet "sought new"

  // Aggregate-head support.
  bool has_agg_ = false;
  AggKind agg_kind_ = AggKind::kNone;
  const Expr* agg_expr_ = nullptr;  // null for count<*>
  size_t agg_position_ = 0;         // index into head args
  std::vector<Bindings> batch_;     // match set collected for the current trigger
};

// A rule whose body predicates are all materialized and whose head aggregates. Each
// re-evaluation emits only the groups whose result changed; when a group vanishes, a
// materialized result row is retracted and an unmaterialized count emits a zero-count
// tuple once. The planner picks one of two paths from the rule's shape:
//  * per group: one table predicate, then only assignments and filters, nothing
//    volatile, so the group a row falls in and what it adds depend on that row alone.
//    The rule keeps each group's member rows in table order from the table's change
//    notifications (Observe) and re-aggregates only the groups a change touched,
//    emitting exactly what a full recomputation would;
//  * full: any other body (joins, negation, volatile terms) re-runs the whole
//    group-by on every re-evaluation.
class ContinuousAggRule {
 public:
  ContinuousAggRule(Node* node, const Rule* rule, std::vector<StrandOp> ops,
                    bool per_group);

  ContinuousAggRule(const ContinuousAggRule&) = delete;
  ContinuousAggRule& operator=(const ContinuousAggRule&) = delete;

  const std::string& rule_id() const { return rule_->id; }
  const Rule& rule() const { return *rule_; }

  // Names of the body tables whose changes must mark this rule dirty.
  std::vector<std::string> BodyTableNames() const;

  // A change to a body table (the node forwards each one before marking the rule
  // dirty). Keeps group membership current on the per-group path; no-op otherwise.
  void Observe(const TableEvent& event);

  // Re-aggregates (every group, or the touched ones) and emits changed groups.
  void Reevaluate();

  // Telemetry handle, as on Strand (execs counts re-evaluations).
  RuleMetrics* metrics() const { return metrics_; }
  void set_metrics(RuleMetrics* m) { metrics_ = m; }

  bool dirty = false;  // coalesces re-evaluation requests (managed by the node)

 private:
  struct Member {
    uint64_t seq;  // the row's TableEvent::seq
    TupleRef row;
  };
  struct Group {
    std::vector<Member> members;  // per-group path only; ascending seq
    bool touched = false;         // queued in touched_ (or seen, on the full path)
    bool emitted = false;         // key/result hold the last emission
    ValueList key;
    Value result;
  };
  // Keyed by GroupedAggregate::KeyString, so iteration is emission order.
  using GroupMap = std::map<std::string, Group>;
  // A group in scope of one re-evaluation, with its new result if it has one.
  struct Fresh {
    GroupMap::iterator group;
    bool has_result = false;
    ValueList key;
    Value result;
  };

  void Recurse(size_t op_index, Bindings& binds, GroupedAggregate* groups,
               EvalContext& ctx);
  ValueList GroupKey(const Bindings& binds, bool* ok, EvalContext& ctx);
  // Runs the per-group body over one body-table row; false when the row fails it.
  // With `row` null, runs only the ops before the table lookup.
  bool BindRow(const Tuple* row, Bindings* binds, EvalContext& ctx);
  // The group `row` falls in, or groups_.end() (created when `create` is set).
  GroupMap::iterator GroupOf(const Tuple& row, bool create, EvalContext& ctx);
  void AddMember(const TupleRef& row, uint64_t seq, EvalContext& ctx);
  void RemoveMember(const Tuple& row, uint64_t seq, EvalContext& ctx);
  void Touch(GroupMap::iterator group);
  std::vector<Fresh> RegroupAll(EvalContext& ctx);
  std::vector<Fresh> RegroupTouched(EvalContext& ctx);
  // Emits the scope's changed groups, then its vanished ones, and records the result.
  void Publish(std::vector<Fresh>& scope);
  void EmitResult(const ValueList& key, const Value& result);

  Node* node_;
  const Rule* rule_;
  std::vector<StrandOp> ops_;
  RuleMetrics* metrics_ = nullptr;
  AggKind agg_kind_ = AggKind::kNone;
  const Expr* agg_expr_ = nullptr;
  size_t agg_position_ = 0;
  // The per-group path's body table; null on the full path.
  Table* body_ = nullptr;
  // Membership starts at the first re-evaluation, which walks the rows then present.
  bool seeded_ = false;
  GroupMap groups_;  // every group with members or a standing emission
  std::vector<GroupMap::iterator> touched_;
};

}  // namespace p2

#endif  // SRC_DATAFLOW_STRAND_H_
