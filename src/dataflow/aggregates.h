// Aggregate computation for OverLog heads: count<*>, min<X>, max<X>, avg<X>.
//
// Two evaluation modes exist (see DESIGN.md §4):
//  * Per-event aggregates — a rule with an event trigger aggregates over the match set
//    produced by one triggering event (count over an empty set yields 0; min/max/avg
//    over an empty set yield nothing).
//  * Continuous aggregates — a rule whose body is entirely materialized re-aggregates
//    when a body table changes: only the groups the change touched when the body reads
//    one table through assignments and filters, else the whole group-by. Only changed
//    groups re-emit (ContinuousAggRule in src/dataflow/strand.h).

#ifndef SRC_DATAFLOW_AGGREGATES_H_
#define SRC_DATAFLOW_AGGREGATES_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/lang/ast.h"
#include "src/runtime/value.h"

namespace p2 {

// Incremental accumulator for one aggregate group.
class Aggregator {
 public:
  explicit Aggregator(AggKind kind) : kind_(kind) {}

  // Feeds one row's aggregate-expression value (ignored for count<*>).
  void Add(const Value& v);

  // Count always has a result (possibly 0); the others require at least one row.
  bool HasResult() const;
  Value Result() const;

 private:
  AggKind kind_;
  uint64_t count_ = 0;
  bool any_ = false;
  Value best_;       // min/max
  double sum_ = 0;   // avg
};

// Group-by accumulation: groups are keyed by the evaluated non-aggregate head args.
class GroupedAggregate {
 public:
  explicit GroupedAggregate(AggKind kind) : kind_(kind) {}

  // Adds a row for the group identified by `key_values`.
  void Add(const ValueList& key_values, const Value& agg_input);

  // Visits each group: fn(key_values, result).
  void ForEach(const std::function<void(const ValueList&, const Value&)>& fn) const;

  bool empty() const { return groups_.empty(); }

  // The group identity: each value's kind and printed form, so Int(7) and Id(7) are
  // separate groups even though they compare equal.
  static std::string KeyString(const ValueList& key);

 private:
  struct Group {
    ValueList key;
    Aggregator agg;
  };
  AggKind kind_;
  std::map<std::string, Group> groups_;
};

}  // namespace p2

#endif  // SRC_DATAFLOW_AGGREGATES_H_
