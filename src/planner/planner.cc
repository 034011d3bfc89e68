#include "src/planner/planner.h"

#include "src/common/strings.h"
#include "src/lang/builtins.h"
#include "src/net/node.h"

namespace p2 {

namespace {

// Validates that every builtin call in `expr` names a known function.
bool CheckBuiltins(const Expr& expr, const std::string& rule_id, std::string* error) {
  if (expr.kind == Expr::Kind::kCall && !IsKnownBuiltin(expr.name)) {
    *error = StrFormat("rule %s: unknown builtin %s", rule_id.c_str(), expr.name.c_str());
    return false;
  }
  for (const ExprPtr& c : expr.children) {
    if (c != nullptr && !CheckBuiltins(*c, rule_id, error)) {
      return false;
    }
  }
  return true;
}

bool CheckRuleBuiltins(const Rule& rule, std::string* error) {
  for (const HeadArg& arg : rule.head.args) {
    if (arg.expr != nullptr && !CheckBuiltins(*arg.expr, rule.id, error)) {
      return false;
    }
  }
  for (const BodyTerm& term : rule.body) {
    if (term.kind == BodyTerm::Kind::kPredicate) {
      for (const ExprPtr& arg : term.pred.args) {
        if (!CheckBuiltins(*arg, rule.id, error)) {
          return false;
        }
      }
    } else if (term.expr != nullptr && !CheckBuiltins(*term.expr, rule.id, error)) {
      return false;
    }
  }
  return true;
}

// True if evaluating `expr` twice can give different results (it calls a volatile
// builtin). Volatile assignments/filters must run once per join result, not once per
// trigger — e.g. paper rule cs2 assigns a fresh f_rand() request ID per finger.
bool IsVolatile(const Expr& expr) {
  if (expr.kind == Expr::Kind::kCall &&
      (expr.name == "f_rand" || expr.name == "f_randID" || expr.name == "f_now")) {
    return true;
  }
  for (const ExprPtr& c : expr.children) {
    if (c != nullptr && IsVolatile(*c)) {
      return true;
    }
  }
  return false;
}

// True when a continuous aggregate can be kept per group (ContinuousAggRule): the body
// reads one table, the other terms are assignments and filters, and nothing in the rule
// is volatile, so the group a row falls in and what it adds depend on that row alone.
bool AggregatesPerGroup(const Rule& rule) {
  const Predicate* lookup = nullptr;
  for (const BodyTerm& term : rule.body) {
    if (term.kind != BodyTerm::Kind::kPredicate) {
      if (IsVolatile(*term.expr)) {
        return false;
      }
      continue;
    }
    if (lookup != nullptr) {
      return false;  // a join or a negation
    }
    lookup = &term.pred;
    for (const ExprPtr& arg : term.pred.args) {
      if (IsVolatile(*arg)) {
        return false;
      }
    }
  }
  for (const HeadArg& arg : rule.head.args) {
    if (arg.expr != nullptr && IsVolatile(*arg.expr)) {
      return false;
    }
  }
  return lookup != nullptr;
}

// The slots that `pred` binds when matched (its plain-variable arguments).
uint64_t BoundVars(const Predicate& pred) {
  uint64_t slots = 0;
  for (const ExprPtr& arg : pred.args) {
    if (arg->kind == Expr::Kind::kVar) {
      slots |= arg->reads;
    }
  }
  return slots;
}

// True when every variable of `expr` is in `bound` (bit s for slot s).
bool ExprReady(const Expr& expr, uint64_t bound) { return (expr.reads & ~bound) == 0; }

// Argument positions of `pred` whose value is computable before the lookup runs:
// constants or expressions over already-bound variables, excluding volatile calls
// (f_rand/f_now must be re-evaluated per row, so they cannot feed a one-shot probe
// key). These form the equality prefix a secondary index can probe on.
std::vector<size_t> BoundEqualityPositions(const Predicate& pred, uint64_t bound) {
  std::vector<size_t> positions;
  for (size_t i = 0; i < pred.args.size(); ++i) {
    const Expr& arg = *pred.args[i];
    if (ExprReady(arg, bound) && !IsVolatile(arg)) {
      positions.push_back(i);
    }
  }
  return positions;
}

// Decides the access path for a non-key-probe lookup op: request (or reuse) a
// secondary index over the bound equality prefix, falling back to a scan when
// nothing is bound or indexes are disabled on this node.
void SelectIndex(StrandOp* op, const Predicate& pred, Table* table, uint64_t bound,
                 Node* node, bool index_joins) {
  if (op->key_lookup || !index_joins || !node->options().use_join_indexes) {
    return;
  }
  std::vector<size_t> positions = BoundEqualityPositions(pred, bound);
  if (positions.empty()) {
    return;  // nothing bound: the scan fallback is all we can do
  }
  if (positions.size() == 1 && positions[0] == 0) {
    // Only the location arg is bound. Every row of a node-local table shares its
    // address, so a location-only key hashes the whole table into one bucket —
    // all maintenance cost, no selectivity. Scan instead.
    return;
  }
  op->use_index = true;
  op->index_id = table->EnsureIndex(positions);
  op->probe_positions = std::move(positions);
}

// Builds the post-trigger op sequence for `rule`, excluding `trigger` (which may be
// null for continuous aggregates). Assignments and filters are placed at the earliest
// point where all their variables are bound. With `index_joins` off, no lookup asks
// for a secondary index (a per-group aggregate never probes its table).
bool BuildOps(const Rule& rule, const Predicate* trigger, Node* node, bool index_joins,
              std::vector<StrandOp>* ops, int* num_stages, std::string* error) {
  uint64_t bound = trigger != nullptr ? BoundVars(*trigger) : 0;

  // Count the joins so volatile terms can be deferred past the last one.
  size_t total_joins = 0;
  for (const BodyTerm& term : rule.body) {
    if (term.kind == BodyTerm::Kind::kPredicate && &term.pred != trigger) {
      ++total_joins;
    }
  }
  // Volatile assignment targets must not feed a join pattern (the join would bind the
  // variable from table rows instead).
  uint64_t join_vars = 0;
  for (const BodyTerm& term : rule.body) {
    if (term.kind == BodyTerm::Kind::kPredicate && &term.pred != trigger) {
      for (const ExprPtr& arg : term.pred.args) {
        join_vars |= arg->reads;
      }
    }
  }
  for (const BodyTerm& term : rule.body) {
    if (term.kind == BodyTerm::Kind::kAssign && IsVolatile(*term.expr) &&
        ((join_vars >> term.slot) & 1) != 0) {
      *error = StrFormat("rule %s: volatile assignment to %s is used in a join pattern",
                         rule.id.c_str(), term.var.c_str());
      return false;
    }
  }

  size_t joins_placed = 0;
  struct PendingTerm {
    const BodyTerm* term;
  };
  std::vector<PendingTerm> pending;

  auto flush_ready = [&]() -> bool {
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto it = pending.begin(); it != pending.end();) {
        const BodyTerm& term = *it->term;
        if (!ExprReady(*term.expr, bound)) {
          ++it;
          continue;
        }
        if (IsVolatile(*term.expr) && joins_placed < total_joins) {
          ++it;  // defer past the last join: evaluate per result row
          continue;
        }
        StrandOp op;
        if (term.kind == BodyTerm::Kind::kAssign) {
          const uint64_t target = uint64_t{1} << term.slot;
          if ((bound & target) != 0) {
            *error = StrFormat("rule %s: variable %s assigned but already bound",
                               rule.id.c_str(), term.var.c_str());
            return false;
          }
          op.kind = StrandOp::Kind::kAssign;
          op.var = &term.var;
          op.slot = term.slot;
          op.expr = term.expr.get();
          bound |= target;
        } else {
          op.kind = StrandOp::Kind::kFilter;
          op.expr = term.expr.get();
        }
        ops->push_back(op);
        it = pending.erase(it);
        progress = true;
      }
    }
    return true;
  };

  int stage = 0;
  std::vector<const BodyTerm*> negated;
  for (const BodyTerm& term : rule.body) {
    if (term.kind == BodyTerm::Kind::kPredicate) {
      if (&term.pred == trigger) {
        continue;
      }
      if (term.negated) {
        // Stratified: negations run after every positive term, once all variables
        // that can bind are bound (remaining ones are existential wildcards).
        negated.push_back(&term);
        continue;
      }
      if (!flush_ready()) {
        return false;
      }
      Table* table = node->catalog().Get(term.pred.name);
      if (table == nullptr) {
        *error = StrFormat(
            "rule %s: predicate %s is neither the rule's event nor a materialized table",
            rule.id.c_str(), term.pred.name.c_str());
        return false;
      }
      StrandOp op;
      op.kind = StrandOp::Kind::kJoin;
      op.pred = &term.pred;
      op.table = table;
      op.stage = ++stage;
      // If every primary-key position is already bound here, the join degenerates to
      // an O(1) key probe.
      const std::vector<size_t>& key_fields = table->spec().key_fields;
      if (!key_fields.empty()) {
        bool covered = true;
        for (size_t pos : key_fields) {
          if (pos >= term.pred.args.size() || !ExprReady(*term.pred.args[pos], bound)) {
            covered = false;
            break;
          }
        }
        op.key_lookup = covered;
      }
      SelectIndex(&op, term.pred, table, bound, node, index_joins);
      ops->push_back(op);
      ++joins_placed;
      bound |= BoundVars(term.pred);
      continue;
    }
    // Assignment / filter: place now if ready, else defer.
    pending.push_back(PendingTerm{&term});
    if (!flush_ready()) {
      return false;
    }
  }
  if (!flush_ready()) {
    return false;
  }
  if (!pending.empty()) {
    const BodyTerm& term = *pending.front().term;
    *error = StrFormat("rule %s: term '%s' references variables that are never bound",
                       rule.id.c_str(), term.ToString().c_str());
    return false;
  }
  for (const BodyTerm* term : negated) {
    Table* table = node->catalog().Get(term->pred.name);
    if (table == nullptr) {
      *error = StrFormat("rule %s: negated predicate %s must be materialized",
                         rule.id.c_str(), term->pred.name.c_str());
      return false;
    }
    StrandOp op;
    op.kind = StrandOp::Kind::kNotExists;
    op.pred = &term->pred;
    op.table = table;
    SelectIndex(&op, term->pred, table, bound, node, index_joins);
    ops->push_back(op);
  }
  *num_stages = stage;
  return true;
}

}  // namespace

bool PlanProgram(const Program& program, Node* node, PlanResult* out, std::string* error) {
  Catalog& catalog = node->catalog();
  for (const Rule& rule : program.rules) {
    if (!CheckRuleBuiltins(rule, error)) {
      return false;
    }
    if (rule.head.name == "periodic") {
      *error = StrFormat("rule %s: cannot derive the builtin periodic event", rule.id.c_str());
      return false;
    }
    // Classify body predicates.
    const Predicate* periodic = nullptr;
    std::vector<const Predicate*> events;
    std::vector<const Predicate*> tables;
    for (const BodyTerm& term : rule.body) {
      if (term.kind != BodyTerm::Kind::kPredicate) {
        continue;
      }
      if (term.negated) {
        if (!catalog.IsMaterialized(term.pred.name)) {
          *error = StrFormat("rule %s: negated predicate %s must be materialized",
                             rule.id.c_str(), term.pred.name.c_str());
          return false;
        }
        continue;  // negated predicates are never triggers
      }
      if (term.pred.name == "periodic") {
        if (periodic != nullptr) {
          *error = StrFormat("rule %s: multiple periodic predicates", rule.id.c_str());
          return false;
        }
        periodic = &term.pred;
      } else if (catalog.IsMaterialized(term.pred.name)) {
        tables.push_back(&term.pred);
      } else {
        events.push_back(&term.pred);
      }
    }
    if (periodic != nullptr && !events.empty()) {
      *error = StrFormat("rule %s: cannot combine periodic with another event",
                         rule.id.c_str());
      return false;
    }
    if (events.size() > 1) {
      *error = StrFormat(
          "rule %s: two transient events (%s, %s) cannot be joined — materialize one",
          rule.id.c_str(), events[0]->name.c_str(), events[1]->name.c_str());
      return false;
    }
    int agg_count = 0;
    for (const HeadArg& arg : rule.head.args) {
      if (arg.agg != AggKind::kNone) {
        ++agg_count;
      }
    }
    if (agg_count > 1) {
      *error = StrFormat("rule %s: at most one aggregate per head", rule.id.c_str());
      return false;
    }
    if (rule.is_delete && agg_count > 0) {
      *error = StrFormat("rule %s: delete rules cannot aggregate", rule.id.c_str());
      return false;
    }

    const Predicate* trigger =
        periodic != nullptr ? periodic : (events.empty() ? nullptr : events[0]);

    if (trigger != nullptr) {
      if (periodic != nullptr) {
        // periodic@N(E, T): arity 3, constant positive period.
        if (periodic->args.size() != 3) {
          *error = StrFormat("rule %s: periodic takes (E, Period)", rule.id.c_str());
          return false;
        }
        Bindings empty(0);
        EvalContext ctx;
        Value period = EvalExpr(*periodic->args[2], empty, ctx);
        if (!period.is_numeric() || period.ToDouble() <= 0) {
          *error = StrFormat("rule %s: periodic period must be a positive constant",
                             rule.id.c_str());
          return false;
        }
        std::vector<StrandOp> ops;
        int num_stages = 0;
        if (!BuildOps(rule, trigger, node, /*index_joins=*/true, &ops, &num_stages, error)) {
          return false;
        }
        auto strand =
            std::make_unique<Strand>(node, &rule, trigger, std::move(ops), num_stages);
        out->periodics.push_back(PlanResult::PeriodicInstall{strand.get(), period.ToDouble()});
        out->strands.push_back(std::move(strand));
        continue;
      }
      std::vector<StrandOp> ops;
      int num_stages = 0;
      if (!BuildOps(rule, trigger, node, /*index_joins=*/true, &ops, &num_stages, error)) {
        return false;
      }
      out->strands.push_back(
          std::make_unique<Strand>(node, &rule, trigger, std::move(ops), num_stages));
      continue;
    }

    // No trigger: the body is entirely materialized.
    if (tables.empty()) {
      *error = StrFormat("rule %s: body has no predicates", rule.id.c_str());
      return false;
    }
    if (agg_count > 0) {
      // Continuous aggregate: per group when the shape allows, else a full group-by
      // on every body-table change.
      bool per_group = AggregatesPerGroup(rule);
      std::vector<StrandOp> ops;
      int num_stages = 0;
      if (!BuildOps(rule, nullptr, node, /*index_joins=*/!per_group, &ops, &num_stages,
                    error)) {
        return false;
      }
      out->agg_rules.push_back(
          std::make_unique<ContinuousAggRule>(node, &rule, std::move(ops), per_group));
      continue;
    }
    // Delta strands: one per materialized body predicate.
    for (const Predicate* delta : tables) {
      std::vector<StrandOp> ops;
      int num_stages = 0;
      if (!BuildOps(rule, delta, node, /*index_joins=*/true, &ops, &num_stages, error)) {
        return false;
      }
      out->strands.push_back(
          std::make_unique<Strand>(node, &rule, delta, std::move(ops), num_stages));
    }
  }
  return true;
}

}  // namespace p2
