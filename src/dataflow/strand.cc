#include "src/dataflow/strand.h"

#include <algorithm>

#include "src/net/node.h"

namespace p2 {

namespace {

// Evaluates the probe key for an indexed lookup op: one value per probe position,
// in EnsureIndex order (the planner guarantees these expressions are bound and
// non-volatile here).
ValueList ProbeKey(const StrandOp& op, const Bindings& binds, EvalContext& ctx) {
  ValueList key;
  key.reserve(op.probe_positions.size());
  for (size_t pos : op.probe_positions) {
    key.push_back(EvalExpr(*op.pred->args[pos], binds, ctx));
  }
  return key;
}

}  // namespace

// Existential match for negated predicates: bound variables and expressions must
// equal the row's fields; unbound variables are wildcards and bind nothing.
bool MatchesExistentially(const Predicate& pred, const Tuple& tuple,
                          const Bindings& binds, EvalContext& ctx) {
  if (pred.args.size() != tuple.arity()) {
    return false;
  }
  for (size_t i = 0; i < pred.args.size(); ++i) {
    const Expr& arg = *pred.args[i];
    if (arg.kind == Expr::Kind::kVar) {
      const Value* bound = binds.Find(arg.slot);
      if (bound == nullptr) {
        continue;  // wildcard
      }
      if (!(*bound == tuple.field(i))) {
        return false;
      }
      continue;
    }
    if (!(EvalExpr(arg, binds, ctx) == tuple.field(i))) {
      return false;
    }
  }
  return true;
}

bool MatchPredicate(const Predicate& pred, const Tuple& tuple, Bindings* binds,
                    EvalContext& ctx) {
  if (pred.args.size() != tuple.arity()) {
    return false;
  }
  for (size_t i = 0; i < pred.args.size(); ++i) {
    const Expr& arg = *pred.args[i];
    if (arg.kind == Expr::Kind::kVar) {
      const Value* bound = binds->Find(arg.slot);
      if (bound == nullptr) {
        binds->Set(arg.slot, tuple.field(i));
        continue;
      }
      if (!(*bound == tuple.field(i))) {
        return false;
      }
      continue;
    }
    Value want = EvalExpr(arg, *binds, ctx);
    if (!(want == tuple.field(i))) {
      return false;
    }
  }
  return true;
}

Strand::Strand(Node* node, const Rule* rule, const Predicate* trigger,
               std::vector<StrandOp> ops, int num_stages)
    : node_(node),
      rule_(rule),
      trigger_(trigger),
      ops_(std::move(ops)),
      num_stages_(num_stages) {
  trace_target_.strand = this;
  trace_target_.rule_id = rule_->id;
  trace_target_.num_stages = num_stages_;
  stage_open_.assign(static_cast<size_t>(num_stages_) + 1, false);
  for (size_t i = 0; i < rule_->head.args.size(); ++i) {
    if (rule_->head.args[i].agg != AggKind::kNone) {
      has_agg_ = true;
      agg_kind_ = rule_->head.args[i].agg;
      agg_expr_ = rule_->head.args[i].expr.get();
      agg_position_ = i;
      break;
    }
  }
}

void Strand::Trigger(const TupleRef& event) {
  // One context for the whole synchronous execution: virtual time cannot advance
  // mid-strand, so every branch of the join tree sees the same `now` it always did.
  EvalContext ctx{node_->Now(), &node_->rng(), &node_->addr()};
  Bindings binds(rule_->num_slots);
  if (!MatchPredicate(*trigger_, *event, &binds, ctx)) {
    return;
  }
  node_->tracer().OnInput(trace_target_, event, ctx.now);
  batch_.clear();
  RunOps(0, binds, ctx);
  if (has_agg_) {
    // Every op unbinds what it bound before returning, so `binds` again holds exactly
    // what the trigger bound.
    EmitAggregates(binds, ctx);
    batch_.clear();
  }
}

void Strand::RunOps(size_t op_index, Bindings& binds, EvalContext& ctx) {
  if (op_index == ops_.size()) {
    EmitLeaf(binds, ctx);
    return;
  }
  const StrandOp& op = ops_[op_index];
  switch (op.kind) {
    case StrandOp::Kind::kAssign: {
      size_t mark = binds.size();
      binds.Set(op.slot, EvalExpr(*op.expr, binds, ctx));
      RunOps(op_index + 1, binds, ctx);
      binds.TruncateTo(mark);
      return;
    }
    case StrandOp::Kind::kFilter: {
      if (EvalExpr(*op.expr, binds, ctx).Truthy()) {
        RunOps(op_index + 1, binds, ctx);
      }
      return;
    }
    case StrandOp::Kind::kNotExists: {
      bool exists = false;
      auto check = [&](const TupleRef& row) {
        if (MatchesExistentially(*op.pred, *row, binds, ctx)) {
          exists = true;
          return false;  // stop early: one witness suffices
        }
        return true;
      };
      if (op.use_index) {
        size_t rows =
            op.table->ForEachMatch(op.index_id, ProbeKey(op, binds, ctx), ctx.now, check);
        if (metrics_ != nullptr) {
          metrics_->join_probe_rows += rows;
        }
      } else {
        size_t rows = op.table->ForEachLive(ctx.now, check);
        if (metrics_ != nullptr) {
          metrics_->join_scan_rows += rows;
        }
      }
      if (!exists) {
        RunOps(op_index + 1, binds, ctx);
      }
      return;
    }
    case StrandOp::Kind::kJoin: {
      Tracer& tracer = node_->tracer();
      // This stage is seeking new input: signal completion of its previous execution
      // (paper §2.1.2 — the stage-completion signal is "the element seeks new input").
      if (stage_open_[static_cast<size_t>(op.stage)]) {
        tracer.OnStageComplete(trace_target_, op.stage);
        stage_open_[static_cast<size_t>(op.stage)] = false;
      }
      if (op.key_lookup) {
        // O(1) probe: the join binds the table's whole primary key.
        ValueList key_values;
        key_values.reserve(op.table->spec().key_fields.size());
        for (size_t pos : op.table->spec().key_fields) {
          key_values.push_back(EvalExpr(*op.pred->args[pos], binds, ctx));
        }
        TupleRef row = op.table->FindByKey(key_values, ctx.now);
        if (row != nullptr) {
          if (metrics_ != nullptr) {
            ++metrics_->join_probe_rows;
          }
          size_t mark = binds.size();
          if (MatchPredicate(*op.pred, *row, &binds, ctx)) {
            tracer.OnPrecondition(trace_target_, op.stage, row, ctx.now);
            RunOps(op_index + 1, binds, ctx);
          }
          binds.TruncateTo(mark);
        }
        stage_open_[static_cast<size_t>(op.stage)] = true;
        return;
      }
      auto visit = [&](const TupleRef& row) {
        size_t mark = binds.size();
        if (MatchPredicate(*op.pred, *row, &binds, ctx)) {
          tracer.OnPrecondition(trace_target_, op.stage, row, ctx.now);
          RunOps(op_index + 1, binds, ctx);
        }
        binds.TruncateTo(mark);
        return true;
      };
      if (op.use_index) {
        size_t rows =
            op.table->ForEachMatch(op.index_id, ProbeKey(op, binds, ctx), ctx.now, visit);
        if (metrics_ != nullptr) {
          metrics_->join_probe_rows += rows;
        }
      } else {
        size_t rows = op.table->ForEachLive(ctx.now, visit);
        if (metrics_ != nullptr) {
          metrics_->join_scan_rows += rows;
        }
      }
      stage_open_[static_cast<size_t>(op.stage)] = true;
      return;
    }
  }
}

void Strand::EmitLeaf(const Bindings& binds, EvalContext& ctx) {
  if (has_agg_) {
    batch_.push_back(binds);
    return;
  }
  EmitHeadTuple(binds, nullptr, ctx);
}

void Strand::EmitHeadTuple(const Bindings& binds, const Value* agg_result,
                           EvalContext& ctx) {
  const Head& head = rule_->head;
  ValueList fields;
  fields.reserve(head.args.size());
  uint64_t mask = 0;
  for (size_t i = 0; i < head.args.size(); ++i) {
    if (agg_result != nullptr && has_agg_ && i == agg_position_) {
      fields.push_back(*agg_result);
      mask |= (1ULL << i);
      continue;
    }
    const Expr* expr = head.args[i].expr.get();
    if (expr == nullptr) {
      fields.push_back(Value::Null());
      continue;
    }
    if (expr->kind == Expr::Kind::kVar && !binds.Has(expr->slot)) {
      // Unbound head variable: null field; for delete rules this is a wildcard.
      fields.push_back(Value::Null());
      continue;
    }
    fields.push_back(EvalExpr(*expr, binds, ctx));
    mask |= (1ULL << i);
  }
  if (fields.empty() || fields[0].kind() != Value::Kind::kString) {
    ++node_->stats().dead_letters;
    return;
  }
  TupleRef out = Tuple::Make(head.name, std::move(fields));
  node_->tracer().OnOutput(trace_target_, out, ctx.now);
  node_->RouteTuple(out, rule_->is_delete, mask);
}

void Strand::EmitAggregates(const Bindings& trigger_binds, EvalContext& ctx) {
  const Head& head = rule_->head;
  GroupedAggregate groups(agg_kind_);
  for (const Bindings& binds : batch_) {
    ValueList key;
    key.reserve(head.args.size());
    bool key_ok = true;
    for (size_t i = 0; i < head.args.size(); ++i) {
      if (i == agg_position_) {
        continue;
      }
      const Expr* expr = head.args[i].expr.get();
      if (expr == nullptr || !binds.HasAll(expr->reads)) {
        key_ok = false;
        break;
      }
      key.push_back(EvalExpr(*expr, binds, ctx));
    }
    if (!key_ok) {
      continue;
    }
    Value input = agg_expr_ != nullptr ? EvalExpr(*agg_expr_, binds, ctx) : Value::Null();
    groups.Add(key, input);
  }
  if (groups.empty()) {
    // count/sum over an empty match set yield 0 — but only when the group key is
    // fully determined by the triggering event (paper usage: snapshot rule sr8).
    if (agg_kind_ != AggKind::kCount && agg_kind_ != AggKind::kSum) {
      return;
    }
    ValueList key;
    for (size_t i = 0; i < head.args.size(); ++i) {
      if (i == agg_position_) {
        continue;
      }
      const Expr* expr = head.args[i].expr.get();
      if (expr == nullptr || !trigger_binds.HasAll(expr->reads)) {
        return;
      }
      key.push_back(EvalExpr(*expr, trigger_binds, ctx));
    }
    Value zero = Value::Int(0);
    ValueList fields;
    size_t k = 0;
    for (size_t i = 0; i < head.args.size(); ++i) {
      fields.push_back(i == agg_position_ ? zero : key[k++]);
    }
    if (fields.empty() || fields[0].kind() != Value::Kind::kString) {
      ++node_->stats().dead_letters;
      return;
    }
    TupleRef out = Tuple::Make(head.name, std::move(fields));
    node_->tracer().OnOutput(trace_target_, out, ctx.now);
    node_->RouteTuple(out, /*is_delete=*/false, ~0ULL);
    return;
  }
  groups.ForEach([&](const ValueList& key, const Value& result) {
    ValueList fields;
    size_t k = 0;
    for (size_t i = 0; i < head.args.size(); ++i) {
      fields.push_back(i == agg_position_ ? result : key[k++]);
    }
    if (fields.empty() || fields[0].kind() != Value::Kind::kString) {
      ++node_->stats().dead_letters;
      return;
    }
    TupleRef out = Tuple::Make(head.name, std::move(fields));
    node_->tracer().OnOutput(trace_target_, out, ctx.now);
    node_->RouteTuple(out, /*is_delete=*/false, ~0ULL);
  });
}

ContinuousAggRule::ContinuousAggRule(Node* node, const Rule* rule, std::vector<StrandOp> ops,
                                     bool per_group)
    : node_(node), rule_(rule), ops_(std::move(ops)) {
  for (size_t i = 0; i < rule_->head.args.size(); ++i) {
    if (rule_->head.args[i].agg != AggKind::kNone) {
      agg_kind_ = rule_->head.args[i].agg;
      agg_expr_ = rule_->head.args[i].expr.get();
      agg_position_ = i;
      break;
    }
  }
  if (per_group) {
    for (const StrandOp& op : ops_) {
      if (op.kind == StrandOp::Kind::kJoin) {
        body_ = op.table;
      }
    }
  }
}

std::vector<std::string> ContinuousAggRule::BodyTableNames() const {
  std::vector<std::string> names;
  for (const StrandOp& op : ops_) {
    if (op.kind == StrandOp::Kind::kJoin) {
      names.push_back(op.pred->name);
    }
  }
  return names;
}

ValueList ContinuousAggRule::GroupKey(const Bindings& binds, bool* ok,
                                      EvalContext& ctx) {
  ValueList key;
  *ok = true;
  for (size_t i = 0; i < rule_->head.args.size(); ++i) {
    if (i == agg_position_) {
      continue;
    }
    const Expr* expr = rule_->head.args[i].expr.get();
    if (expr == nullptr || !binds.HasAll(expr->reads)) {
      *ok = false;
      return key;
    }
    key.push_back(EvalExpr(*expr, binds, ctx));
  }
  return key;
}

void ContinuousAggRule::Recurse(size_t op_index, Bindings& binds, GroupedAggregate* groups,
                                EvalContext& ctx) {
  if (op_index == ops_.size()) {
    bool ok = false;
    ValueList key = GroupKey(binds, &ok, ctx);
    if (ok) {
      Value input = agg_expr_ != nullptr ? EvalExpr(*agg_expr_, binds, ctx) : Value::Null();
      groups->Add(key, input);
    }
    return;
  }
  const StrandOp& op = ops_[op_index];
  switch (op.kind) {
    case StrandOp::Kind::kAssign: {
      size_t mark = binds.size();
      binds.Set(op.slot, EvalExpr(*op.expr, binds, ctx));
      Recurse(op_index + 1, binds, groups, ctx);
      binds.TruncateTo(mark);
      return;
    }
    case StrandOp::Kind::kFilter: {
      if (EvalExpr(*op.expr, binds, ctx).Truthy()) {
        Recurse(op_index + 1, binds, groups, ctx);
      }
      return;
    }
    case StrandOp::Kind::kNotExists: {
      bool exists = false;
      auto check = [&](const TupleRef& row) {
        if (MatchesExistentially(*op.pred, *row, binds, ctx)) {
          exists = true;
          return false;
        }
        return true;
      };
      if (op.use_index) {
        size_t rows =
            op.table->ForEachMatch(op.index_id, ProbeKey(op, binds, ctx), ctx.now, check);
        if (metrics_ != nullptr) {
          metrics_->join_probe_rows += rows;
        }
      } else {
        size_t rows = op.table->ForEachLive(ctx.now, check);
        if (metrics_ != nullptr) {
          metrics_->join_scan_rows += rows;
        }
      }
      if (!exists) {
        Recurse(op_index + 1, binds, groups, ctx);
      }
      return;
    }
    case StrandOp::Kind::kJoin: {
      if (op.key_lookup) {
        ValueList key_values;
        key_values.reserve(op.table->spec().key_fields.size());
        for (size_t pos : op.table->spec().key_fields) {
          key_values.push_back(EvalExpr(*op.pred->args[pos], binds, ctx));
        }
        TupleRef row = op.table->FindByKey(key_values, ctx.now);
        if (row != nullptr) {
          if (metrics_ != nullptr) {
            ++metrics_->join_probe_rows;
          }
          size_t mark = binds.size();
          if (MatchPredicate(*op.pred, *row, &binds, ctx)) {
            Recurse(op_index + 1, binds, groups, ctx);
          }
          binds.TruncateTo(mark);
        }
        return;
      }
      auto visit = [&](const TupleRef& row) {
        size_t mark = binds.size();
        if (MatchPredicate(*op.pred, *row, &binds, ctx)) {
          Recurse(op_index + 1, binds, groups, ctx);
        }
        binds.TruncateTo(mark);
        return true;
      };
      if (op.use_index) {
        size_t rows =
            op.table->ForEachMatch(op.index_id, ProbeKey(op, binds, ctx), ctx.now, visit);
        if (metrics_ != nullptr) {
          metrics_->join_probe_rows += rows;
        }
      } else {
        size_t rows = op.table->ForEachLive(ctx.now, visit);
        if (metrics_ != nullptr) {
          metrics_->join_scan_rows += rows;
        }
      }
      return;
    }
  }
}

bool ContinuousAggRule::BindRow(const Tuple* row, Bindings* binds, EvalContext& ctx) {
  for (const StrandOp& op : ops_) {
    switch (op.kind) {
      case StrandOp::Kind::kJoin:
        if (row == nullptr) {
          return true;
        }
        if (!MatchPredicate(*op.pred, *row, binds, ctx)) {
          return false;
        }
        break;
      case StrandOp::Kind::kAssign:
        binds->Set(op.slot, EvalExpr(*op.expr, *binds, ctx));
        break;
      case StrandOp::Kind::kFilter:
        if (!EvalExpr(*op.expr, *binds, ctx).Truthy()) {
          return false;
        }
        break;
      case StrandOp::Kind::kNotExists:
        return false;  // never planned onto the per-group path
    }
  }
  return true;
}

ContinuousAggRule::GroupMap::iterator ContinuousAggRule::GroupOf(const Tuple& row,
                                                                 bool create,
                                                                 EvalContext& ctx) {
  Bindings binds(rule_->num_slots);
  bool ok = false;
  ValueList key;
  if (BindRow(&row, &binds, ctx)) {
    key = GroupKey(binds, &ok, ctx);
  }
  if (!ok) {
    return groups_.end();
  }
  std::string ks = GroupedAggregate::KeyString(key);
  return create ? groups_.try_emplace(std::move(ks)).first : groups_.find(ks);
}

void ContinuousAggRule::AddMember(const TupleRef& row, uint64_t seq, EvalContext& ctx) {
  auto group = GroupOf(*row, /*create=*/true, ctx);
  if (group == groups_.end()) {
    return;
  }
  std::vector<Member>& members = group->second.members;
  // New rows arrive in seq order; only a replace lands mid-group.
  auto at = members.end();
  if (!members.empty() && members.back().seq > seq) {
    at = std::upper_bound(members.begin(), members.end(), seq,
                          [](uint64_t s, const Member& m) { return s < m.seq; });
  }
  members.insert(at, Member{seq, row});
  Touch(group);
}

void ContinuousAggRule::RemoveMember(const Tuple& row, uint64_t seq, EvalContext& ctx) {
  auto group = GroupOf(row, /*create=*/false, ctx);
  if (group == groups_.end()) {
    return;
  }
  std::vector<Member>& members = group->second.members;
  auto at = std::lower_bound(members.begin(), members.end(), seq,
                             [](const Member& m, uint64_t s) { return m.seq < s; });
  if (at != members.end() && at->seq == seq) {
    members.erase(at);
  }
  Touch(group);
}

void ContinuousAggRule::Touch(GroupMap::iterator group) {
  if (!group->second.touched) {
    group->second.touched = true;
    touched_.push_back(group);
  }
}

void ContinuousAggRule::Observe(const TableEvent& event) {
  if (body_ == nullptr || !seeded_) {
    return;  // before the first re-evaluation, its walk picks up every row
  }
  // Group keys are non-volatile, so no random stream is needed (or drawn).
  EvalContext ctx{node_->Now(), nullptr, &node_->addr()};
  if (event.displaced != nullptr) {
    // A replace keeps the row's place: the displaced tuple leaves its group and the
    // new one joins its own (possibly the same) at the same seq.
    RemoveMember(**event.displaced, event.seq, ctx);
  }
  if (event.change == TableChange::kInsert) {
    AddMember(event.tuple, event.seq, ctx);
  } else {
    RemoveMember(*event.tuple, event.seq, ctx);
  }
}

std::vector<ContinuousAggRule::Fresh> ContinuousAggRule::RegroupAll(EvalContext& ctx) {
  GroupedAggregate groups(agg_kind_);
  Bindings binds(rule_->num_slots);
  Recurse(0, binds, &groups, ctx);
  // Every group is in scope: each one with a result now, then each earlier emission
  // that has none (a vanished group).
  std::vector<Fresh> scope;
  groups.ForEach([&](const ValueList& key, const Value& result) {
    auto group = groups_.try_emplace(GroupedAggregate::KeyString(key)).first;
    group->second.touched = true;
    scope.push_back({group, true, key, result});
  });
  for (auto group = groups_.begin(); group != groups_.end(); ++group) {
    if (!group->second.touched) {
      scope.push_back({group, false, {}, {}});
    }
    group->second.touched = false;
  }
  return scope;
}

std::vector<ContinuousAggRule::Fresh> ContinuousAggRule::RegroupTouched(EvalContext& ctx) {
  Bindings binds(rule_->num_slots);
  // Expire (or, the first time, walk) the body table exactly where the full path's
  // scan would: its kExpire notifications touch groups here and re-dirty the rule.
  if (BindRow(nullptr, &binds, ctx)) {
    if (seeded_) {
      body_->ExpireStale(ctx.now);
    } else {
      size_t rows = body_->ForEachLiveRow(ctx.now, [&](const TupleRef& row, uint64_t seq) {
        AddMember(row, seq, ctx);
        return true;
      });
      seeded_ = true;
      if (metrics_ != nullptr) {
        metrics_->join_scan_rows += rows;
      }
    }
  }
  std::sort(touched_.begin(), touched_.end(),
            [](GroupMap::iterator a, GroupMap::iterator b) { return a->first < b->first; });
  std::vector<Fresh> scope;
  scope.reserve(touched_.size());
  size_t rows = 0;
  for (GroupMap::iterator group : touched_) {
    group->second.touched = false;
    const std::vector<Member>& members = group->second.members;
    Fresh fresh{group, false, {}, {}};
    Aggregator agg(agg_kind_);
    // Members in table order, as the full path's scan feeds them: min/max keep the
    // first of equal values, sums add in that order, and the first member names the
    // group.
    for (const Member& m : members) {
      bool first = &m == &members.front();
      if (first || agg_expr_ != nullptr) {
        binds.TruncateTo(0);
        BindRow(m.row.get(), &binds, ctx);  // holds: only matching rows are members
      }
      if (first) {
        bool ok = false;
        fresh.key = GroupKey(binds, &ok, ctx);
      }
      agg.Add(agg_expr_ != nullptr ? EvalExpr(*agg_expr_, binds, ctx) : Value::Null());
    }
    rows += members.size();
    if (!members.empty() && agg.HasResult()) {
      fresh.has_result = true;
      fresh.result = agg.Result();
    }
    scope.push_back(std::move(fresh));
  }
  touched_.clear();
  if (metrics_ != nullptr) {
    metrics_->join_probe_rows += rows;
  }
  return scope;
}

void ContinuousAggRule::EmitResult(const ValueList& key, const Value& result) {
  ValueList fields;
  size_t k = 0;
  for (size_t i = 0; i < rule_->head.args.size(); ++i) {
    fields.push_back(i == agg_position_ ? result : key[k++]);
  }
  if (fields.empty() || fields[0].kind() != Value::Kind::kString) {
    ++node_->stats().dead_letters;
    return;
  }
  node_->RouteTuple(Tuple::Make(rule_->head.name, std::move(fields)), false, ~0ULL);
}

void ContinuousAggRule::Publish(std::vector<Fresh>& scope) {
  // New and changed groups first, in key order.
  for (Fresh& fresh : scope) {
    if (!fresh.has_result) {
      continue;
    }
    Group& group = fresh.group->second;
    if (!group.emitted || !(group.result == fresh.result)) {
      EmitResult(fresh.key, fresh.result);
    }
    group.emitted = true;
    group.key = std::move(fresh.key);
    group.result = std::move(fresh.result);
  }
  // Then vanished groups, in key order: a materialized result row is retracted
  // (otherwise a `delete` rule clearing the underlying table would see its cleanup
  // resurrected as a zero row); an unmaterialized count head emits a final zero event.
  for (Fresh& fresh : scope) {
    Group& group = fresh.group->second;
    if (fresh.has_result || !group.emitted) {
      continue;
    }
    group.emitted = false;
    if (node_->catalog().IsMaterialized(rule_->head.name)) {
      ValueList fields;
      uint64_t mask = 0;
      size_t k = 0;
      for (size_t i = 0; i < rule_->head.args.size(); ++i) {
        if (i == agg_position_) {
          fields.push_back(Value::Null());  // wildcard
        } else {
          fields.push_back(group.key[k++]);
          mask |= (1ULL << i);
        }
      }
      if (!fields.empty() && fields[0].kind() == Value::Kind::kString) {
        node_->RouteTuple(Tuple::Make(rule_->head.name, std::move(fields)),
                          /*is_delete=*/true, mask);
      }
    } else if (agg_kind_ == AggKind::kCount) {
      EmitResult(group.key, Value::Int(0));
    }
  }
  for (Fresh& fresh : scope) {
    if (!fresh.group->second.emitted && fresh.group->second.members.empty()) {
      groups_.erase(fresh.group);
    }
  }
}

void ContinuousAggRule::Reevaluate() {
  ++node_->stats().agg_reevals;
  EvalContext ctx{node_->Now(), &node_->rng(), &node_->addr()};
  std::vector<Fresh> scope = body_ != nullptr ? RegroupTouched(ctx) : RegroupAll(ctx);
  Publish(scope);
}

}  // namespace p2
