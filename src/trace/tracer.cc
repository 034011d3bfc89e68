#include "src/trace/tracer.h"

#include <algorithm>

#include "src/trace/forensics.h"

namespace p2 {

Tracer::Tracer(std::string node_addr, TupleStore* store, size_t max_records_per_rule)
    : node_addr_(std::move(node_addr)),
      store_(store),
      max_records_per_rule_(max_records_per_rule == 0 ? 1 : max_records_per_rule) {}

void Tracer::AttachTables(Table* rule_exec, Table* tuple_table) {
  rule_exec_ = rule_exec;
  tuple_table_ = tuple_table;
  // Reference-count GC: when a ruleExec row goes away, the tuples it referred to lose a
  // reference; at zero the tupleTable row and the memoized tuple are dropped.
  rule_exec_->AddListener([this](const TableEvent& e) {
    if (e.change == TableChange::kInsert || in_gc_) {
      return;
    }
    const TupleRef& row = e.tuple;
    if (row->arity() >= 4) {
      in_gc_ = true;
      if (row->field(2).kind() == Value::Kind::kId) {
        DropRef(row->field(2).AsId(), last_now_);
      }
      if (row->field(3).kind() == Value::Kind::kId) {
        DropRef(row->field(3).AsId(), last_now_);
      }
      in_gc_ = false;
    }
  });
}

Tracer::Record* Tracer::FindRecordForStage(RuleRecords& rr, int stage) {
  // Among records whose window contains `stage`, pick the oldest (first come, first
  // served — the execution that reached this stage earliest is the one the stage is
  // currently working for).
  Record* found = nullptr;
  for (Record& rec : rr.records) {
    if (!rec.free && rec.first_stage <= stage && stage <= rec.last_stage &&
        (found == nullptr || rec.seq < found->seq)) {
      found = &rec;
    }
  }
  return found;
}

Tracer::Record* Tracer::AllocateRecord(const TraceTarget& t, RuleRecords& rr) {
  // Prefer a free record; otherwise grow up to the bound; otherwise reuse the oldest.
  Record* chosen = nullptr;
  for (Record& rec : rr.records) {
    if (rec.free) {
      chosen = &rec;
      break;
    }
  }
  if (chosen == nullptr && rr.records.size() < max_records_per_rule_) {
    rr.records.emplace_back();
    chosen = &rr.records.back();
  }
  if (chosen == nullptr) {
    chosen = &rr.records[0];
    for (Record& rec : rr.records) {
      if (rec.seq < chosen->seq) {
        chosen = &rec;
      }
    }
  }
  chosen->free = false;
  chosen->seq = next_record_seq_++;
  chosen->first_stage = t.num_stages >= 1 ? 1 : 0;
  chosen->last_stage = chosen->first_stage;
  chosen->event_id = 0;
  chosen->event = nullptr;
  chosen->event_time = 0;
  chosen->preconds.assign(static_cast<size_t>(t.num_stages) + 1, std::nullopt);
  chosen->precond_tuples.assign(static_cast<size_t>(t.num_stages) + 1, nullptr);
  return chosen;
}

void Tracer::OnInput(const TraceTarget& t, const TupleRef& tuple, double now) {
  if (!enabled_) {
    return;
  }
  last_now_ = now;
  RuleRecords& rr = per_rule_[t.strand];
  Record* rec = AllocateRecord(t, rr);
  rec->event = tuple;
  rec->event_id = store_->Intern(tuple);
  rec->event_time = now;
}

void Tracer::OnPrecondition(const TraceTarget& t, int stage, const TupleRef& tuple,
                            double now) {
  if (!enabled_ || stage < 1 || stage > t.num_stages) {
    return;
  }
  last_now_ = now;
  RuleRecords& rr = per_rule_[t.strand];
  Record* rec = FindRecordForStage(rr, stage);
  if (rec == nullptr) {
    // Extend the record with the latest associated stages (paper §2.1.2).
    for (Record& candidate : rr.records) {
      if (!candidate.free &&
          (rec == nullptr || candidate.last_stage > rec->last_stage ||
           (candidate.last_stage == rec->last_stage && candidate.seq > rec->seq))) {
        rec = &candidate;
      }
    }
    if (rec == nullptr) {
      rec = AllocateRecord(t, rr);  // precondition without input: defensive
    }
    rec->last_stage = std::max(rec->last_stage, stage);
    if (rec->first_stage == 0) {
      rec->first_stage = stage;
    }
  }
  rec->last_stage = std::max(rec->last_stage, stage);
  rec->preconds[static_cast<size_t>(stage)] = std::make_pair(store_->Intern(tuple), now);
  rec->precond_tuples[static_cast<size_t>(stage)] = tuple;
  // A fresh precondition in the middle of a strand invalidates previously observed
  // preconditions to its right (paper §2.1.1): downstream joins will re-fetch.
  for (int j = stage + 1; j <= t.num_stages; ++j) {
    rec->preconds[static_cast<size_t>(j)] = std::nullopt;
    rec->precond_tuples[static_cast<size_t>(j)] = nullptr;
  }
}

void Tracer::OnStageComplete(const TraceTarget& t, int stage) {
  if (!enabled_) {
    return;
  }
  auto it = per_rule_.find(t.strand);
  if (it == per_rule_.end()) {
    return;
  }
  Record* rec = nullptr;
  for (Record& candidate : it->second.records) {
    if (!candidate.free && candidate.first_stage == stage &&
        (rec == nullptr || candidate.seq < rec->seq)) {
      rec = &candidate;
    }
  }
  if (rec != nullptr) {
    rec->first_stage = stage + 1;
    if (rec->first_stage > rec->last_stage || rec->first_stage > t.num_stages) {
      rec->free = true;  // all stages abandoned: the execution has drained
    }
  }
}

void Tracer::OnOutput(const TraceTarget& t, const TupleRef& tuple, double now) {
  if (!enabled_) {
    return;
  }
  last_now_ = now;
  auto it = per_rule_.find(t.strand);
  if (it == per_rule_.end()) {
    return;
  }
  // The output belongs to the record with the highest associated stage.
  Record* rec = nullptr;
  for (Record& candidate : it->second.records) {
    if (candidate.free) {
      continue;
    }
    if (rec == nullptr || candidate.last_stage > rec->last_stage ||
        (candidate.last_stage == rec->last_stage && candidate.seq > rec->seq)) {
      rec = &candidate;
    }
  }
  if (rec == nullptr) {
    return;
  }
  EmitRuleExec(t, *rec, tuple, now);
}

void Tracer::EmitRuleExec(const TraceTarget& t, Record& rec, const TupleRef& output,
                          double now) {
  if (rule_exec_ == nullptr || rec.event == nullptr) {
    return;
  }
  uint64_t out_id = store_->Intern(output);
  // Ensure the output tuple has a tupleTable row even before it is delivered anywhere
  // (its provenance starts here).
  MemoizeArrival(output, node_addr_, 0, now);
  WriteRow(t.rule_id, rec.event_id, rec.event, out_id, output, rec.event_time, now,
           /*is_event=*/true, now);
  for (int stage = 1; stage <= t.num_stages; ++stage) {
    const auto& pc = rec.preconds[static_cast<size_t>(stage)];
    if (pc.has_value()) {
      WriteRow(t.rule_id, pc->first, rec.precond_tuples[static_cast<size_t>(stage)], out_id,
               output, pc->second, now, /*is_event=*/false, now);
    }
  }
}

void Tracer::WriteRow(const std::string& rule_id, uint64_t cause_id, const TupleRef& cause,
                      uint64_t effect_id, const TupleRef& effect, double cause_time,
                      double out_time, bool is_event, double now) {
  ValueList fields;
  fields.reserve(7);
  fields.push_back(Value::Str(node_addr_));
  fields.push_back(Value::Str(rule_id));
  fields.push_back(Value::Id(cause_id));
  fields.push_back(Value::Id(effect_id));
  fields.push_back(Value::Double(cause_time));
  fields.push_back(Value::Double(out_time));
  fields.push_back(Value::Bool(is_event));
  InsertOutcome outcome = rule_exec_->Insert(Tuple::Make("ruleExec", std::move(fields)), now);
  if (outcome != InsertOutcome::kRefreshed) {
    ++rows_written_;
    AddRef(cause_id);
    AddRef(effect_id);
    // Retention dual-write mirrors the live table's refresh suppression, so the
    // store holds the same logical records the table would absent expiry.
    if (forensics_ != nullptr) {
      forensics_->RecordExec(rule_id, cause_id, cause, effect_id, effect, cause_time,
                             out_time, is_event, now);
    }
  }
}

uint64_t Tracer::MemoizeArrival(const TupleRef& tuple, const std::string& src_addr,
                                uint64_t src_tuple_id, double now) {
  uint64_t id = store_->Intern(tuple);
  if (tuple_table_ != nullptr) {
    ValueList fields;
    fields.reserve(5);
    fields.push_back(Value::Str(node_addr_));
    fields.push_back(Value::Id(id));
    fields.push_back(Value::Str(src_addr));
    fields.push_back(Value::Id(src_tuple_id == 0 ? id : src_tuple_id));
    fields.push_back(Value::Str(tuple->LocationSpecifier()));
    tuple_table_->Insert(Tuple::Make("tupleTable", std::move(fields)), now);
  }
  if (forensics_ != nullptr) {
    forensics_->RecordTuple(id, tuple, src_addr, src_tuple_id == 0 ? id : src_tuple_id,
                            now);
  }
  return id;
}

void Tracer::AddRef(uint64_t id) { ++refcounts_[id]; }

void Tracer::DropRef(uint64_t id, double now) {
  auto it = refcounts_.find(id);
  if (it == refcounts_.end()) {
    return;
  }
  if (--it->second > 0) {
    return;
  }
  refcounts_.erase(it);
  store_->Remove(id);
  if (tuple_table_ != nullptr) {
    // Delete the tupleTable row whose TupleID field (position 1) matches.
    ValueList pattern = {Value::Null(), Value::Id(id)};
    std::vector<bool> bound = {false, true};
    tuple_table_->DeleteMatching(pattern, bound, now);
  }
}

}  // namespace p2
