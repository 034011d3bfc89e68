#include "src/net/node.h"

#include <algorithm>

#include "src/net/network.h"
#include "src/runtime/arena.h"
#include "src/planner/planner.h"
#include "src/trace/introspect.h"

namespace p2 {

BusyTimer::BusyTimer(NodeStats* stats) : stats_(stats), start_ns_(MonotonicNs()) {}

BusyTimer::~BusyTimer() { stats_->busy_ns += MonotonicNs() - start_ns_; }

Node::Node(std::string addr, Network* network, NodeOptions options, Scheduler* sched)
    : addr_(std::move(addr)),
      network_(network),
      sched_(sched),
      options_(options),
      rng_(options.seed) {
  // Arena recycling is process-global (the free lists are thread-local, not
  // per-node), so the toggle is last-writer-wins: fleets are expected to run
  // with a uniform setting. Toggling is always safe — the size-class rounding
  // is applied whether or not recycling is on, so blocks allocated in either
  // mode free correctly in the other.
  TupleArena::SetEnabled(options_.tuple_arenas);
  tracer_ = std::make_unique<Tracer>(addr_, &store_, options_.tracer_records_per_rule);
  InstallBuiltinTables();
  if (options_.forensics.enabled) {
    forensics_ = std::make_unique<ForensicsStore>(addr_, options_.forensics);
    tracer_->set_forensics(forensics_.get());
    options_.tracing = true;  // the store is fed by the tracer's taps
  }
  tracer_->set_enabled(options_.tracing);
  if (options_.metrics) {
    trigger_hist_ = metrics_.GetHistogram("strand_trigger_ns");
  }
  if (options_.introspection) {
    InstallIntrospectionTables(this);
  }
  ScheduleSweep();
}

Node::~Node() = default;

double Node::Now() const { return sched_->Now(); }

void Node::InstallBuiltinTables() {
  TableSpec rule_exec;
  rule_exec.name = "ruleExec";
  rule_exec.lifetime_secs = options_.rule_exec_lifetime;
  rule_exec.max_size = options_.rule_exec_max;
  // Whole-tuple key: every distinct execution record is its own row.
  catalog_.CreateTable(rule_exec);

  TableSpec tuple_table;
  tuple_table.name = "tupleTable";
  tuple_table.lifetime_secs = options_.rule_exec_lifetime;
  tuple_table.max_size = options_.rule_exec_max;
  tuple_table.key_fields = {1};  // TupleID
  catalog_.CreateTable(tuple_table);

  tracer_->AttachTables(catalog_.Get("ruleExec"), catalog_.Get("tupleTable"));
}

bool Node::LoadProgram(const std::string& source, const ParamMap& params,
                       std::string* error) {
  return LoadProgramInternal(source, params, /*low_priority=*/false, error);
}

bool Node::LoadProgramLowPriority(const std::string& source, const ParamMap& params,
                                  std::string* error) {
  return LoadProgramInternal(source, params, /*low_priority=*/true, error);
}

bool Node::LoadProgramInternal(const std::string& source, const ParamMap& params,
                               bool low_priority, std::string* error) {
  std::shared_ptr<const Program> program =
      network_->program_cache().Get(source, params, error);
  if (program == nullptr) {
    return false;
  }
  // Create declared tables first so the planner can classify predicates.
  for (const TableSpec& spec : program->materializations) {
    catalog_.CreateTable(spec);
  }
  // Reject rule ids already loaded from another program: ruleExec provenance keys on
  // them. The parser rejects an id repeated within one program.
  for (const Rule& rule : program->rules) {
    for (const Rule* prior : loaded_rules_) {
      if (prior->id == rule.id) {
        *error = "duplicate rule id: " + rule.id;
        return false;
      }
    }
  }
  PlanResult plan;
  if (!PlanProgram(*program, this, &plan, error)) {
    return false;
  }
  // Install.
  LoadedProgram loaded;
  loaded.id = next_program_id_++;
  loaded.low_priority = low_priority;
  for (const Rule& rule : program->rules) {
    loaded_rules_.push_back(&rule);
  }
  for (auto& strand : plan.strands) {
    loaded.strands.push_back(strand.get());
    if (low_priority) {
      low_priority_strands_.insert(strand.get());
    }
    RegisterStrand(std::move(strand));
  }
  for (auto& agg : plan.agg_rules) {
    loaded.aggs.push_back(agg.get());
    ContinuousAggRule* raw = agg.get();
    RegisterAggRule(std::move(agg));
    if (low_priority) {
      low_priority_aggs_.insert(agg_ids_[raw]);
    }
  }
  for (const PlanResult::PeriodicInstall& p : plan.periodics) {
    RegisterPeriodic(p.strand, p.period);
  }
  for (const std::string& watched_name : program->watches) {
    watched_.insert(watched_name);
  }
  loaded.program = std::move(program);
  programs_.push_back(std::move(loaded));
  if (options_.introspection) {
    PublishStaticIntrospection(this);
  }
  return true;
}

bool Node::UnloadProgram(uint64_t program_id) {
  LoadedProgram* found = nullptr;
  for (LoadedProgram& lp : programs_) {
    if (lp.id == program_id && !lp.unloaded) {
      found = &lp;
      break;
    }
  }
  if (found == nullptr) {
    return false;
  }
  found->unloaded = true;
  for (Strand* strand : found->strands) {
    inactive_strands_.insert(strand);
    low_priority_strands_.erase(strand);
    auto it = triggers_.find(strand->trigger_name());
    if (it != triggers_.end()) {
      auto& vec = it->second;
      vec.erase(std::remove(vec.begin(), vec.end(), strand), vec.end());
    }
    strand_ptrs_.erase(std::remove(strand_ptrs_.begin(), strand_ptrs_.end(), strand),
                       strand_ptrs_.end());
  }
  for (ContinuousAggRule* agg : found->aggs) {
    auto it = agg_ids_.find(agg);
    if (it != agg_ids_.end()) {
      low_priority_aggs_.erase(it->second);
      agg_by_id_.erase(it->second);
      agg_ids_.erase(it);
    }
    // Nothing reaches the rule any more (listeners and queued re-evaluations go
    // through agg_by_id_), so free it and the body rows its groups hold.
    agg_rules_.erase(std::remove_if(agg_rules_.begin(), agg_rules_.end(),
                                    [agg](const std::unique_ptr<ContinuousAggRule>& r) {
                                      return r.get() == agg;
                                    }),
                     agg_rules_.end());
  }
  found->aggs.clear();
  // Free the rule ids and drop introspection rows and rule metrics. The unloaded
  // strands are inert (they can never trigger again), so invalidating their
  // RuleMetrics handles is safe.
  Table* sys_rule = catalog_.Get("sysRule");
  Table* sys_rule_stat = catalog_.Get("sysRuleStat");
  for (const Rule& rule : found->program->rules) {
    loaded_rules_.erase(
        std::remove(loaded_rules_.begin(), loaded_rules_.end(), &rule),
        loaded_rules_.end());
    if (sys_rule != nullptr) {
      sys_rule->DeleteMatching({Value::Str(addr_), Value::Str(rule.id)}, {true, true},
                               Now());
    }
    if (sys_rule_stat != nullptr) {
      sys_rule_stat->DeleteMatching({Value::Str(addr_), Value::Str(rule.id)},
                                    {true, true}, Now());
    }
    metrics_.DropRuleMetrics(rule.id);
  }
  return true;
}

bool Node::LoadProgram(const std::string& source, std::string* error) {
  return LoadProgram(source, ParamMap(), error);
}

void Node::RegisterStrand(std::unique_ptr<Strand> strand) {
  Strand* raw = strand.get();
  strands_.push_back(std::move(strand));
  strand_ptrs_.push_back(raw);
  triggers_[raw->trigger_name()].push_back(raw);
  if (options_.metrics) {
    raw->set_metrics(metrics_.GetRuleMetrics(raw->rule_id()));
  }
}

void Node::RegisterAggRule(std::unique_ptr<ContinuousAggRule> rule) {
  ContinuousAggRule* raw = rule.get();
  if (options_.metrics) {
    raw->set_metrics(metrics_.GetRuleMetrics(raw->rule_id()));
  }
  agg_rules_.push_back(std::move(rule));
  uint64_t agg_id = next_agg_id_++;
  agg_by_id_[agg_id] = raw;
  agg_ids_[raw] = agg_id;
  for (const std::string& table_name : raw->BodyTableNames()) {
    Table* table = catalog_.Get(table_name);
    if (table != nullptr) {
      // Indirect through the id so the listener degrades to a no-op if the rule's
      // program is later unloaded. Every change re-dirties the rule, even one that
      // touches no group, so re-evaluations stay one per coalesced batch of changes.
      table->AddListener([this, agg_id](const TableEvent& event) {
        auto it = agg_by_id_.find(agg_id);
        if (it != agg_by_id_.end()) {
          it->second->Observe(event);
          MarkAggDirty(it->second);
        }
      });
    }
  }
  // Evaluate once at install so aggregates over pre-existing state appear.
  MarkAggDirty(raw);
}

void Node::MarkAggDirty(ContinuousAggRule* rule) {
  if (rule->dirty) {
    return;
  }
  rule->dirty = true;
  Pending p;
  p.kind = Pending::Kind::kAggReeval;
  p.agg_id = agg_ids_[rule];
  if (low_priority_aggs_.count(p.agg_id) > 0) {
    low_queue_.push_back(std::move(p));
  } else {
    queue_.push_back(std::move(p));
  }
  NoteQueueDepth();
}

void Node::TriggerStrand(Strand* strand, const TupleRef& event) {
  ++stats_.strand_triggers;
  RuleMetrics* m = strand->metrics();
  if (m == nullptr) {
    strand->Trigger(event);
    return;
  }
  // Head emissions route synchronously (RouteTuple bumps tuples_emitted before
  // enqueueing), so the delta over the Trigger call is exactly this rule's output.
  uint64_t emitted_before = stats_.tuples_emitted;
  uint64_t start_ns = MonotonicNs();
  strand->Trigger(event);
  uint64_t elapsed = MonotonicNs() - start_ns;
  ++m->execs;
  m->busy_ns += elapsed;
  m->emits += stats_.tuples_emitted - emitted_before;
  trigger_hist_->Observe(elapsed);
}

void Node::TriggerStrandChained(Strand* strand, const TupleRef& event,
                                uint64_t* clock_ns) {
  ++stats_.strand_triggers;
  RuleMetrics* m = strand->metrics();
  if (m == nullptr) {
    strand->Trigger(event);
    *clock_ns = MonotonicNs();  // keep the chain's attribution exact
    return;
  }
  uint64_t emitted_before = stats_.tuples_emitted;
  strand->Trigger(event);
  // The caller's clock reading doubles as this trigger's start: the end of the
  // previous trigger in the dispatch loop is exactly the start of this one.
  uint64_t end_ns = MonotonicNs();
  uint64_t elapsed = end_ns - *clock_ns;
  *clock_ns = end_ns;
  ++m->execs;
  m->busy_ns += elapsed;
  m->emits += stats_.tuples_emitted - emitted_before;
  trigger_hist_->Observe(elapsed);
}

void Node::RegisterPeriodic(Strand* strand, double period) {
  PeriodicEntry& entry = periodic_entries_[strand];
  entry.period = period;
  entry.armed = true;
  entry.seq = next_periodic_seq_++;
  SchedulePeriodic(strand, period);
}

void Node::SchedulePeriodic(Strand* strand, double period) {
  // Graceful degradation: a degraded node stretches its periodic chains (gossip,
  // stabilization, monitor ticks) by the configured factor; the chain snaps back
  // to its native period on the first reschedule after the watchdog restores.
  double delay = degraded_ ? period * options_.degrade_stretch : period;
  sched_->After(delay, [this, strand, period] {
    if (inactive_strands_.count(strand) > 0) {
      periodic_entries_.erase(strand);
      return;  // program unloaded: the timer chain ends here
    }
    if (!up_) {
      // Fail-stop: the chain dies with the node; Revive re-arms it.
      periodic_entries_[strand].armed = false;
      return;
    }
    {
      BusyTimer busy(&stats_);
      ValueList fields;
      fields.push_back(Value::Str(addr_));
      fields.push_back(Value::Id(rng_.Next()));
      fields.push_back(Value::Double(period));
      TupleRef tick = Tuple::Make("periodic", std::move(fields));
      if (low_priority_strands_.count(strand) > 0) {
        if (AdmitLow()) {
          Pending p;
          p.kind = Pending::Kind::kLowTrigger;
          p.strand = strand;
          p.tuple = tick;
          low_queue_.push_back(std::move(p));
          NoteQueueDepth();
        }
      } else {
        TriggerStrand(strand, tick);
      }
      Drain();
    }
    SchedulePeriodic(strand, period);
  });
}

void Node::ScheduleSweep() {
  sweep_scheduled_ = true;
  sched_->After(options_.sweep_interval, [this] {
    if (!up_) {
      sweep_scheduled_ = false;  // chain dies; Revive re-arms it
      return;
    }
    Sweep();
    ScheduleSweep();
  });
}

void Node::Crash() {
  up_ = false;
  // Queued-but-unprocessed work dies with the node (fail-stop). Table state, loaded
  // programs, and reliable channel bookkeeping survive — this is a process pause,
  // not disk loss. A dropped aggregate re-evaluation leaves its rule dirty, which
  // would block every later request, so remember it for Revive.
  for (const std::deque<Pending>* q : {&queue_, &low_queue_}) {
    for (const Pending& p : *q) {
      if (p.kind == Pending::Kind::kAggReeval) {
        crash_dropped_aggs_.push_back(p.agg_id);
      }
    }
  }
  queue_.clear();
  low_queue_.clear();
  be_in_queue_ = 0;
  sweep_peak_depth_ = 0;
}

void Node::Revive() {
  if (up_) {
    return;
  }
  up_ = true;
  if (!sweep_scheduled_) {
    ScheduleSweep();
  }
  // Re-arm dead chains in registration order, not map (pointer-hash) order: the
  // relative order of same-instant timers must be identical on every run.
  std::vector<std::pair<Strand*, PeriodicEntry*>> dead;
  for (auto& [strand, entry] : periodic_entries_) {
    if (!entry.armed) {
      dead.push_back({strand, &entry});
    }
  }
  std::sort(dead.begin(), dead.end(),
            [](const auto& a, const auto& b) { return a.second->seq < b.second->seq; });
  for (auto& [strand, entry] : dead) {
    entry->armed = true;
    SchedulePeriodic(strand, entry->period);
  }
  // Queue again the aggregate re-evaluations the crash dropped (skipping rules
  // unloaded since), in the order they were queued.
  for (uint64_t agg_id : crash_dropped_aggs_) {
    auto it = agg_by_id_.find(agg_id);
    if (it != agg_by_id_.end()) {
      it->second->dirty = false;
      MarkAggDirty(it->second);
    }
  }
  crash_dropped_aggs_.clear();
}

void Node::Recover() {
  // Reliable-transport restart: abandon pending retransmissions (their timers find
  // the epoch changed and stand down) and start every outgoing channel on a fresh
  // epoch — peers' receivers resynchronize on the first message of the new epoch.
  // Incoming channel state is KEPT: like table state it survives a fail-stop
  // crash, so senders' retransmissions of messages missed during the outage slot
  // straight into the old sequence.
  for (auto& [dst, ch] : rel_out_) {
    ch.pending.clear();
    ch.backlog.clear();
    ch.busy_signaled = false;
    ++ch.epoch;
    ch.next_seq = 0;
  }
  Revive();
}

void Node::Sweep() {
  if (!up_) {
    return;
  }
  BusyTimer busy(&stats_);
  double now = Now();
  size_t expired = 0;
  for (Table* table : catalog_.AllTables()) {
    expired += table->ExpireStale(now);
  }
  stats_.tuples_expired += expired;
  if (forensics_ != nullptr) {
    forensics_->Compact(now);
  }
  UpdateOverload();
  if (options_.metrics) {
    network_->PublishShardGauges(this);
  }
  if (options_.introspection) {
    RefreshTableIntrospection(this);
    RefreshStatIntrospection(this);
  }
  if (options_.metrics) {
    network_->WriteNodeMetrics(this);
  }
  Drain();
}

void Node::InjectEvent(const TupleRef& tuple) {
  sched_->At(Now(), [this, tuple] {
    if (!up_) {
      return;
    }
    BusyTimer busy(&stats_);
    RouteTuple(tuple, /*is_delete=*/false, ~0ULL);
    Drain();
  });
}

void Node::SetWatchSink(std::function<void(double, const TupleRef&)> sink) {
  watch_sink_ = std::move(sink);
}

void Node::SubscribeEvent(const std::string& name,
                          std::function<void(const TupleRef&)> fn) {
  subscribers_[name].push_back(std::move(fn));
}

std::vector<TupleRef> Node::TableContents(const std::string& name) {
  Table* table = catalog_.Get(name);
  if (table == nullptr) {
    return {};
  }
  return table->Scan(Now());
}

void Node::RouteTuple(const TupleRef& tuple, bool is_delete, uint64_t bound_mask) {
  ++stats_.tuples_emitted;
  const std::string& dst = tuple->LocationSpecifier();
  if (dst.empty()) {
    ++stats_.dead_letters;
    return;
  }
  if (dst == addr_) {
    Pending p;
    p.kind = Pending::Kind::kDeliver;
    p.tuple = tuple;
    p.src_addr = addr_;
    p.src_tuple_id = 0;
    p.is_delete = is_delete;
    p.bound_mask = bound_mask;
    if (options_.local_queue_delay > 0) {
      sched_->After(options_.local_queue_delay,
                                  [this, p = std::move(p)]() mutable {
                                    if (!up_) {
                                      return;
                                    }
                                    BusyTimer busy(&stats_);
                                    if (!AdmitDelivery(&p)) {
                                      return;  // shed at the (deferred) admission
                                    }
                                    queue_.push_back(std::move(p));
                                    NoteQueueDepth();
                                    Drain();
                                  });
    } else {
      if (!AdmitDelivery(&p)) {
        return;  // best-effort local delivery shed at a full queue
      }
      queue_.push_back(std::move(p));
      NoteQueueDepth();
    }
    return;
  }
  WireEnvelope env;
  env.src_addr = addr_;
  env.src_tuple_id = options_.tracing ? store_.Intern(tuple) : 0;
  env.is_delete = is_delete;
  env.bound_mask = bound_mask;
  env.tuple = tuple;
  if (options_.reliable_transport && !reliable_names_.empty() &&
      reliable_names_.count(tuple->name()) > 0) {
    SendReliable(dst, std::move(env));
    return;
  }
  ++stats_.msgs_sent;
  stats_.bytes_sent += network_->SendReturningSize(addr_, dst, env);
}

void Node::MarkReliable(const std::string& name) {
  if (options_.reliable_transport) {
    reliable_names_.insert(name);
  }
}

bool Node::IsControlPlane(const TupleRef& tuple, bool is_delete) const {
  if (is_delete) {
    return true;  // shedding deletes would leave stale rows behind
  }
  const std::string& name = tuple->name();
  return reliable_names_.count(name) > 0 || name == "chanFailed" ||
         name == "chanBusy" || name == "overload";
}

bool Node::AdmitDelivery(Pending* p) {
  if (IsControlPlane(p->tuple, p->is_delete)) {
    ++stats_.admitted_reliable;
    return true;
  }
  if (options_.queue_cap > 0 && be_in_queue_ >= options_.queue_cap) {
    ++stats_.shed_besteffort;
    return false;
  }
  p->best_effort = true;
  ++be_in_queue_;
  ++stats_.admitted_besteffort;
  return true;
}

bool Node::AdmitLow() {
  if (options_.low_queue_cap > 0 && low_queue_.size() >= options_.low_queue_cap) {
    ++stats_.shed_low;
    return false;
  }
  if (degraded_ && (++low_sample_tick_ % 2) == 0) {
    // Degraded mode samples low-priority work: every second trigger is dropped.
    ++stats_.shed_low;
    return false;
  }
  ++stats_.admitted_low;
  return true;
}

Node::OverloadSnapshot Node::OverloadState() const {
  OverloadSnapshot snap;
  snap.be_in_queue = be_in_queue_;
  snap.low_depth = low_queue_.size();
  for (const auto& [dst, ch] : rel_out_) {
    snap.rel_pending += ch.pending.size();
    snap.rel_backlog += ch.backlog.size();
  }
  for (const auto& [src, in] : rel_in_) {
    snap.reorder_buffered += in.buffer.size();
  }
  snap.degraded = degraded_;
  return snap;
}

void Node::UpdateOverload() {
  // Surface shedding to OverLog at sweep granularity: one overload(NAddr, T,
  // Class, Shed) tuple per class that shed since the last sweep, carrying the
  // cumulative count. Emitting per shed event would amplify the very load being
  // shed; the tuple itself is control-plane and bypasses admission.
  double now = Now();
  if (stats_.shed_besteffort != last_shed_besteffort_) {
    last_shed_besteffort_ = stats_.shed_besteffort;
    RouteTuple(Tuple::Make("overload",
                           {Value::Str(addr_), Value::Double(now),
                            Value::Str("besteffort"),
                            Value::Int(static_cast<int64_t>(stats_.shed_besteffort))}),
               /*is_delete=*/false, ~0ULL);
  }
  if (stats_.shed_low != last_shed_low_) {
    last_shed_low_ = stats_.shed_low;
    RouteTuple(Tuple::Make("overload",
                           {Value::Str(addr_), Value::Double(now), Value::Str("low"),
                            Value::Int(static_cast<int64_t>(stats_.shed_low))}),
               /*is_delete=*/false, ~0ULL);
  }
  if (options_.degrade_hi == 0) {
    sweep_peak_depth_ = 0;
    return;
  }
  // Pressure: the worst queue depth seen since the last sweep (queues drain to
  // empty between events, so an instantaneous reading would always be zero) plus
  // the standing occupancy of every channel buffer. Deterministic inputs only —
  // never wall-clock — so degrade decisions replay identically at any shard count.
  size_t pressure = sweep_peak_depth_;
  for (const auto& [dst, ch] : rel_out_) {
    pressure += ch.pending.size() + ch.backlog.size();
  }
  for (const auto& [src, in] : rel_in_) {
    pressure += in.buffer.size();
  }
  sweep_peak_depth_ = 0;
  size_t lo = options_.degrade_lo > 0 ? options_.degrade_lo : options_.degrade_hi / 2;
  if (!degraded_) {
    if (pressure >= options_.degrade_hi) {
      if (++degrade_streak_ >= 2) {
        degraded_ = true;
        degrade_streak_ = 0;
        ++stats_.degrade_enters;
      }
    } else {
      degrade_streak_ = 0;
    }
  } else {
    if (pressure <= lo) {
      if (++degrade_streak_ >= 2) {
        degraded_ = false;
        degrade_streak_ = 0;
        ++stats_.degrade_exits;
      }
    } else {
      degrade_streak_ = 0;
    }
  }
}

bool Node::IsReliable(const std::string& name) const {
  return reliable_names_.count(name) > 0;
}

void Node::EnsureRelCounters() {
  if (rel_sent_ != nullptr || !options_.metrics) {
    return;
  }
  rel_sent_ = metrics_.GetCounter("rel_sent");
  rel_acked_ = metrics_.GetCounter("rel_acked");
  rel_retx_ = metrics_.GetCounter("rel_retx");
  rel_dups_ = metrics_.GetCounter("rel_dups");
  rel_failed_ = metrics_.GetCounter("rel_failed");
  rel_acks_sent_ = metrics_.GetCounter("rel_acks_sent");
}

void Node::SendReliable(const std::string& dst, WireEnvelope env) {
  EnsureRelCounters();
  RelOut& ch = rel_out_[dst];
  env.reliable = true;
  if (options_.rel_window > 0 && ch.pending.size() >= options_.rel_window) {
    // In-flight window full: hold the send in the bounded per-channel backlog.
    // A long partition then costs O(window + backlog) per channel, not O(traffic).
    if (options_.rel_backlog > 0 && ch.backlog.size() >= options_.rel_backlog) {
      ++stats_.rel_busy_dropped;
      if (!ch.busy_signaled) {
        // One chanBusy per full-backlog episode; re-armed when the backlog
        // drains. The tuple is control-plane and local, so it cannot recurse
        // back into this path.
        ch.busy_signaled = true;
        RouteTuple(Tuple::Make("chanBusy", {Value::Str(addr_), Value::Str(dst),
                                            Value::Double(Now())}),
                   /*is_delete=*/false, ~0ULL);
      }
      return;
    }
    ch.backlog.push_back(std::move(env));
    if (ch.backlog.size() > stats_.rel_backlog_hwm) {
      stats_.rel_backlog_hwm = ch.backlog.size();
    }
    return;
  }
  TransmitReliable(dst, &ch, std::move(env));
}

void Node::TransmitReliable(const std::string& dst, RelOut* ch, WireEnvelope env) {
  env.epoch = ch->epoch;
  env.seq = ++ch->next_seq;
  ++stats_.msgs_sent;
  stats_.bytes_sent += network_->SendReturningSize(addr_, dst, env);
  ++ChannelStatFor(dst).sent;
  if (rel_sent_ != nullptr) {
    rel_sent_->Inc();
  }
  uint64_t seq = env.seq;
  uint64_t epoch = env.epoch;
  ch->pending.emplace(seq, RelPending{std::move(env), 0});
  if (ch->pending.size() > stats_.rel_pending_hwm) {
    stats_.rel_pending_hwm = ch->pending.size();
  }
  ScheduleRetransmit(dst, epoch, seq, 0);
}

void Node::PumpBacklog(const std::string& dst, RelOut* ch) {
  while (!ch->backlog.empty() &&
         (options_.rel_window == 0 || ch->pending.size() < options_.rel_window)) {
    WireEnvelope env = std::move(ch->backlog.front());
    ch->backlog.pop_front();
    TransmitReliable(dst, ch, std::move(env));
  }
  if (options_.rel_backlog == 0 || ch->backlog.size() < options_.rel_backlog) {
    ch->busy_signaled = false;
  }
}

void Node::ScheduleRetransmit(const std::string& dst, uint64_t epoch, uint64_t seq,
                              int retries) {
  double delay = options_.rel_rto;
  for (int i = 0; i < retries && delay < options_.rel_rto_max; ++i) {
    delay *= 2;
  }
  if (delay > options_.rel_rto_max) {
    delay = options_.rel_rto_max;
  }
  sched_->After(delay, [this, dst, epoch, seq, retries] {
    if (!up_) {
      return;  // the channel restarts (new epoch) via Recover
    }
    auto ch_it = rel_out_.find(dst);
    if (ch_it == rel_out_.end() || ch_it->second.epoch != epoch) {
      return;  // channel failed or was restarted since
    }
    RelOut& ch = ch_it->second;
    auto it = ch.pending.find(seq);
    if (it == ch.pending.end()) {
      return;  // acked in the meantime
    }
    if (retries >= options_.rel_max_retx) {
      FailChannel(dst, &ch);
      return;
    }
    it->second.retries = retries + 1;
    ++stats_.msgs_sent;
    stats_.bytes_sent += network_->SendReturningSize(addr_, dst, it->second.env);
    ++ChannelStatFor(dst).retx;
    if (rel_retx_ != nullptr) {
      rel_retx_->Inc();
    }
    ScheduleRetransmit(dst, epoch, seq, retries + 1);
  });
}

void Node::FailChannel(const std::string& dst, RelOut* ch) {
  // The peer is unreachable: drop everything pending, restart the channel under a
  // fresh epoch (the peer's receiver resynchronizes on the next epoch's first
  // message), and surface the failure as a locally queryable tuple.
  ChannelStat& cs = ChannelStatFor(dst);
  uint64_t lost = ch->pending.size() + ch->backlog.size();
  cs.failed += lost;
  if (rel_failed_ != nullptr) {
    rel_failed_->Inc(lost);
  }
  ch->pending.clear();
  ch->backlog.clear();
  ch->busy_signaled = false;
  ++ch->epoch;
  ch->next_seq = 0;
  BusyTimer busy(&stats_);
  RouteTuple(Tuple::Make("chanFailed", {Value::Str(addr_), Value::Str(dst),
                                        Value::Double(Now())}),
             /*is_delete=*/false, ~0ULL);
  Drain();
}

void Node::HandleAck(const WireEnvelope& env) {
  // env.src_addr is the peer acknowledging our channel toward it.
  auto ch_it = rel_out_.find(env.src_addr);
  if (ch_it == rel_out_.end() || ch_it->second.epoch != env.epoch) {
    return;  // stale ack from a failed/restarted epoch
  }
  RelOut& ch = ch_it->second;
  uint64_t acked = 0;
  for (auto it = ch.pending.begin();
       it != ch.pending.end() && it->first <= env.ack_seq;) {
    it = ch.pending.erase(it);
    ++acked;
  }
  if (acked > 0) {
    ChannelStatFor(env.src_addr).acked += acked;
    if (rel_acked_ != nullptr) {
      rel_acked_->Inc(acked);
    }
    // Retired in-flight slots free window space: drain the sender backlog.
    PumpBacklog(env.src_addr, &ch);
  }
}

void Node::SendAck(const std::string& dst, uint64_t epoch, uint64_t ack_seq) {
  WireEnvelope ack;
  ack.src_addr = addr_;
  ack.is_ack = true;
  ack.epoch = epoch;
  ack.ack_seq = ack_seq;
  ++stats_.msgs_sent;
  stats_.bytes_sent += network_->SendReturningSize(addr_, dst, ack);
  if (rel_acks_sent_ != nullptr) {
    rel_acks_sent_->Inc();
  }
}

void Node::EnqueueDelivery(const WireEnvelope& env) {
  if (rel_delivery_tap_) {
    rel_delivery_tap_(env);
  }
  Pending p;
  p.kind = Pending::Kind::kDeliver;
  p.tuple = env.tuple;
  p.src_addr = env.src_addr;
  p.src_tuple_id = env.src_tuple_id;
  p.is_delete = env.is_delete;
  p.bound_mask = env.bound_mask;
  // Arrived on a reliable channel: control-plane class, never shed (the sender
  // already paid for the slot via the in-flight window).
  ++stats_.admitted_reliable;
  queue_.push_back(std::move(p));
  NoteQueueDepth();
}

bool Node::HandleReliableData(const WireEnvelope& env) {
  EnsureRelCounters();
  RelIn& in = rel_in_[env.src_addr];
  if (!in.inited) {
    // First contact: every epoch's stream starts at sequence 1, so expect 1 and
    // let the holdback buffer absorb out-of-order arrivals. (Accepting the first
    // seen sequence as the base instead would lock onto a reordered later message
    // and silently discard everything before it.)
    in.inited = true;
    in.epoch = env.epoch;
    in.next_expected = 1;
  } else if (env.epoch > in.epoch) {
    // The sender restarted the channel (failure or recovery): resynchronize. New
    // epochs always start at sequence 1; earlier sequences of the new epoch that
    // were lost in flight will be retransmitted and delivered in order.
    in.epoch = env.epoch;
    in.next_expected = 1;
    in.buffer.clear();
  } else if (env.epoch < in.epoch) {
    // Stale epoch: acknowledge so the sender stops retransmitting, deliver nothing.
    SendAck(env.src_addr, env.epoch, env.seq);
    return false;
  }
  if (env.seq < in.next_expected || in.buffer.count(env.seq) > 0) {
    ++ChannelStatFor(env.src_addr).dups;
    if (rel_dups_ != nullptr) {
      rel_dups_->Inc();
    }
    SendAck(env.src_addr, in.epoch, in.next_expected - 1);
    return false;
  }
  bool delivered = false;
  if (env.seq == in.next_expected) {
    ++in.next_expected;
    EnqueueDelivery(env);
    delivered = true;
    // Flush any buffered successors that are now in order.
    for (auto it = in.buffer.begin();
         it != in.buffer.end() && it->first == in.next_expected;) {
      ++in.next_expected;
      EnqueueDelivery(it->second);
      it = in.buffer.erase(it);
    }
  } else {
    // Hold back until the gap fills — within the reorder budget. On overflow,
    // evict whichever buffered entry sits farthest past the gap (the gap-adjacent
    // ones complete an in-order run soonest); the cumulative ack never covered the
    // evicted sequence, so its sender retransmits it and nothing is lost. This
    // keeps a gappy channel's receiver state at O(rel_reorder_cap), not O(traffic).
    if (options_.rel_reorder_cap > 0 &&
        in.buffer.size() >= options_.rel_reorder_cap) {
      auto last = std::prev(in.buffer.end());
      if (env.seq < last->first) {
        in.buffer.erase(last);
        in.buffer[env.seq] = env;
      }
      ++stats_.rel_reorder_dropped;
    } else {
      in.buffer[env.seq] = env;
    }
    if (in.buffer.size() > stats_.rel_reorder_hwm) {
      stats_.rel_reorder_hwm = in.buffer.size();
    }
  }
  SendAck(env.src_addr, in.epoch, in.next_expected - 1);
  return delivered;
}

void Node::ReceiveBytes(const std::string& bytes) {
  if (!up_) {
    return;  // fail-stop: a crashed node drops everything on the floor
  }
  BusyTimer busy(&stats_);
  ++stats_.msgs_received;
  stats_.bytes_received += bytes.size();
  WireEnvelope env;
  // Both decoders accept exactly the same byte strings and produce identical
  // envelopes (tests/net/wire_decode_equivalence_test.cc), so this toggle can
  // never change behavior — only the cost of the unmarshal stage.
  bool ok = options_.zero_copy_decode ? DecodeEnvelopeFast(bytes, &env)
                                      : DecodeEnvelope(bytes, &env);
  if (!ok) {
    ++stats_.decode_errors;
    return;
  }
  if (env.is_ack) {
    HandleAck(env);
    return;
  }
  if (env.reliable) {
    if (HandleReliableData(env)) {
      Drain();
    }
    return;
  }
  Pending p;
  p.kind = Pending::Kind::kDeliver;
  p.tuple = env.tuple;
  p.src_addr = env.src_addr;
  p.src_tuple_id = env.src_tuple_id;
  p.is_delete = env.is_delete;
  p.bound_mask = env.bound_mask;
  if (!AdmitDelivery(&p)) {
    return;  // best-effort gossip shed at a full queue
  }
  queue_.push_back(std::move(p));
  NoteQueueDepth();
  Drain();
}

void Node::Drain() {
  if (draining_) {
    return;
  }
  draining_ = true;
  while (!queue_.empty() || !low_queue_.empty()) {
    // Low-priority work runs only when the primary queue has quiesced, so a
    // monitoring rule observes the state *after* an event's full derivation cascade.
    bool from_low = queue_.empty();
    std::deque<Pending>& source = from_low ? low_queue_ : queue_;
    Pending p = std::move(source.front());
    source.pop_front();
    if (p.best_effort && be_in_queue_ > 0) {
      --be_in_queue_;  // release the admission slot
    }
    if (p.kind == Pending::Kind::kAggReeval) {
      auto it = agg_by_id_.find(p.agg_id);
      if (it != agg_by_id_.end()) {
        ContinuousAggRule* agg = it->second;
        agg->dirty = false;
        RuleMetrics* m = agg->metrics();
        if (m == nullptr) {
          agg->Reevaluate();
        } else {
          uint64_t emitted_before = stats_.tuples_emitted;
          uint64_t start_ns = MonotonicNs();
          agg->Reevaluate();
          uint64_t elapsed = MonotonicNs() - start_ns;
          ++m->execs;
          m->busy_ns += elapsed;
          m->emits += stats_.tuples_emitted - emitted_before;
        }
      }
      continue;
    }
    if (p.kind == Pending::Kind::kLowTrigger) {
      if (inactive_strands_.count(p.strand) == 0) {
        TriggerStrand(p.strand, p.tuple);
      }
      continue;
    }
    // Batched delta propagation: a run of consecutive same-name insertions at
    // the head of the primary queue shares one set of name-keyed lookups.
    // Deletes and low-queue entries never batch (low_queue_ holds no kDeliver
    // work, but keep the guard explicit).
    if (!options_.batch_deltas || from_low || p.is_delete) {
      ProcessDelivery(p);
      continue;
    }
    run_buf_.clear();
    const std::string& name = p.tuple->name();  // tuple outlives via run_buf_'s ref
    run_buf_.push_back(std::move(p));
    while (!queue_.empty()) {
      Pending& q = queue_.front();
      if (q.kind != Pending::Kind::kDeliver || q.is_delete ||
          q.tuple->name() != name) {
        break;
      }
      if (q.best_effort && be_in_queue_ > 0) {
        --be_in_queue_;  // slot releases when the entry leaves the queue
      }
      run_buf_.push_back(std::move(q));
      queue_.pop_front();
    }
    if (run_buf_.size() == 1) {
      ProcessDelivery(run_buf_.front());
    } else {
      ProcessDeliveryRun(run_buf_);
    }
    run_buf_.clear();
  }
  draining_ = false;
}

void Node::ProcessDeliveryRun(const std::vector<Pending>& run) {
  const std::string& name = run.front().tuple->name();
  const double now = Now();  // virtual time is frozen for the whole Drain pass
  const bool watched = watched_.count(name) > 0;
  Table* table = catalog_.Get(name);
  auto trig = triggers_.find(name);
  std::vector<Strand*>* strands =
      trig != triggers_.end() ? &trig->second : nullptr;
  auto subs = subscribers_.find(name);
  auto* sub_fns = subs != subscribers_.end() ? &subs->second : nullptr;
  // Subscriber callbacks are host code and may load programs or crash the node
  // mid-run, invalidating the hoisted lookups; refresh them after any tuple
  // whose dispatch ran subscribers. Strand execution only enqueues, so the
  // strand-only fast path keeps the lookups for the whole run.
  const bool refresh_after_subs = sub_fns != nullptr && !sub_fns->empty();
  for (const Pending& p : run) {
    if (!up_) {
      return;  // crashed mid-run: the popped remainder dies with the queue
    }
    ++stats_.local_deliveries;
    if (watched) {
      watch_log_.push_back(WatchEntry{now, p.tuple, p.is_delete, p.bound_mask});
      while (watch_log_.size() > 1000) {
        watch_log_.pop_front();
      }
      if (watch_sink_) {
        watch_sink_(now, p.tuple);
      }
    }
    if (options_.tracing) {
      tracer_->MemoizeArrival(p.tuple, p.src_addr.empty() ? addr_ : p.src_addr,
                              p.src_tuple_id, now);
    }
    bool is_delta = true;
    if (table != nullptr) {
      InsertOutcome outcome = table->Insert(p.tuple, now);
      is_delta = (outcome != InsertOutcome::kRefreshed);
    }
    if (is_delta) {
      if (strands != nullptr) {
        if (trigger_hist_ != nullptr) {
          uint64_t clock_ns = MonotonicNs();
          for (Strand* strand : *strands) {
            if (low_priority_strands_.count(strand) > 0) {
              if (AdmitLow()) {
                Pending lp;
                lp.kind = Pending::Kind::kLowTrigger;
                lp.strand = strand;
                lp.tuple = p.tuple;
                low_queue_.push_back(std::move(lp));
                NoteQueueDepth();
              }
              continue;
            }
            TriggerStrandChained(strand, p.tuple, &clock_ns);
          }
        } else {
          for (Strand* strand : *strands) {
            if (low_priority_strands_.count(strand) > 0) {
              if (AdmitLow()) {
                Pending lp;
                lp.kind = Pending::Kind::kLowTrigger;
                lp.strand = strand;
                lp.tuple = p.tuple;
                low_queue_.push_back(std::move(lp));
                NoteQueueDepth();
              }
              continue;
            }
            TriggerStrand(strand, p.tuple);
          }
        }
      }
      if (sub_fns != nullptr) {
        for (const auto& fn : *sub_fns) {
          fn(p.tuple);
        }
      }
    }
    if (table == nullptr) {
      bool consumed = (strands != nullptr && !strands->empty()) ||
                      (sub_fns != nullptr && !sub_fns->empty());
      if (!consumed) {
        ++stats_.dead_letters;
      }
    }
    if (refresh_after_subs) {
      table = catalog_.Get(name);
      trig = triggers_.find(name);
      strands = trig != triggers_.end() ? &trig->second : nullptr;
      subs = subscribers_.find(name);
      sub_fns = subs != subscribers_.end() ? &subs->second : nullptr;
    }
  }
}

void Node::ProcessDelivery(const Pending& p) {
  ++stats_.local_deliveries;
  const std::string& name = p.tuple->name();
  double now = Now();
  if (watched_.count(name) > 0) {
    watch_log_.push_back(WatchEntry{now, p.tuple, p.is_delete, p.bound_mask});
    while (watch_log_.size() > 1000) {
      watch_log_.pop_front();
    }
    if (watch_sink_) {
      watch_sink_(now, p.tuple);
    }
  }
  if (p.is_delete) {
    Table* table = catalog_.Get(name);
    if (table == nullptr) {
      ++stats_.dead_letters;
      return;
    }
    ValueList pattern = p.tuple->fields();
    std::vector<bool> bound(pattern.size(), false);
    for (size_t i = 0; i < pattern.size() && i < 64; ++i) {
      bound[i] = (p.bound_mask >> i) & 1;
    }
    table->DeleteMatching(pattern, bound, now);
    return;
  }
  if (options_.tracing) {
    tracer_->MemoizeArrival(p.tuple, p.src_addr.empty() ? addr_ : p.src_addr,
                            p.src_tuple_id, now);
  }
  Table* table = catalog_.Get(name);
  bool is_delta = true;
  if (table != nullptr) {
    InsertOutcome outcome = table->Insert(p.tuple, now);
    is_delta = (outcome != InsertOutcome::kRefreshed);
  }
  if (is_delta) {
    DispatchEvent(p.tuple);
  }
  if (table == nullptr) {
    auto trig = triggers_.find(name);
    auto subs = subscribers_.find(name);
    bool consumed = (trig != triggers_.end() && !trig->second.empty()) ||
                    (subs != subscribers_.end() && !subs->second.empty());
    if (!consumed) {
      ++stats_.dead_letters;
    }
  }
}

void Node::DispatchEvent(const TupleRef& tuple) {
  auto it = triggers_.find(tuple->name());
  if (it != triggers_.end()) {
    for (Strand* strand : it->second) {
      if (low_priority_strands_.count(strand) > 0) {
        if (AdmitLow()) {
          Pending p;
          p.kind = Pending::Kind::kLowTrigger;
          p.strand = strand;
          p.tuple = tuple;
          low_queue_.push_back(std::move(p));
          NoteQueueDepth();
        }
        continue;
      }
      TriggerStrand(strand, tuple);
    }
  }
  auto subs = subscribers_.find(tuple->name());
  if (subs != subscribers_.end()) {
    for (const auto& fn : subs->second) {
      fn(tuple);
    }
  }
}

}  // namespace p2
