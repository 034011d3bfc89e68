// Node: one P2 participant — tables, compiled rule strands, tracer, and delivery queue.
//
// A node loads OverLog programs (possibly several, installed piecemeal while running —
// the paper's on-line monitoring deployment model), routes derived tuples to their
// location specifier (locally or across the network), dispatches arriving tuples to the
// strands they trigger, re-evaluates continuous aggregates on table changes, expires
// soft state, and accounts the wall-clock time it spends doing all of this
// (NodeStats::busy_ns — the simulation's stand-in for CPU utilization).

#ifndef SRC_NET_NODE_H_
#define SRC_NET_NODE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/dataflow/strand.h"
#include "src/lang/parser.h"
#include "src/net/wire.h"
#include "src/runtime/catalog.h"
#include "src/trace/forensics.h"
#include "src/trace/metrics.h"
#include "src/trace/tracer.h"
#include "src/trace/tuple_store.h"

namespace p2 {

class Network;

struct NodeOptions {
  // Execution tracing (paper §2.1): when true, the planner's taps feed the tracer and
  // the ruleExec / tupleTable tables are populated.
  bool tracing = false;
  // Soft-state sweep period: expiry of stale tuples and introspection refresh.
  double sweep_interval = 1.0;
  // Lifetime/bound of ruleExec rows (tupleTable rows share the lifetime).
  double rule_exec_lifetime = 120.0;
  size_t rule_exec_max = 100000;
  // Bound on tracer records per rule (paper's "fixed number of execution records").
  size_t tracer_records_per_rule = 8;
  // Bounded log-structured trace retention (docs/OBSERVABILITY.md): when
  // forensics.enabled, the tracer dual-writes execution records and tuple payloads
  // into a per-node ForensicsStore so causal chains stay answerable after the live
  // ruleExec / tupleTable rows expire. Implies tracing.
  ForensicsOptions forensics;
  // Install introspection tables (sysRule / sysTable / sysElement, plus the
  // telemetry tables sysStat / sysRuleStat / sysTableStat).
  bool introspection = true;
  // Maintain per-rule execution metrics (trigger counts, busy-ns, emits) and the
  // trigger-latency histogram. Updates are plain integer adds plus two monotonic
  // clock reads per strand trigger; disable only for microbenchmark ablations.
  bool metrics = true;
  // Let the planner request secondary table indexes for join/negation stages whose
  // bound equality prefix does not cover the whole primary key, and have strand
  // execution probe them instead of scanning. Disable only for A/B testing of the
  // scan path (equivalence tests, scan-baseline benchmarks).
  bool use_join_indexes = true;

  // ---- engine hot-path toggles (docs/SCALING.md "Memory model & hot-path
  // batching"). All three are pure execution strategies: every combination
  // produces bit-identical table digests, traces, and deterministic counters —
  // the ablation-matrix suites assert exactly that.

  // Recycle tuple storage (shared blocks + field vectors) through the per-thread
  // free lists of src/runtime/arena.h. The underlying switch is process-global
  // (TupleArena::SetEnabled); the node constructor writes this value through, so
  // configure it fleet-uniformly.
  bool tuple_arenas = true;
  // When a run of consecutive same-name deliveries sits at the head of the
  // pending queue, Drain processes it as one batch: the catalog/trigger/
  // subscriber lookups and the clock read are done once for the run instead of
  // per tuple. Per-tuple insert -> dispatch order is unchanged.
  bool batch_deltas = true;
  // Decode incoming envelopes with the single-pass fast decoder, materializing
  // name/fields straight into their final arena-backed storage. Off = the legacy
  // layered decoder; both accept and reject exactly the same byte strings.
  bool zero_copy_decode = true;
  // Modeled delay for locally routed tuples (seconds of virtual time spent in the
  // node's queues between rule strands). Zero keeps local hand-off instantaneous;
  // nonzero makes the profiler's LocalT component (paper §3.2) observable.
  double local_queue_delay = 0.0;
  // Reliable tuple transport (docs/ROBUSTNESS.md): tuples whose names were marked
  // via Node::MarkReliable travel on per-destination sequenced channels with
  // retransmission, duplicate suppression, and in-order delivery. When false,
  // MarkReliable is a no-op and everything stays best-effort (the ablation switch
  // for fault-matrix tests).
  bool reliable_transport = true;
  // Initial retransmission timeout, seconds; doubles per retry (exponential
  // backoff) up to `rel_rto_max`.
  double rel_rto = 0.25;
  double rel_rto_max = 8.0;
  // Retransmissions per message before the whole channel is declared failed: its
  // pending messages are dropped, a local chanFailed(NAddr, Dst, T) tuple is
  // emitted, and the channel restarts under a fresh epoch.
  int rel_max_retx = 8;

  // ---- overload resilience (docs/ROBUSTNESS.md "Overload & graceful degradation").
  // Every limit defaults to off (0 = unbounded) except the reorder-buffer cap, so
  // existing runs keep bit-identical digests; shed/degrade decisions depend only on
  // queue depths and virtual time (never wall-clock), keeping digests identical
  // across shard counts when limits are on.

  // Cap on best-effort deliveries held in the primary queue. Reliable tuples
  // (MarkReliable names), control tuples (chanFailed / chanBusy / overload), deletes,
  // and aggregate re-evaluations are never shed.
  size_t queue_cap = 0;
  // Cap on the low-priority queue (deferred monitor triggers).
  size_t low_queue_cap = 0;
  // Per-channel in-flight window: at most this many unacked reliable messages per
  // destination; excess waits in a sender-side backlog.
  size_t rel_window = 0;
  // Per-channel sender backlog cap (only meaningful with rel_window on): when full,
  // further reliable sends are dropped, counted, and signaled via a local
  // chanBusy(NAddr, Dst, T) tuple.
  size_t rel_backlog = 0;
  // Receiver reorder-holdback cap per incoming channel. On overflow the entry
  // farthest from the gap is evicted (the sender retransmits it) and counted as
  // rel_reorder_dropped. On by default: a gappy channel must cost O(window), not
  // O(traffic), and eviction never changes what is delivered or when acks flow.
  size_t rel_reorder_cap = 1024;
  // Degradation watchdog: pressure (peak queue depth since the last sweep plus
  // channel buffer occupancy) at or above degrade_hi for two consecutive sweeps
  // enters degraded mode; at or below degrade_lo (default hi/2) for two consecutive
  // sweeps exits it. 0 = watchdog off.
  size_t degrade_hi = 0;
  size_t degrade_lo = 0;
  // While degraded: periodic timer chains stretch by this factor and every second
  // low-priority trigger is sampled out (counted as shed).
  double degrade_stretch = 2.0;

  uint64_t seed = 1;
};

struct NodeStats {
  uint64_t msgs_sent = 0;
  uint64_t msgs_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t local_deliveries = 0;
  uint64_t strand_triggers = 0;
  uint64_t tuples_emitted = 0;
  uint64_t agg_reevals = 0;
  uint64_t dead_letters = 0;
  uint64_t decode_errors = 0;
  uint64_t tuples_expired = 0;  // soft state purged by sweeps (lazy expiry counted
                                // per table in TableCounters, not here)
  uint64_t queue_hwm = 0;       // high-water mark of the pending-work queues
  uint64_t busy_ns = 0;  // wall-clock nanoseconds spent executing this node's dataflow

  // ---- overload resilience (docs/ROBUSTNESS.md). Admission is classified into
  // best-effort / low-priority / reliable+control; only the first two can shed.
  uint64_t admitted_besteffort = 0;  // best-effort deliveries admitted to the queue
  uint64_t admitted_reliable = 0;    // reliable/control deliveries admitted (never shed)
  uint64_t admitted_low = 0;         // low-priority work admitted
  uint64_t shed_besteffort = 0;      // best-effort deliveries dropped at admission
  uint64_t shed_low = 0;             // low-priority work dropped (cap or degraded sampling)
  uint64_t shed_reliable = 0;        // must stay 0: the control plane is never shed
  uint64_t rel_busy_dropped = 0;     // reliable sends dropped at a full sender backlog
  uint64_t rel_reorder_dropped = 0;  // reorder-holdback evictions on gappy channels
  uint64_t be_queue_hwm = 0;         // hwm of best-effort entries in the primary queue
  uint64_t low_queue_hwm = 0;        // hwm of the low-priority queue
  uint64_t rel_pending_hwm = 0;      // hwm of any one channel's in-flight window
  uint64_t rel_backlog_hwm = 0;      // hwm of any one channel's sender backlog
  uint64_t rel_reorder_hwm = 0;      // hwm of any one reorder holdback buffer
  uint64_t degrade_enters = 0;       // watchdog transitions into degraded mode
  uint64_t degrade_exits = 0;        // watchdog restorations to normal mode
};

class Scheduler;

class Node {
 public:
  // `sched` is the event heap this node's events run on: the network's shared
  // scheduler, or the node's own heap under the parallel runtime. Nodes are created
  // through Network::AddNode, which wires both. All of the node's timers,
  // injections, and local hand-offs run there.
  Node(std::string addr, Network* network, NodeOptions options, Scheduler* sched);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& addr() const { return addr_; }
  NodeOptions& options() { return options_; }
  NodeStats& stats() { return stats_; }
  Catalog& catalog() { return catalog_; }
  MetricsRegistry& metrics() { return metrics_; }
  // Current pending-work backlog (primary + low-priority queues).
  size_t QueueDepth() const { return queue_.size() + low_queue_.size(); }
  Tracer& tracer() { return *tracer_; }
  TupleStore& store() { return store_; }
  // The bounded retention store; nullptr unless NodeOptions::forensics.enabled.
  ForensicsStore* forensics() { return forensics_.get(); }
  Rng& rng() { return rng_; }
  Network& network() { return *network_; }
  // This node's event heap: the only scheduler its events may run on. Host code
  // targeting a specific node (timed injections, crash schedules) must use this,
  // not Network::scheduler(), which exists only while the network is
  // single-threaded.
  Scheduler& own_scheduler() { return *sched_; }

  // Current virtual time.
  double Now() const;

  // Installs an OverLog program: takes its parse from the network's ProgramCache (one
  // per fleet for each distinct source and params), creates its tables, compiles its
  // rules against this node's catalog, and registers triggers/listeners/timers. Safe
  // to call repeatedly, including while the simulation is running. Returns false and
  // sets `error` on any failure (the program is then not installed; tables it
  // declared before the failure remain).
  bool LoadProgram(const std::string& source, const ParamMap& params, std::string* error);
  bool LoadProgram(const std::string& source, std::string* error);

  // Loads a program whose rules run at LOW priority: its strands trigger and its
  // aggregates re-evaluate only once the node's primary work has drained. This is the
  // paper's §6 future-work item ("prioritized execution of debugging rules may allow
  // the unperturbed observation of sensitive... artifacts"): a low-priority monitor
  // observes the quiescent state *after* an event's full derivation cascade, and its
  // execution never interleaves with base-system rule firing.
  bool LoadProgramLowPriority(const std::string& source, const ParamMap& params,
                              std::string* error);

  // Identifier of the most recently loaded program (1-based; 0 = none loaded yet).
  uint64_t last_program_id() const { return next_program_id_ - 1; }

  // Uninstalls a previously loaded program: its strands stop triggering, its timers
  // stop firing, and its continuous aggregates stop re-evaluating. Materialized tables
  // the program declared remain (their soft state ages out normally) — the complement
  // of the paper's piecemeal on-line installation. Returns false for unknown ids.
  bool UnloadProgram(uint64_t program_id);

  // Fault injection: a crashed node stops processing — incoming messages are dropped,
  // queued-but-unprocessed work is lost, and its timer chains die at their next tick —
  // but its table state survives (fail-stop, not disk loss). Lost work includes any
  // continuous aggregate's queued re-evaluation; the crash remembers which.
  void Crash();
  // Revive restarts processing and re-arms the sweep and periodic timer chains that
  // died during the outage; soft state that aged out while down expires lazily. It
  // also queues again every aggregate re-evaluation the crash dropped (they run with
  // the node's next drain), so each aggregate again matches its body tables and
  // later changes queue it as usual.
  void Revive();
  // Recover is the full crash-recovery lifecycle: Revive plus a reliable-transport
  // restart — every outgoing channel abandons its pending retransmissions and starts
  // a fresh epoch (peers resynchronize on the first message of the new epoch);
  // incoming channel state survives, like table state (fail-stop, not disk loss).
  void Recover();
  bool IsUp() const { return up_; }

  // ---- reliable tuple transport (docs/ROBUSTNESS.md) ----

  // Marks tuples named `name` for reliable delivery: sequenced, retransmitted with
  // exponential backoff, duplicate-suppressed, and delivered in order per channel.
  // No-op when NodeOptions::reliable_transport is off. Typically called by monitor
  // installers (snapshot markers, token-traversal tuples) whose protocols assume
  // reliable FIFO channels.
  void MarkReliable(const std::string& name);
  bool IsReliable(const std::string& name) const;

  // Cumulative per-peer reliable-channel counters (both directions merged onto the
  // peer's address): the backing data for sysChannelStat.
  struct ChannelStat {
    uint64_t sent = 0;    // reliable data tuples first-sent to the peer
    uint64_t acked = 0;   // of those, how many were acknowledged
    uint64_t retx = 0;    // retransmissions to the peer
    uint64_t dups = 0;    // duplicate receptions suppressed from the peer
    uint64_t failed = 0;  // messages abandoned after retransmit exhaustion
  };
  const std::map<std::string, ChannelStat>& channel_stats() const {
    return channel_stats_;
  }

  // ---- overload resilience (docs/ROBUSTNESS.md) ----

  // Whether the resource watchdog currently holds the node in degraded mode.
  bool degraded() const { return degraded_; }

  // Instantaneous occupancy of every bounded per-node resource — the backing data
  // for sysOverloadStat and the simfuzz bounded-memory oracle.
  struct OverloadSnapshot {
    uint64_t be_in_queue = 0;       // best-effort entries in the primary queue
    uint64_t low_depth = 0;         // low-priority queue depth
    uint64_t rel_pending = 0;       // Σ in-flight across outgoing channels
    uint64_t rel_backlog = 0;       // Σ sender backlog across outgoing channels
    uint64_t reorder_buffered = 0;  // Σ reorder holdback across incoming channels
    bool degraded = false;
  };
  OverloadSnapshot OverloadState() const;

  // Observation hook for the reliable transport: called once for every reliable
  // data envelope the channel layer accepts for delivery (post duplicate
  // suppression and reordering, in delivery order). Lets harnesses check the
  // in-order/no-dup contract from outside the transport (src/simtest oracles).
  void SetReliableDeliveryTap(std::function<void(const WireEnvelope&)> tap) {
    rel_delivery_tap_ = std::move(tap);
  }

  // The tuples observed by `watch(name).` declarations, most recent last (bounded).
  struct WatchEntry {
    double time;
    TupleRef tuple;
    bool is_delete;       // a retraction: rows matching `tuple` on bound_mask go
    uint64_t bound_mask;  // fields of `tuple` that are bound (bit i = field i)
  };
  const std::deque<WatchEntry>& watch_log() const { return watch_log_; }
  // Optional sink called for each watched tuple (e.g. to print).
  void SetWatchSink(std::function<void(double, const TupleRef&)> sink);

  // Injects `tuple` as if it had been derived locally: it is routed to its location
  // specifier at the current instant (the enclosing Network must then be run).
  void InjectEvent(const TupleRef& tuple);

  // Registers a host callback invoked whenever an event named `name` is dispatched on
  // this node (after strand dispatch). Used by examples and tests to observe alarms.
  void SubscribeEvent(const std::string& name, std::function<void(const TupleRef&)> fn);

  // Convenience: current contents of a materialized table (empty if absent).
  std::vector<TupleRef> TableContents(const std::string& name);

  // All rules loaded so far (for introspection).
  const std::vector<const Rule*>& loaded_rules() const { return loaded_rules_; }
  const std::vector<Strand*>& strands() const { return strand_ptrs_; }

  // ---- engine internals (used by strands, the planner, and the network) ----

  // Routes a tuple produced by a rule head to its location specifier.
  void RouteTuple(const TupleRef& tuple, bool is_delete, uint64_t bound_mask);

  // Called by the network when a serialized message arrives.
  void ReceiveBytes(const std::string& bytes);

  // Registers compiled artifacts (planner).
  void RegisterStrand(std::unique_ptr<Strand> strand);
  void RegisterAggRule(std::unique_ptr<ContinuousAggRule> rule);
  void RegisterPeriodic(Strand* strand, double period);

  // Marks a continuous aggregate dirty (table listener path).
  void MarkAggDirty(ContinuousAggRule* rule);

  // Drains the pending-work queue. Called from scheduler callbacks.
  void Drain();

  // Fires `strand` for `event`, accounting the trigger into NodeStats and — when
  // metrics are enabled — the strand's RuleMetrics and the node's trigger-latency
  // histogram. Every strand trigger in the engine goes through here.
  void TriggerStrand(Strand* strand, const TupleRef& event);

 private:
  struct Pending {
    enum class Kind { kDeliver, kAggReeval, kLowTrigger };
    Kind kind = Kind::kDeliver;
    TupleRef tuple;
    std::string src_addr;
    uint64_t src_tuple_id = 0;
    bool is_delete = false;
    uint64_t bound_mask = ~0ULL;
    uint64_t agg_id = 0;
    Strand* strand = nullptr;  // kLowTrigger
    // Counted against NodeOptions::queue_cap while queued (sheddable class).
    bool best_effort = false;
  };

  void ProcessDelivery(const Pending& p);
  // Batched delta propagation (NodeOptions::batch_deltas): processes a maximal
  // run of same-name non-delete deliveries popped from the primary queue. The
  // name-keyed lookups (catalog, triggers, subscribers, watch set) and the
  // virtual-clock read are hoisted over the run; each tuple still inserts and
  // dispatches in exactly the unbatched order.
  void ProcessDeliveryRun(const std::vector<Pending>& run);
  void DispatchEvent(const TupleRef& tuple);
  // TriggerStrand with an externally chained wall clock: `*clock_ns` holds the
  // current timestamp on entry and the post-trigger timestamp on return, so a
  // dispatch loop touching S metrics-enabled strands pays S+1 monotonic clock
  // reads instead of 2S. Metrics counters and the histogram observation count
  // are identical to the unchained path.
  void TriggerStrandChained(Strand* strand, const TupleRef& event, uint64_t* clock_ns);
  void SchedulePeriodic(Strand* strand, double period);
  void ScheduleSweep();
  void Sweep();
  void InstallBuiltinTables();

  // ---- reliable transport internals ----

  // One outgoing reliable channel (this node -> dst).
  struct RelPending {
    WireEnvelope env;
    int retries = 0;
  };
  struct RelOut {
    uint64_t epoch = 1;
    uint64_t next_seq = 0;  // last sequence assigned; 0 = none yet
    std::map<uint64_t, RelPending> pending;
    // Sends held while the in-flight window is full (NodeOptions::rel_window);
    // bounded by rel_backlog, drained in order as acks retire pending entries.
    std::deque<WireEnvelope> backlog;
    // One chanBusy signal per full-backlog episode, re-armed when the backlog
    // drains below its cap.
    bool busy_signaled = false;
  };
  // One incoming reliable channel (src -> this node).
  struct RelIn {
    bool inited = false;
    uint64_t epoch = 0;
    uint64_t next_expected = 0;
    std::map<uint64_t, WireEnvelope> buffer;  // out-of-order holdback (bounded by
                                              // NodeOptions::rel_reorder_cap)
  };

  void SendReliable(const std::string& dst, WireEnvelope env);
  // Assigns the next sequence number and puts `env` on the wire (pending +
  // retransmit timer). The window check happened in SendReliable / PumpBacklog.
  void TransmitReliable(const std::string& dst, RelOut* ch, WireEnvelope env);
  // Moves backlogged sends into freed window slots (called after acks retire
  // pending entries) and re-arms the chanBusy signal once the backlog has room.
  void PumpBacklog(const std::string& dst, RelOut* ch);
  void ScheduleRetransmit(const std::string& dst, uint64_t epoch, uint64_t seq,
                          int retries);
  // Retransmit exhaustion: fails the whole channel (pending dropped, epoch bumped)
  // and emits the local chanFailed tuple.
  void FailChannel(const std::string& dst, RelOut* ch);
  void HandleAck(const WireEnvelope& env);
  // Returns true if the envelope produced at least one in-order delivery (the caller
  // then drains). Sends the cumulative ack either way.
  bool HandleReliableData(const WireEnvelope& env);
  void SendAck(const std::string& dst, uint64_t epoch, uint64_t ack_seq);
  void EnqueueDelivery(const WireEnvelope& env);
  ChannelStat& ChannelStatFor(const std::string& peer) {
    return channel_stats_[peer];
  }
  // Lazily registers the rel_* counters (first reliable traffic).
  void EnsureRelCounters();

  // ---- overload resilience internals (docs/ROBUSTNESS.md) ----

  // True for tuples the admission layer must never shed: reliable names, deletes,
  // and the transport/overload control signals.
  bool IsControlPlane(const TupleRef& tuple, bool is_delete) const;
  // Classifies and admits a kDeliver headed for the primary queue. Returns false
  // when the tuple was shed (best-effort class at a full queue); the caller then
  // drops it. Marks admitted best-effort entries so Drain can release their slot.
  bool AdmitDelivery(Pending* p);
  // Admission for low-priority work (cap + degraded-mode sampling).
  bool AdmitLow();
  // Sweep-time watchdog: emits the overload tuple for classes that shed since the
  // last sweep, then runs the degrade/restore hysteresis over the sweep-window
  // pressure peak. Deterministic: consumes only queue depths and virtual time.
  void UpdateOverload();

  // Tracks the pending-queue high-water mark; called after every queue push.
  void NoteQueueDepth() {
    size_t depth = queue_.size() + low_queue_.size();
    if (depth > stats_.queue_hwm) {
      stats_.queue_hwm = depth;
    }
    if (depth > sweep_peak_depth_) {
      sweep_peak_depth_ = depth;
    }
    if (be_in_queue_ > stats_.be_queue_hwm) {
      stats_.be_queue_hwm = be_in_queue_;
    }
    if (low_queue_.size() > stats_.low_queue_hwm) {
      stats_.low_queue_hwm = low_queue_.size();
    }
  }

  std::string addr_;
  Network* network_;
  Scheduler* sched_;
  NodeOptions options_;
  NodeStats stats_;
  MetricsRegistry metrics_;
  Histogram* trigger_hist_ = nullptr;  // "strand_trigger_ns"; null when disabled
  Rng rng_;
  Catalog catalog_;
  TupleStore store_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<ForensicsStore> forensics_;

  struct LoadedProgram {
    uint64_t id = 0;
    // Shared with every node of the fleet that loaded the same (source, params); kept
    // after an unload, because the inert strands still point into it.
    std::shared_ptr<const Program> program;
    std::vector<Strand*> strands;            // owned by strands_
    std::vector<ContinuousAggRule*> aggs;    // owned by agg_rules_
    bool unloaded = false;
    bool low_priority = false;
  };

  bool LoadProgramInternal(const std::string& source, const ParamMap& params,
                           bool low_priority, std::string* error);

  std::vector<LoadedProgram> programs_;
  uint64_t next_program_id_ = 1;
  std::vector<const Rule*> loaded_rules_;
  std::vector<std::unique_ptr<Strand>> strands_;
  std::vector<Strand*> strand_ptrs_;
  std::vector<std::unique_ptr<ContinuousAggRule>> agg_rules_;
  // Continuous aggregates are addressed indirectly so table listeners and queued
  // re-evaluations survive an unload (they simply stop resolving).
  std::unordered_map<uint64_t, ContinuousAggRule*> agg_by_id_;
  std::unordered_map<ContinuousAggRule*, uint64_t> agg_ids_;
  uint64_t next_agg_id_ = 1;
  std::unordered_map<std::string, std::vector<Strand*>> triggers_;
  std::unordered_map<std::string, std::vector<std::function<void(const TupleRef&)>>>
      subscribers_;
  std::deque<Pending> queue_;
  // Deferred low-priority work (strand triggers and aggregate re-evaluations):
  // drained only when queue_ is empty.
  std::deque<Pending> low_queue_;
  // Aggregates whose queued re-evaluation a crash dropped, in queue order; their
  // `dirty` flag stays set until Revive queues them again.
  std::vector<uint64_t> crash_dropped_aggs_;
  // Reused scratch buffer for batched delta runs (see Drain / ProcessDeliveryRun).
  std::vector<Pending> run_buf_;
  std::unordered_set<Strand*> low_priority_strands_;
  std::unordered_set<uint64_t> low_priority_aggs_;
  bool draining_ = false;
  bool sweep_scheduled_ = false;
  bool up_ = true;
  // ---- overload resilience state (docs/ROBUSTNESS.md) ----
  size_t be_in_queue_ = 0;       // best-effort entries currently in queue_
  size_t sweep_peak_depth_ = 0;  // peak queue depth since the last sweep
  bool degraded_ = false;        // watchdog state (enter/exit counted in stats_)
  int degrade_streak_ = 0;       // consecutive sweeps toward a transition
  uint64_t low_sample_tick_ = 0;  // degraded-mode sampling of low-priority work
  // Shed totals as of the last sweep, for overload-tuple emission deltas.
  uint64_t last_shed_besteffort_ = 0;
  uint64_t last_shed_low_ = 0;
  // Periodic timer chains, tracked so Revive can re-arm chains that died while the
  // node was down (a chain dies when its tick fires on a crashed node).
  struct PeriodicEntry {
    double period = 0;
    bool armed = false;
    // Registration order: Revive re-arms dead chains in this order, not in the
    // pointer-hash order of the map — timer interleavings must not depend on heap
    // addresses or simulation runs would not be reproducible.
    uint64_t seq = 0;
  };
  std::unordered_map<Strand*, PeriodicEntry> periodic_entries_;
  uint64_t next_periodic_seq_ = 0;
  // Reliable transport state.
  std::set<std::string> reliable_names_;
  std::map<std::string, RelOut> rel_out_;
  std::map<std::string, RelIn> rel_in_;
  std::map<std::string, ChannelStat> channel_stats_;
  Counter* rel_sent_ = nullptr;
  Counter* rel_acked_ = nullptr;
  Counter* rel_retx_ = nullptr;
  Counter* rel_dups_ = nullptr;
  Counter* rel_failed_ = nullptr;
  Counter* rel_acks_sent_ = nullptr;
  std::function<void(const WireEnvelope&)> rel_delivery_tap_;
  // Strands of unloaded programs: their storage stays alive (timer lambdas hold raw
  // pointers) but they no longer trigger, and their timer chains stop.
  std::unordered_set<Strand*> inactive_strands_;
  std::set<std::string> watched_;
  std::deque<WatchEntry> watch_log_;
  std::function<void(double, const TupleRef&)> watch_sink_;
};

// RAII helper accumulating wall-clock processing time into a node's stats.
class BusyTimer {
 public:
  explicit BusyTimer(NodeStats* stats);
  ~BusyTimer();

 private:
  NodeStats* stats_;
  uint64_t start_ns_;
};

}  // namespace p2

#endif  // SRC_NET_NODE_H_
