// ForensicsStore: bounded, log-structured retention of the execution trace
// (docs/OBSERVABILITY.md, "Forensics & time-travel queries").
//
// The live `ruleExec` / `tupleTable` tables are ordinary soft state: rows expire
// after `rule_exec_lifetime` seconds, so a long-running fleet loses the ability to
// answer "why did this happen an hour ago?". The forensics store is the paper's
// missing retention half: the Tracer dual-writes every execution record and every
// memoized tuple payload into an append-only in-memory log, organised as segments
// sealed by time range. Retention is enforced at *segment* granularity — when the
// byte budget or the age bound is exceeded, whole cold segments are dropped from
// the old end (a log-structured store never rewrites), so the retained history is
// always one contiguous window [oldest, now].
//
// Each segment is self-contained for replay: an exec record's cause and effect
// payloads are (re-)recorded into the segment that holds the record, so dropping a
// segment never breaks chains in the segments that remain. Cross-segment payload
// duplication is the price of whole-segment drop, and is counted in the budget.
//
// Each segment keeps its time range, so queries skip segments outside a window.
// When a segment seals it also builds a lookup index, dropped with the segment and
// never rebuilt: effect id -> record positions (the backward step's TriggerEdge and
// Preconditions), and head key -> positions of is_event records (FindHeads), keyed
// by hashes of the effect's name and of its "name/firstarg", each hit confirmed
// with MatchKey. The index is derived data: 4 bytes per record plus 8 per head key
// (two per event record), held outside `budget_bytes`. The active segment, at most
// `segment_records` records, has no index and is scanned; so is a segment under key
// "*", whose heads are all its event records in the window.

#ifndef SRC_TRACE_FORENSICS_H_
#define SRC_TRACE_FORENSICS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/runtime/tuple.h"

namespace p2 {

struct ForensicsOptions {
  // Master switch; when set on NodeOptions it also implies tracing (the store is
  // fed by the tracer's taps).
  bool enabled = false;
  // Seal the active segment once it holds this many exec records...
  size_t segment_records = 1024;
  // ...or once it spans this much virtual time, whichever comes first.
  double segment_span = 30.0;
  // Total retained-byte budget across all segments; the oldest sealed segments are
  // dropped until the total fits. The active segment is never dropped, so the
  // budget is enforced at segment granularity (one segment of slack).
  size_t budget_bytes = 4u << 20;
  // Age bound on retained records; 0 = bytes-only retention.
  double max_age = 0.0;
};

// Snapshot for sysForensicsStat(NAddr, Segments, Records, Bytes, Dropped, OldestMs).
struct ForensicsStats {
  uint64_t segments = 0;          // retained segments (incl. the active one)
  uint64_t records = 0;           // retained exec records
  uint64_t bytes = 0;             // approximate retained bytes
  uint64_t dropped_segments = 0;  // segments compacted away since construction
  double oldest_time = 0;         // earliest retained record time; 0 when empty
};

// One backward step of a causal chain: the ruleExec row (live or retained) whose
// EffectID matches the queried tuple.
struct ExecEdge {
  std::string rule;
  uint64_t cause_id = 0;
  uint64_t effect_id = 0;
  double cause_time = 0;
  double out_time = 0;
  bool is_event = false;
  bool found = false;
};

class ForensicsStore {
 public:
  ForensicsStore(std::string node_addr, ForensicsOptions options);

  ForensicsStore(const ForensicsStore&) = delete;
  ForensicsStore& operator=(const ForensicsStore&) = delete;

  const std::string& addr() const { return node_addr_; }
  const ForensicsOptions& options() const { return options_; }

  // --- ingest (called by the Tracer's dual-write path) ---

  // Appends one execution record and re-records the cause/effect payloads into the
  // active segment so it stays self-contained.
  void RecordExec(const std::string& rule_id, uint64_t cause_id, const TupleRef& cause,
                  uint64_t effect_id, const TupleRef& effect, double cause_time,
                  double out_time, bool is_event, double now);

  // Records a memoized tuple payload with its provenance (where the tuple came
  // from; `src_addr == addr()` means locally created).
  void RecordTuple(uint64_t id, const TupleRef& tuple, const std::string& src_addr,
                   uint64_t src_tuple_id, double now);

  // Drops whole cold segments until the byte budget and the age bound hold.
  // Called from the node's sweep; also run opportunistically when a segment seals.
  void Compact(double now);

  ForensicsStats Stats() const;

  // --- time-travel queries (see src/trace/replay.h for the chain walk) ---

  // The retained trigger edge (is_event) for `effect_id` with out_time <=
  // max_out_time that TraceSource::TriggerEdge's rule picks (src/trace/replay.h);
  // edges equal on that rule differ at most in cause_time, and the greater wins.
  // Returns found=false when none is retained.
  ExecEdge TriggerEdge(uint64_t effect_id, double max_out_time) const;

  // Precondition rows (is_event=false) sharing `effect_id` whose out_time matches
  // the chosen trigger edge, sorted by (cause_time, cause_id).
  std::vector<ExecEdge> Preconditions(uint64_t effect_id, double out_time) const;

  // Decodes the retained payload for tuple `id` (newest copy), or nullptr if the
  // segments holding it were dropped.
  TupleRef TupleById(uint64_t id) const;

  // Provenance of tuple `id`: true (and fills outputs) when the retained payload
  // arrived from another node.
  bool Provenance(uint64_t id, std::string* src_addr, uint64_t* src_tuple_id) const;

  // Heads for a time-travel query: (effect id, out_time) of retained trigger edges
  // whose effect tuple matches `key` and whose out_time lies in [t1, t2], sorted by
  // (out_time, effect_id). `key` is "*" (any), a tuple name, or "name/firstarg".
  std::vector<std::pair<uint64_t, double>> FindHeads(const std::string& key, double t1,
                                                     double t2) const;

  // True when the retained window still covers everything back to `t1` — i.e. no
  // record in [t1, now] can have been dropped by compaction.
  bool Covers(double t1) const;

  // Key predicate shared with the live walk (src/trace/replay.cc).
  static bool MatchKey(const std::string& key, const Tuple& tuple);

  // Head order shared with the live walk: re-derivations of one tuple collapse to
  // the latest, then (out_time, id) ascending, independent of scan order.
  static void CanonicalizeHeads(std::vector<std::pair<uint64_t, double>>* heads);

 private:
  struct ExecRecord {
    uint32_t rule = 0;  // index into rule_names_
    uint64_t cause_id = 0;
    uint64_t effect_id = 0;
    double cause_time = 0;
    double out_time = 0;
    bool is_event = false;
  };

  struct Payload {
    std::string bytes;     // wire-encoded tuple (src/net/wire.h)
    std::string src_addr;  // provenance origin; empty = unknown
    uint64_t src_tuple_id = 0;
    double time = 0;  // first recorded into this segment
  };

  // Built by Seal; positions index Segment::execs.
  struct SegmentIndex {
    // Every record position, sorted by (effect_id, position).
    std::vector<uint32_t> by_effect;
    // (key hash, position) for each is_event record whose effect payload the
    // segment holds, under the effect's name and under its "name/firstarg"; sorted.
    std::vector<std::pair<uint32_t, uint32_t>> by_head_key;
    // is_event records whose effect payload the segment lacks (ingested with a null
    // effect): no key to file them under, so every head lookup takes them as
    // candidates and the payload's newest retained copy decides.
    std::vector<uint32_t> unkeyed;
  };

  struct Segment {
    double min_time = 0;
    double max_time = 0;
    bool has_records = false;
    bool sealed = false;
    size_t bytes = 0;  // approximate footprint, counted into the budget
    std::vector<ExecRecord> execs;
    std::unordered_map<uint64_t, Payload> payloads;
    SegmentIndex index;  // empty until sealed
  };

  Segment& Active(double now);
  static void Seal(Segment& seg);
  void Touch(Segment& seg, double t);
  void AddPayload(Segment& seg, uint64_t id, const TupleRef& tuple,
                  const std::string& src_addr, uint64_t src_tuple_id, double t);
  uint32_t InternRule(const std::string& rule_id);
  const Payload* FindPayload(uint64_t id) const;
  // Calls fn(record) for each record of `seg` whose effect is `effect_id`, in
  // append order.
  template <typename Fn>
  static void ForEachWithEffect(const Segment& seg, uint64_t effect_id, Fn fn);
  // True when trigger edge `a` wins over `b` (the order TriggerEdge describes).
  bool Newer(const ExecRecord& a, const ExecRecord& b) const;
  ExecEdge ToEdge(const ExecRecord& rec) const;

  std::string node_addr_;
  ForensicsOptions options_;
  std::deque<Segment> segments_;  // oldest first; back() is the active segment
  std::vector<std::string> rule_names_;
  std::unordered_map<std::string, uint32_t> rule_ids_;
  uint64_t dropped_segments_ = 0;
  // Latest known provenance per tuple id, copied into segments on exec re-record
  // so hops survive the drop of the segment that first saw the arrival. Entries
  // for locally created tuples are not kept (the common case), bounding growth to
  // remote arrivals; the map itself is bookkeeping, not retained history.
  std::unordered_map<uint64_t, std::pair<std::string, uint64_t>> remote_prov_;
};

}  // namespace p2

#endif  // SRC_TRACE_FORENSICS_H_
