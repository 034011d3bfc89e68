// Table: soft-state storage for materialized tuples (paper §2, `materialize`).
//
// A table is declared with a maximum tuple lifetime, a maximum size, and a primary key
// (a subset of field positions). Inserting a tuple whose key already exists replaces the
// old row; inserting an identical tuple merely refreshes its lifetime (and does NOT count
// as a delta — this is what keeps recursive rule sets like the path-vector example from
// deriving forever). When the table exceeds its maximum size, the oldest row is evicted.
//
// Listeners observe changes; the planner uses them to drive table-delta rule strands and
// continuous aggregate re-evaluation, and the tracer uses them for ruleExec GC.
//
// Upkeep costs per change, not per row: an indexed min-heap orders rows by
// (expires_at, seq), so expiry pops only the rows whose lifetime has passed and
// eviction takes the heap top; a delete that binds exactly the primary key probes it.
//
// The primary key is stored once, in the row's own tuple: the key index maps the
// key's hash to the rows with that hash, and each candidate's key fields are read in
// place and confirmed with Value::operator== (equal hashes alone never match). Insert,
// FindByKey, keyed deletes and Remove copy no key.
//
// Secondary indexes (EnsureIndex / ForEachMatch): hash indexes over arbitrary field
// subsets, requested by the planner for join probes that bind only part of (or none
// of) the primary key. They are maintained inline across every mutation — insert,
// replace, refresh, delete, expire, evict. A probe copies the bucket it hits into a
// vector before calling back (see ForEachMatch). The index consistency contract is
// documented in docs/INTERNALS.md.

#ifndef SRC_RUNTIME_TABLE_H_
#define SRC_RUNTIME_TABLE_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/tuple.h"

namespace p2 {

// Declaration of a materialized table, as written in a `materialize(...)` statement.
struct TableSpec {
  std::string name;
  // Seconds a tuple stays alive after its last insert/refresh; infinity allowed.
  double lifetime_secs = std::numeric_limits<double>::infinity();
  // Maximum number of rows; the oldest row is evicted beyond this. SIZE_MAX = unbounded.
  size_t max_size = std::numeric_limits<size_t>::max();
  // 0-based field positions forming the primary key. Empty means the whole tuple.
  std::vector<size_t> key_fields;
};

// Cumulative change counts for one table, updated inline on every mutation (plain
// integer adds — cheap enough to stay always-on). `expires` counts both sweep-driven
// and lazy (access-time) expiries. Surfaced through sysTableStat and metrics sinks.
struct TableCounters {
  uint64_t inserts = 0;    // kNew + kReplaced outcomes
  uint64_t refreshes = 0;  // identical re-insert, lifetime extended only
  uint64_t expires = 0;
  uint64_t deletes = 0;
  uint64_t evictions = 0;
};

// What happened on an Insert.
enum class InsertOutcome {
  kNew,       // no row with this key existed
  kReplaced,  // a row with this key but different contents was replaced
  kRefreshed  // an identical row existed; only its lifetime was extended
};

// Kinds of change reported to listeners.
enum class TableChange {
  kInsert,  // a new or replacing row (a "delta" in rule-evaluation terms)
  kDelete,  // explicitly deleted by a `delete` rule
  kExpire,  // lifetime ran out
  kEvict    // displaced by the size bound
};

// One change, as listeners see it.
struct TableEvent {
  TableChange change;
  const TupleRef& tuple;  // the row's tuple; for a replacing kInsert, the new one
  // The row's insertion rank: ForEachLive walks rows in ascending seq. A replace keeps
  // the displaced row's place, and so its seq.
  uint64_t seq;
  // On a kInsert that replaced a row, the tuple it displaced (no kDelete is reported
  // for it); null otherwise.
  const TupleRef* displaced;
};

class Table {
 public:
  // A listener is called synchronously after each change. It must never mutate the
  // table that notified it (ExpireStale notifies after unhooking the whole expired
  // batch from the heap); mutating another table is allowed, as the tracer's GC
  // listener does when a ruleExec row drops the last reference to a tupleTable row.
  using Listener = std::function<void(const TableEvent&)>;

  explicit Table(TableSpec spec);

  const TableSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  // Inserts `t` at time `now`. Expired rows are purged first.
  InsertOutcome Insert(const TupleRef& t, double now);

  // Deletes all rows matching `pattern`: a row matches when every bound pattern
  // position equals the corresponding field. Returns the number of rows deleted.
  // Positions beyond the row's arity are ignored. When the bound positions are exactly
  // the primary-key fields the delete probes the key instead of walking the rows.
  size_t DeleteMatching(const ValueList& pattern,
                        const std::vector<bool>& bound, double now);

  // Purges rows whose lifetime has passed; fires kExpire for each, in insertion order.
  // Returns count.
  size_t ExpireStale(double now);

  // Returns the current rows (after purging expired ones), in insertion order.
  // Materializes a copy — hot paths should use ForEachLive instead.
  std::vector<TupleRef> Scan(double now);

  // Allocation-free iteration over live rows in insertion order. `fn` is called as
  // fn(const TupleRef&) -> bool; returning false stops early. Returns the number of
  // rows yielded.
  //
  // Iteration-safe with snapshot semantics: while any walk over this table is in
  // flight, row erasure (expiry, delete, eviction) is deferred — stale/deleted rows
  // are filtered per row instead and purged when the outermost walk ends — and rows
  // inserted by a callback are not visited (the walk stops at the sequence number
  // current when it started). This makes nested probes of the same table (self-joins)
  // and callbacks that insert into the table (a traced strand joining ruleExec writes
  // ruleExec rows as it emits) both safe and equivalent to iterating a Scan copy.
  template <typename Fn>
  size_t ForEachLive(double now, Fn&& fn) {
    return ForEachLiveRow(now, [&fn](const TupleRef& t, uint64_t) { return fn(t); });
  }

  // ForEachLive for callers that keep rows in table order themselves: `fn` is called
  // as fn(const TupleRef&, uint64_t seq) -> bool, with the seq listeners see
  // (TableEvent::seq).
  template <typename Fn>
  size_t ForEachLiveRow(double now, Fn&& fn) {
    ExpireStale(now);
    IterGuard guard(this);
    const uint64_t seq_bound = next_seq_;  // rows_ is seq-ordered
    size_t yielded = 0;
    for (const Row& row : rows_) {
      if (row.seq >= seq_bound) {
        break;  // inserted by a callback after this walk started
      }
      if (row.expires_at <= now) {
        continue;  // expired/deleted but not yet purged (erasure deferred)
      }
      ++yielded;
      if (!fn(row.tuple, row.seq)) {
        break;
      }
    }
    return yielded;
  }

  // Builds (or reuses) a secondary hash index over `positions` (0-based field
  // positions, in probe order). Existing rows are indexed immediately; subsequent
  // mutations keep the index consistent inline. Returns a stable index id for
  // ForEachMatch. Requesting the same position set twice returns the same id.
  size_t EnsureIndex(std::vector<size_t> positions);

  size_t NumIndexes() const { return secondary_.size(); }

  // Probes index `index_id` with one value per indexed position (in the order given
  // to EnsureIndex) and iterates the matching live rows in insertion order — the
  // same order a scan would visit them, so an indexed join explores its branches
  // exactly like the scan it replaces. The index matches on the hash of the indexed
  // fields, so `fn` may see false positives under hash collision — callers re-verify
  // each row (strand execution does so via MatchPredicate). Same
  // callback/early-exit/iteration-safety contract as ForEachLive. Returns rows
  // yielded.
  template <typename Fn>
  size_t ForEachMatch(size_t index_id, const ValueList& key_values, double now,
                      Fn&& fn) {
    ExpireStale(now);
    SecondaryIndex& index = *secondary_[index_id];
    ++index.probes;
    IterGuard guard(this);
    size_t yielded = 0;
    auto bucket = index.map.find(HashValues(key_values));
    if (bucket != index.map.end()) {
      // Snapshot the bucket before invoking callbacks: a callback may insert into
      // this table, rehashing the index maps under a live bucket iterator. Row
      // erasure is deferred while the IterGuard is held, so the copied row
      // iterators stay valid throughout. Sorting by seq restores insertion order.
      std::vector<std::pair<uint64_t, RowIt>> matches(
          bucket->second.begin(), bucket->second.end());
      std::sort(matches.begin(), matches.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [seq, it] : matches) {
        if (it->expires_at <= now) {
          continue;  // expired/deleted but not yet purged (erasure deferred)
        }
        ++yielded;
        if (!fn(it->tuple)) {
          break;
        }
      }
    }
    index.rows_yielded += yielded;
    return yielded;
  }

  // Cumulative per-index telemetry, surfaced through sysIndexStat.
  struct IndexStats {
    std::vector<size_t> positions;
    uint64_t probes = 0;        // ForEachMatch calls
    uint64_t rows_yielded = 0;  // rows handed to probe callbacks
    size_t entries = 0;         // rows currently indexed
  };
  std::vector<IndexStats> IndexStatsSnapshot() const;

  // Point lookup by primary-key values (one Value per declared key field, in
  // declaration order). Returns nullptr when absent. Only valid when the table has
  // explicit key fields; the planner uses this to turn joins that bind the whole key
  // into O(1) probes instead of scans.
  TupleRef FindByKey(const ValueList& key_values, double now);

  // Number of live rows at `now`.
  size_t Size(double now);

  // Approximate bytes held by live rows.
  size_t ByteSize() const;

  void AddListener(Listener fn) { listeners_.push_back(std::move(fn)); }

  // Cumulative mutation counts since creation.
  const TableCounters& counters() const { return counters_; }

 private:
  struct Row {
    TupleRef tuple;
    double expires_at;
    uint64_t seq;     // monotonically increasing insert order
    size_t heap_pos;  // slot in heap_; kNoSlot once unlinked (expired, deleted, evicted)
  };
  using RowIt = std::list<Row>::iterator;
  static constexpr size_t kNoSlot = std::numeric_limits<size_t>::max();

  struct IdentityHash {
    size_t operator()(size_t h) const noexcept { return h; }
  };

  // One secondary index: hash of the indexed fields -> (row seq -> row). The inner
  // map makes per-row removal O(1) even when many rows share an indexed value (a
  // low-selectivity index would otherwise turn bulk expiry quadratic).
  struct SecondaryIndex {
    std::vector<size_t> positions;
    std::unordered_map<size_t, std::unordered_map<uint64_t, RowIt>, IdentityHash> map;
    uint64_t probes = 0;
    uint64_t rows_yielded = 0;
    size_t entries = 0;
  };

  // Defers row erasure while rows are being walked (see ForEachLive); when the
  // outermost walk ends, applies the deferred structural work.
  struct IterGuard {
    explicit IterGuard(Table* t) : table(t) { ++table->iter_depth_; }
    ~IterGuard() {
      if (--table->iter_depth_ == 0) {
        table->EndIterMaintenance();
      }
    }
    Table* table;
  };
  friend struct IterGuard;

  // FNV-1a over Value::Hash — shared by the primary key and every secondary index,
  // so cross-kind numeric equality (Int(7) == Id(7)) probes consistently. HashAt
  // folds the values at `positions` exactly as HashValues folds a list of them.
  static size_t HashValues(const ValueList& vals);
  static size_t HashAt(const ValueList& vals, const std::vector<size_t>& positions);
  // vals[pos], or Null past the end: keys and indexes read a short row's missing
  // fields as Null.
  static const Value& ValueOrNull(const ValueList& vals, size_t pos);

  // A primary key read in place: the values of `vals` at `positions`, or all of
  // `vals` when `positions` is null (a whole-tuple key).
  struct KeyView {
    const ValueList& vals;
    const std::vector<size_t>* positions;
    size_t size() const { return positions != nullptr ? positions->size() : vals.size(); }
    const Value& operator[](size_t i) const {
      return positions != nullptr ? ValueOrNull(vals, (*positions)[i]) : vals[i];
    }
    size_t Hash() const {
      return positions != nullptr ? HashAt(vals, *positions) : HashValues(vals);
    }
  };
  KeyView KeyOf(const Tuple& t) const {
    return {t.fields(), spec_.key_fields.empty() ? nullptr : &spec_.key_fields};
  }
  // The indexed row whose key equals `key` (whose Hash() is `hash`), or rows_.end().
  RowIt FindKey(const KeyView& key, size_t hash);
  // File a row under (or remove it from) every lookup derived from its contents
  // other than the primary key: the secondary indexes and short_rows_.
  void SecondaryAdd(RowIt it);
  void SecondaryRemove(RowIt it);
  // A short row lacks some primary-key field; a keyed delete still matches it on the
  // fields it has, so short rows are kept apart from the key probe.
  bool IsShort(const Tuple& t) const { return t.arity() < key_span_; }
  bool BindsExactlyKey(const ValueList& pattern, const std::vector<bool>& bound) const;
  // Unlinks a row from every lookup and the heap, erases it (or leaves a corpse while
  // a walk is in flight), counts the change and notifies listeners.
  void Remove(RowIt it, TableChange change);
  void Notify(const TableEvent& event);
  void EvictOverflow();
  void EndIterMaintenance();

  static bool InsertedBefore(RowIt a, RowIt b) { return a->seq < b->seq; }
  // Indexed binary min-heap over heap_, ordered by (expires_at, seq).
  static bool ExpiresBefore(const Row& a, const Row& b) {
    return a.expires_at < b.expires_at ||
           (a.expires_at == b.expires_at && a.seq < b.seq);
  }
  void HeapPlace(size_t pos, RowIt it) {
    heap_[pos] = it;
    it->heap_pos = pos;
  }
  void HeapPush(RowIt it);
  void HeapErase(size_t pos);
  void HeapFix(size_t pos);  // re-sifts a row whose expires_at changed

  TableSpec spec_;
  TableCounters counters_;
  std::list<Row> rows_;  // insertion order
  // Primary key: key hash -> row, one entry per indexed row. Rows whose keys differ
  // may share a hash; FindKey confirms each candidate's fields.
  std::unordered_multimap<size_t, RowIt, IdentityHash> index_;
  std::vector<std::unique_ptr<SecondaryIndex>> secondary_;
  std::vector<Listener> listeners_;
  // Every row of rows_ that is not a corpse, earliest expiry on top; ties break on
  // seq, i.e. insertion order. Lets ExpireStale — called on every insert and scan —
  // return in O(1) when nothing has expired and pop only the rows that have.
  std::vector<RowIt> heap_;
  // Rows deleted mid-walk: unlinked everywhere and hidden, erased when the outermost
  // walk ends.
  std::vector<RowIt> corpses_;
  // Short rows by seq (see IsShort); empty unless rows lack primary-key fields.
  std::map<uint64_t, RowIt> short_rows_;
  size_t key_span_ = 0;  // 1 + the largest primary-key position; 0 for a whole-tuple key
  uint64_t next_seq_ = 0;
  int iter_depth_ = 0;  // >0 while ForEachLive/ForEachMatch walk rows
};

}  // namespace p2

#endif  // SRC_RUNTIME_TABLE_H_
