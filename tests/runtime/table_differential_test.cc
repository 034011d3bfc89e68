// Differential test of Table against a linear-scan reference. The reference below
// implements every operation the way a plain row walk does it: expiry scans all rows
// in insertion order, eviction scans for the earliest expiry (first in insertion order
// among ties), keyed deletes compare every row. Randomized op sequences — inserts that
// collide on keys, unequal keys that share a hash, many equal expiries, short rows,
// deletes by key and by arbitrary pattern, and inserts and deletes issued from inside ForEachLive/ForEachMatch
// callbacks so that expiry, eviction and erasure are deferred — run against both, and
// after every op the listener stream, Scan, Size, counters and index stats must agree.

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/table.h"

namespace p2 {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A field `pos` of `t`, or Null beyond its arity (the rule keys and indexes follow).
Value FieldOrNull(const Tuple& t, size_t pos) {
  return pos < t.arity() ? t.field(pos) : Value::Null();
}

bool SameValues(const ValueList& a, const ValueList& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) {
      return false;
    }
  }
  return true;
}

// Whether each value of `a` hashes like its counterpart in `b`: a secondary index
// matches on the hash of the indexed fields and leaves re-verifying to its callers.
bool SameHashes(const ValueList& a, const ValueList& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Hash() != b[i].Hash()) {
      return false;
    }
  }
  return true;
}

ValueList ValuesAt(const Tuple& t, const std::vector<size_t>& positions) {
  ValueList out;
  for (size_t pos : positions) {
    out.push_back(FieldOrNull(t, pos));
  }
  return out;
}

// The reference: rows in a vector in insertion order, every lookup a linear scan.
class RefTable {
 public:
  explicit RefTable(TableSpec spec) : spec_(std::move(spec)) {}

  void AddListener(Table::Listener fn) { listeners_.push_back(std::move(fn)); }
  const TableCounters& counters() const { return counters_; }

  size_t EnsureIndex(std::vector<size_t> positions) {
    indexes_.push_back({std::move(positions), 0, 0, 0});
    return indexes_.size() - 1;
  }

  std::vector<Table::IndexStats> IndexStatsSnapshot() const {
    size_t entries = 0;
    for (const Row& row : rows_) {
      entries += row.dead ? 0 : 1;
    }
    std::vector<Table::IndexStats> out = indexes_;
    for (Table::IndexStats& s : out) {
      s.entries = entries;
    }
    return out;
  }

  InsertOutcome Insert(const TupleRef& t, double now) {
    ExpireStale(now);
    double expires = std::isinf(spec_.lifetime_secs) ? kInf : now + spec_.lifetime_secs;
    for (Row& row : rows_) {
      if (row.dead || !SameValues(KeyOf(*row.tuple), KeyOf(*t))) {
        continue;
      }
      row.expires_at = expires;
      if (*row.tuple == *t) {
        ++counters_.refreshes;
        return InsertOutcome::kRefreshed;
      }
      TupleRef displaced = row.tuple;
      row.tuple = t;
      ++counters_.inserts;
      Notify(TableChange::kInsert, t, row.seq, &displaced);
      return InsertOutcome::kReplaced;
    }
    const uint64_t seq = next_seq_++;
    rows_.push_back({t, expires, seq, false});
    ++counters_.inserts;
    Notify(TableChange::kInsert, t, seq);
    EvictOverflow();
    return InsertOutcome::kNew;
  }

  size_t DeleteMatching(const ValueList& pattern, const std::vector<bool>& bound,
                        double now) {
    ExpireStale(now);
    size_t deleted = 0;
    for (size_t i = 0; i < rows_.size();) {
      const Tuple& t = *rows_[i].tuple;
      bool match = rows_[i].expires_at > now;
      for (size_t p = 0; match && p < pattern.size() && p < t.arity(); ++p) {
        match = !(p < bound.size() && bound[p]) || pattern[p] == t.field(p);
      }
      if (!match) {
        ++i;
        continue;
      }
      TupleRef victim = rows_[i].tuple;
      const uint64_t seq = rows_[i].seq;
      if (depth_ > 0) {
        rows_[i].dead = true;
        rows_[i].expires_at = -kInf;
        ++i;
      } else {
        rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      ++deleted;
      ++counters_.deletes;
      Notify(TableChange::kDelete, victim, seq);
    }
    return deleted;
  }

  size_t ExpireStale(double now) {
    if (depth_ > 0) {
      return 0;
    }
    size_t expired = 0;
    for (size_t i = 0; i < rows_.size();) {
      if (rows_[i].expires_at > now) {
        ++i;
        continue;
      }
      TupleRef victim = rows_[i].tuple;
      const uint64_t seq = rows_[i].seq;
      rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(i));
      ++expired;
      ++counters_.expires;
      Notify(TableChange::kExpire, victim, seq);
    }
    return expired;
  }

  std::vector<TupleRef> Scan(double now) {
    ExpireStale(now);
    std::vector<TupleRef> out;
    for (const Row& row : rows_) {
      if (row.expires_at > now) {
        out.push_back(row.tuple);
      }
    }
    return out;
  }

  size_t Size(double now) { return Scan(now).size(); }

  TupleRef FindByKey(const ValueList& key_values, double now) {
    ExpireStale(now);
    for (const Row& row : rows_) {
      if (!row.dead && SameValues(KeyOf(*row.tuple), key_values)) {
        return row.expires_at > now ? row.tuple : nullptr;
      }
    }
    return nullptr;
  }

  template <typename Fn>
  size_t ForEachLive(double now, Fn&& fn) {
    ExpireStale(now);
    ++depth_;
    const uint64_t seq_bound = next_seq_;
    size_t yielded = 0;
    // Erasure is deferred during the walk, so positions stay put; rows appended by
    // a callback carry seq >= seq_bound.
    for (size_t i = 0; i < rows_.size() && rows_[i].seq < seq_bound; ++i) {
      if (rows_[i].expires_at <= now) {
        continue;
      }
      ++yielded;
      TupleRef t = rows_[i].tuple;
      if (!fn(t)) {
        break;
      }
    }
    EndWalk();
    return yielded;
  }

  template <typename Fn>
  size_t ForEachMatch(size_t index_id, const ValueList& key_values, double now,
                      Fn&& fn) {
    ExpireStale(now);
    ++indexes_[index_id].probes;
    ++depth_;
    std::vector<size_t> matches;  // snapshot of the bucket when the walk starts
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (!rows_[i].dead &&
          SameHashes(ValuesAt(*rows_[i].tuple, indexes_[index_id].positions),
                     key_values)) {
        matches.push_back(i);
      }
    }
    size_t yielded = 0;
    for (size_t i : matches) {
      if (rows_[i].expires_at <= now) {
        continue;
      }
      ++yielded;
      TupleRef t = rows_[i].tuple;
      if (!fn(t)) {
        break;
      }
    }
    indexes_[index_id].rows_yielded += yielded;
    EndWalk();
    return yielded;
  }

 private:
  struct Row {
    TupleRef tuple;
    double expires_at;
    uint64_t seq;
    bool dead;
  };

  ValueList KeyOf(const Tuple& t) const {
    return spec_.key_fields.empty() ? t.fields() : ValuesAt(t, spec_.key_fields);
  }

  void Notify(TableChange change, const TupleRef& t, uint64_t seq,
              const TupleRef* displaced = nullptr) {
    for (const Table::Listener& fn : listeners_) {
      fn({change, t, seq, displaced});
    }
  }

  void EvictOverflow() {
    if (depth_ > 0) {
      return;
    }
    while (rows_.size() > spec_.max_size) {
      size_t victim = 0;
      for (size_t i = 1; i < rows_.size(); ++i) {
        if (rows_[i].expires_at < rows_[victim].expires_at) {
          victim = i;
        }
      }
      TupleRef t = rows_[victim].tuple;
      const uint64_t seq = rows_[victim].seq;
      rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(victim));
      ++counters_.evictions;
      Notify(TableChange::kEvict, t, seq);
    }
  }

  void EndWalk() {
    if (--depth_ > 0) {
      return;
    }
    rows_.erase(std::remove_if(rows_.begin(), rows_.end(),
                               [](const Row& row) { return row.dead; }),
                rows_.end());
    EvictOverflow();
  }

  TableSpec spec_;
  TableCounters counters_;
  std::vector<Row> rows_;
  std::vector<Table::IndexStats> indexes_;
  std::vector<Table::Listener> listeners_;
  uint64_t next_seq_ = 0;
  int depth_ = 0;
};

// One operation of a generated sequence. Walks carry the action to take at each
// yielded row (an action past the end of `at_yield` does nothing).
struct Op {
  enum class Kind {
    kInsert, kDelete, kExpire, kScan, kSize, kFindByKey, kWalkLive, kWalkMatch, kStop
  };
  Kind kind = Kind::kStop;
  double now = 0;
  TupleRef tuple;           // kInsert
  ValueList values;         // delete pattern, index probe key or primary key
  std::vector<bool> bound;  // kDelete
  size_t index = 0;         // kWalkMatch
  std::vector<Op> at_yield;
};

class OpGenerator {
 public:
  OpGenerator(uint32_t seed, TableSpec spec, std::vector<std::vector<size_t>> indexes)
      : rng_(seed), spec_(std::move(spec)), indexes_(std::move(indexes)) {}

  // The next top-level op; index probes use the first `num_indexes` indexes.
  Op Next(size_t num_indexes) {
    num_indexes_ = num_indexes;
    AdvanceTime();
    return Make(/*walk_depth=*/2);
  }

 private:
  size_t Pick(size_t n) { return rng_() % n; }

  // Time never goes back. Many ops share an instant (equal expiries); some jumps
  // are longer than any finite lifetime.
  void AdvanceTime() {
    size_t r = Pick(10);
    if (r < 5) {
      return;
    }
    now_ += r < 9 ? 0.5 * static_cast<double>(r - 4) : 4.0;
  }

  // Small pools so keys collide (new, replaced and refreshed rows). Int and Id
  // values compare equal across kinds, as keys and indexes must honour; Bool(false)
  // and Bool(true) hash like 0 and 1 but equal neither, so unequal keys share a hash.
  Value PoolValue(size_t pos) {
    switch (pos) {
      case 0:
        return Value::Str(Pick(2) == 0 ? "a" : "b");
      case 1: {
        int64_t v = static_cast<int64_t>(Pick(4));
        switch (Pick(8)) {
          case 0:
          case 1:
            return Value::Id(static_cast<uint64_t>(v));
          case 2:
            return Value::Bool(v % 2 == 1);
          default:
            return Value::Int(v);
        }
      }
      default:
        return Value::Int(static_cast<int64_t>(Pick(3)));
    }
  }

  Value PatternValue(size_t pos) {
    return Pick(12) == 0 ? Value::Null() : PoolValue(pos);
  }

  TupleRef PoolTuple() {
    // Mostly full rows; some short ones that lack a key or indexed position.
    size_t arity = Pick(8) == 0 ? 1 + Pick(2) : 3;
    ValueList fields;
    for (size_t pos = 0; pos < arity; ++pos) {
      fields.push_back(PoolValue(pos));
    }
    return Tuple::Make("t", std::move(fields));
  }

  Op Make(int walk_depth) {
    Op op;
    op.now = now_;
    size_t r = Pick(walk_depth > 0 ? 20 : 15);
    if (r < 7) {
      op.kind = Op::Kind::kInsert;
      op.tuple = PoolTuple();
    } else if (r < 11) {
      op.kind = Op::Kind::kDelete;
      if (Pick(2) == 0 && !spec_.key_fields.empty()) {
        // Bound positions are exactly the key: the probe path.
        op.values.assign(3, Value::Null());
        op.bound.assign(3, false);
        for (size_t pos : spec_.key_fields) {
          op.values[pos] = PatternValue(pos);
          op.bound[pos] = true;
        }
      } else {
        size_t n = Pick(4);
        for (size_t pos = 0; pos < n; ++pos) {
          op.values.push_back(PatternValue(pos));
        }
        for (size_t pos = 0, m = Pick(4); pos < m; ++pos) {
          op.bound.push_back(Pick(2) == 0);
        }
      }
    } else if (r < 12) {
      op.kind = Op::Kind::kExpire;
    } else if (r < 13) {
      op.kind = Op::Kind::kScan;
    } else if (r < 14) {
      op.kind = Op::Kind::kSize;
    } else if (r < 15) {
      op.kind = Op::Kind::kFindByKey;
      for (size_t pos : spec_.key_fields) {
        op.values.push_back(PoolValue(pos));
      }
    } else {
      op.kind = r < 17 ? Op::Kind::kWalkLive : Op::Kind::kWalkMatch;
      if (op.kind == Op::Kind::kWalkMatch) {
        op.index = Pick(num_indexes_);
        for (size_t pos : indexes_[op.index]) {
          op.values.push_back(PoolValue(pos));
        }
      }
      for (size_t i = 0, n = Pick(5); i < n; ++i) {
        if (Pick(6) == 0) {
          op.at_yield.emplace_back();  // kStop: end the walk early
          continue;
        }
        // Callbacks may act at a later instant, so rows expire while the walk holds
        // erasure back.
        if (Pick(4) == 0) {
          now_ += 0.5 * static_cast<double>(1 + Pick(6));
        }
        op.at_yield.push_back(Make(walk_depth - 1));
      }
    }
    return op;
  }

  std::mt19937 rng_;
  TableSpec spec_;
  std::vector<std::vector<size_t>> indexes_;
  size_t num_indexes_ = 0;
  double now_ = 0;
};

std::string Text(const TupleRef& t) { return t == nullptr ? "null" : t->ToString(); }

// Applies `op` to `table`, appending one line per observation to `out`: the op's
// result, the rows a walk yields, and after every op (nested ones included) the
// listener events since the previous op, Scan, Size, counters and index stats.
template <typename T>
void Apply(T& table, const Op& op, std::vector<std::string>* events,
           std::vector<std::string>* out) {
  std::string line;
  switch (op.kind) {
    case Op::Kind::kInsert:
      line = "insert " + Text(op.tuple) + " -> " +
             std::to_string(static_cast<int>(table.Insert(op.tuple, op.now)));
      break;
    case Op::Kind::kDelete:
      line = "delete -> " +
             std::to_string(table.DeleteMatching(op.values, op.bound, op.now));
      break;
    case Op::Kind::kExpire:
      line = "expire -> " + std::to_string(table.ExpireStale(op.now));
      break;
    case Op::Kind::kScan:
      line = "scan ->";
      for (const TupleRef& t : table.Scan(op.now)) {
        line += " " + Text(t);
      }
      break;
    case Op::Kind::kSize:
      line = "size -> " + std::to_string(table.Size(op.now));
      break;
    case Op::Kind::kFindByKey:
      if (!op.values.empty()) {
        line = "find -> " + Text(table.FindByKey(op.values, op.now));
      }
      break;
    case Op::Kind::kWalkLive:
    case Op::Kind::kWalkMatch: {
      size_t k = 0;
      auto visit = [&](const TupleRef& t) {
        out->push_back("  yield " + Text(t));
        if (k >= op.at_yield.size()) {
          return true;
        }
        const Op& action = op.at_yield[k++];
        if (action.kind == Op::Kind::kStop) {
          return false;
        }
        Apply(table, action, events, out);
        return true;
      };
      size_t yielded = op.kind == Op::Kind::kWalkLive
                           ? table.ForEachLive(op.now, visit)
                           : table.ForEachMatch(op.index, op.values, op.now, visit);
      line = "walk -> " + std::to_string(yielded);
      break;
    }
    case Op::Kind::kStop:
      break;
  }
  out->push_back(line);
  for (const std::string& e : *events) {
    out->push_back("  event " + e);
  }
  events->clear();
  std::string state = "  state size=" + std::to_string(table.Size(op.now)) + " rows=";
  for (const TupleRef& t : table.Scan(op.now)) {
    state += " " + Text(t);
  }
  const TableCounters& c = table.counters();
  state += " counters=" + std::to_string(c.inserts) + "/" + std::to_string(c.refreshes) +
           "/" + std::to_string(c.expires) + "/" + std::to_string(c.deletes) + "/" +
           std::to_string(c.evictions);
  for (const Table::IndexStats& s : table.IndexStatsSnapshot()) {
    state += " index=" + std::to_string(s.entries) + "/" + std::to_string(s.probes) +
             "/" + std::to_string(s.rows_yielded);
  }
  out->push_back(state);
  // The Size and Scan above may purge rows; their events belong to this op.
  for (const std::string& e : *events) {
    out->push_back("  event " + e);
  }
  events->clear();
}

template <typename T>
void Listen(T& table, std::vector<std::string>* events) {
  table.AddListener([events](const TableEvent& e) {
    events->push_back(std::to_string(static_cast<int>(e.change)) + " " + Text(e.tuple) +
                      " seq=" + std::to_string(e.seq) +
                      (e.displaced != nullptr ? " displaced=" + Text(*e.displaced) : ""));
  });
}

TableSpec Spec(double lifetime, size_t max_size, std::vector<size_t> keys) {
  TableSpec spec;
  spec.name = "t";
  spec.lifetime_secs = lifetime;
  spec.max_size = max_size;
  spec.key_fields = std::move(keys);
  return spec;
}

TEST(TableDifferentialTest, MatchesLinearScanReference) {
  const size_t kUnbounded = std::numeric_limits<size_t>::max();
  const std::vector<TableSpec> specs = {
      Spec(3, 4, {0, 1}),
      Spec(2, 3, {1}),  // keyed on one field, like tupleTable
      Spec(3, 5, {}),   // whole-tuple key, like ruleExec
      Spec(kInf, 3, {0}),
      Spec(2, kUnbounded, {2}),
      Spec(kInf, 6, {2, 0}),
      Spec(3, 0, {0, 1}),  // holds no row: each insert is evicted after it arrives
  };
  const std::vector<std::vector<size_t>> indexes = {{1}, {2, 0}, {0}};
  for (uint32_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE(seed);
    const TableSpec& spec = specs[seed % specs.size()];
    Table table(spec);
    RefTable ref(spec);
    std::vector<std::string> table_events;
    std::vector<std::string> ref_events;
    Listen(table, &table_events);
    Listen(ref, &ref_events);
    OpGenerator gen(seed, spec, indexes);
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_EQ(table.EnsureIndex(indexes[i]), ref.EnsureIndex(indexes[i]));
    }
    for (int step = 0; step < 300; ++step) {
      if (step == 150) {
        // An index built over existing rows.
        ASSERT_EQ(table.EnsureIndex(indexes[2]), ref.EnsureIndex(indexes[2]));
      }
      Op op = gen.Next(step < 150 ? 2 : 3);
      std::vector<std::string> got;
      std::vector<std::string> want;
      Apply(table, op, &table_events, &got);
      Apply(ref, op, &ref_events, &want);
      size_t n = std::min(got.size(), want.size());
      size_t first = std::mismatch(got.begin(), got.begin() + n, want.begin()).first -
                     got.begin();
      if (first < n || got.size() != want.size()) {
        ADD_FAILURE() << "step " << step << ", line " << first
                      << "\n  table: " << (first < got.size() ? got[first] : "<end>")
                      << "\n  reference: "
                      << (first < want.size() ? want[first] : "<end>");
        break;
      }
    }
  }
}

}  // namespace
}  // namespace p2
