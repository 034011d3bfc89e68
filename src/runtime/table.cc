#include "src/runtime/table.h"

#include <cmath>
#include <iterator>

namespace p2 {

Table::Table(TableSpec spec) : spec_(std::move(spec)) {
  for (size_t pos : spec_.key_fields) {
    key_span_ = std::max(key_span_, pos + 1);
  }
}

size_t Table::HashValues(const ValueList& vals) {
  size_t h = 1469598103934665603ULL;
  for (const Value& v : vals) {
    h = h * 1099511628211ULL ^ v.Hash();
  }
  return h;
}

size_t Table::HashAt(const ValueList& vals, const std::vector<size_t>& positions) {
  size_t h = 1469598103934665603ULL;
  for (size_t pos : positions) {
    h = h * 1099511628211ULL ^ ValueOrNull(vals, pos).Hash();
  }
  return h;
}

const Value& Table::ValueOrNull(const ValueList& vals, size_t pos) {
  static const Value kNull;
  return pos < vals.size() ? vals[pos] : kNull;
}

Table::RowIt Table::FindKey(const KeyView& key, size_t hash) {
  auto [first, last] = index_.equal_range(hash);
  for (auto entry = first; entry != last; ++entry) {
    // Equal hashes are only candidates (Bool(true) hashes like Int(1)): compare the
    // fields, arity first.
    const KeyView row = KeyOf(*entry->second->tuple);
    bool equal = row.size() == key.size();
    for (size_t i = 0; equal && i < key.size(); ++i) {
      equal = row[i] == key[i];
    }
    if (equal) {
      return entry->second;
    }
  }
  return rows_.end();
}

size_t Table::EnsureIndex(std::vector<size_t> positions) {
  for (size_t i = 0; i < secondary_.size(); ++i) {
    if (secondary_[i]->positions == positions) {
      return i;
    }
  }
  auto index = std::make_unique<SecondaryIndex>();
  index->positions = std::move(positions);
  for (auto it = rows_.begin(); it != rows_.end(); ++it) {
    index->map[HashAt(it->tuple->fields(), index->positions)].emplace(it->seq, it);
    ++index->entries;
  }
  secondary_.push_back(std::move(index));
  return secondary_.size() - 1;
}

void Table::SecondaryAdd(RowIt it) {
  for (auto& index : secondary_) {
    index->map[HashAt(it->tuple->fields(), index->positions)].emplace(it->seq, it);
    ++index->entries;
  }
  if (IsShort(*it->tuple)) {
    short_rows_.emplace(it->seq, it);
  }
}

void Table::SecondaryRemove(RowIt it) {
  if (IsShort(*it->tuple)) {
    short_rows_.erase(it->seq);
  }
  for (auto& index : secondary_) {
    auto bucket = index->map.find(HashAt(it->tuple->fields(), index->positions));
    if (bucket == index->map.end()) {
      continue;
    }
    if (bucket->second.erase(it->seq) > 0) {
      --index->entries;
    }
    if (bucket->second.empty()) {
      index->map.erase(bucket);
    }
  }
}

std::vector<Table::IndexStats> Table::IndexStatsSnapshot() const {
  std::vector<IndexStats> out;
  out.reserve(secondary_.size());
  for (const auto& index : secondary_) {
    out.push_back({index->positions, index->probes, index->rows_yielded, index->entries});
  }
  return out;
}

void Table::HeapPush(RowIt it) {
  heap_.push_back(it);
  HeapFix(heap_.size() - 1);
}

void Table::HeapErase(size_t pos) {
  heap_[pos]->heap_pos = kNoSlot;
  RowIt last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    HeapPlace(pos, last);
    HeapFix(pos);
  }
}

void Table::HeapFix(size_t pos) {
  RowIt it = heap_[pos];
  while (pos > 0 && ExpiresBefore(*it, *heap_[(pos - 1) / 2])) {
    HeapPlace(pos, heap_[(pos - 1) / 2]);
    pos = (pos - 1) / 2;
  }
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= heap_.size()) {
      break;
    }
    if (child + 1 < heap_.size() && ExpiresBefore(*heap_[child + 1], *heap_[child])) {
      ++child;
    }
    if (!ExpiresBefore(*heap_[child], *it)) {
      break;
    }
    HeapPlace(pos, heap_[child]);
    pos = child;
  }
  HeapPlace(pos, it);
}

void Table::Remove(RowIt it, TableChange change) {
  TupleRef tuple = it->tuple;
  const uint64_t seq = it->seq;
  // Erase this row's own entry: other rows may share its key hash.
  auto [first, last] = index_.equal_range(KeyOf(*tuple).Hash());
  for (auto entry = first; entry != last; ++entry) {
    if (entry->second == it) {
      index_.erase(entry);
      break;
    }
  }
  SecondaryRemove(it);
  if (it->heap_pos != kNoSlot) {
    HeapErase(it->heap_pos);
  }
  if (iter_depth_ > 0) {
    // Only deletes get here mid-walk (e.g. tracer GC firing mid-join): erasing would
    // invalidate the walk. Hide the row from every access and leave the corpse for
    // EndIterMaintenance.
    it->expires_at = -std::numeric_limits<double>::infinity();
    corpses_.push_back(it);
  } else {
    rows_.erase(it);
  }
  switch (change) {
    case TableChange::kExpire:
      ++counters_.expires;
      break;
    case TableChange::kEvict:
      ++counters_.evictions;
      break;
    default:
      ++counters_.deletes;
      break;
  }
  Notify({change, tuple, seq, nullptr});
}

void Table::Notify(const TableEvent& event) {
  for (const Listener& fn : listeners_) {
    fn(event);
  }
}

InsertOutcome Table::Insert(const TupleRef& t, double now) {
  ExpireStale(now);
  const KeyView key = KeyOf(*t);
  const size_t hash = key.Hash();
  double expires = std::isinf(spec_.lifetime_secs)
                       ? std::numeric_limits<double>::infinity()
                       : now + spec_.lifetime_secs;
  RowIt hit = FindKey(key, hash);
  if (hit != rows_.end()) {
    Row& row = *hit;
    if (*row.tuple == *t) {
      row.expires_at = expires;  // identical: refresh lifetime only, no delta
      HeapFix(row.heap_pos);
      ++counters_.refreshes;
      return InsertOutcome::kRefreshed;
    }
    // The key (and so its hash and index entry) stays; indexed field values may
    // change with the payload.
    SecondaryRemove(hit);
    TupleRef displaced = std::move(row.tuple);
    row.tuple = t;
    row.expires_at = expires;
    SecondaryAdd(hit);
    HeapFix(row.heap_pos);
    ++counters_.inserts;
    Notify({TableChange::kInsert, t, row.seq, &displaced});
    return InsertOutcome::kReplaced;
  }
  const uint64_t seq = next_seq_++;
  rows_.push_back(Row{t, expires, seq, kNoSlot});
  RowIt row = std::prev(rows_.end());
  index_.emplace(hash, row);
  SecondaryAdd(row);
  HeapPush(row);
  ++counters_.inserts;
  // Listeners see the row arrive before any eviction it causes (its own included).
  Notify({TableChange::kInsert, t, seq, nullptr});
  EvictOverflow();
  return InsertOutcome::kNew;
}

void Table::EvictOverflow() {
  if (iter_depth_ > 0) {
    // A walk is in flight: erasing would invalidate it. EndIterMaintenance
    // re-checks the size bound once the outermost walk ends.
    return;
  }
  while (rows_.size() > spec_.max_size) {
    // Evict the row closest to expiry: capacity pressure accelerates the aging the
    // table would do anyway. Refreshes push a row's expiry out, so soft state that
    // is still being maintained (e.g. a Chord node's own best successor) survives
    // while once-gossiped entries go first. Ties (notably infinite-lifetime tables)
    // fall back to insertion order: the heap breaks them on seq.
    Remove(heap_.front(), TableChange::kEvict);
  }
}

bool Table::BindsExactlyKey(const ValueList& pattern,
                            const std::vector<bool>& bound) const {
  if (spec_.key_fields.empty()) {
    return false;
  }
  size_t n = std::min(pattern.size(), bound.size());
  size_t bound_count = 0;
  for (size_t i = 0; i < n; ++i) {
    bound_count += bound[i] ? 1 : 0;
  }
  for (size_t pos : spec_.key_fields) {
    if (pos >= n || !bound[pos]) {
      return false;
    }
  }
  return bound_count == spec_.key_fields.size();
}

size_t Table::DeleteMatching(const ValueList& pattern,
                             const std::vector<bool>& bound, double now) {
  ExpireStale(now);
  auto matches = [&](const Tuple& t) {
    for (size_t i = 0; i < pattern.size() && i < t.arity(); ++i) {
      if (i < bound.size() && bound[i] && !(pattern[i] == t.field(i))) {
        return false;
      }
    }
    return true;
  };
  // Rows whose lifetime has passed or that were already deleted are skipped: their
  // purge was deferred by an in-flight walk.
  std::vector<RowIt> victims;
  if (BindsExactlyKey(pattern, bound)) {
    const KeyView key{pattern, &spec_.key_fields};
    RowIt hit = FindKey(key, key.Hash());
    if (hit != rows_.end() && hit->expires_at > now && !IsShort(*hit->tuple)) {
      victims.push_back(hit);
    }
    for (const auto& [seq, it] : short_rows_) {
      if (it->expires_at > now && matches(*it->tuple)) {
        victims.push_back(it);
      }
    }
    std::sort(victims.begin(), victims.end(), InsertedBefore);
  } else {
    for (auto it = rows_.begin(); it != rows_.end(); ++it) {
      if (it->expires_at > now && matches(*it->tuple)) {
        victims.push_back(it);
      }
    }
  }
  for (RowIt it : victims) {
    Remove(it, TableChange::kDelete);
  }
  return victims.size();
}

void Table::EndIterMaintenance() {
  // Counters and listeners already fired when each corpse was deleted.
  for (RowIt it : corpses_) {
    rows_.erase(it);
  }
  corpses_.clear();
  if (rows_.size() > spec_.max_size) {
    EvictOverflow();  // inserts mid-walk skipped the size bound
  }
}

size_t Table::ExpireStale(double now) {
  if (heap_.empty() || heap_.front()->expires_at > now) {
    return 0;  // nothing has expired yet
  }
  if (iter_depth_ > 0) {
    // Rows are being walked (possibly by this very caller, re-entering through a
    // nested self-join probe): erasing would invalidate the walk. Iterations filter
    // stale rows per row; the purge happens on the next non-nested access.
    return 0;
  }
  std::vector<RowIt> victims;
  while (!heap_.empty() && heap_.front()->expires_at <= now) {
    victims.push_back(heap_.front());
    HeapErase(0);
  }
  // The heap yields victims by expiry; listeners see them in insertion order.
  std::sort(victims.begin(), victims.end(), InsertedBefore);
  for (RowIt it : victims) {
    Remove(it, TableChange::kExpire);
  }
  return victims.size();
}

TupleRef Table::FindByKey(const ValueList& key_values, double now) {
  ExpireStale(now);
  const KeyView key{key_values, nullptr};
  RowIt hit = FindKey(key, key.Hash());
  if (hit == rows_.end() || hit->expires_at <= now) {
    return nullptr;  // stale rows survive the (possibly deferred) purge; never match
  }
  return hit->tuple;
}

std::vector<TupleRef> Table::Scan(double now) {
  ExpireStale(now);
  std::vector<TupleRef> out;
  out.reserve(rows_.size());
  for (const Row& row : rows_) {
    if (row.expires_at <= now) {
      continue;  // purge was deferred by an in-flight iteration
    }
    out.push_back(row.tuple);
  }
  return out;
}

size_t Table::Size(double now) {
  ExpireStale(now);
  if (iter_depth_ > 0 &&
      (!corpses_.empty() || (!heap_.empty() && heap_.front()->expires_at <= now))) {
    // The purge was deferred by an in-flight iteration: count live rows explicitly.
    size_t live = 0;
    for (const Row& row : rows_) {
      live += row.expires_at > now ? 1 : 0;
    }
    return live;
  }
  return rows_.size();
}

size_t Table::ByteSize() const {
  size_t bytes = 0;
  for (const Row& row : rows_) {
    bytes += row.tuple->ByteSize();
  }
  return bytes;
}

}  // namespace p2
