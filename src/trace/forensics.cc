#include "src/trace/forensics.h"

#include <algorithm>
#include <numeric>

#include "src/net/wire.h"

namespace p2 {

namespace {

// FNV-1a (32-bit), for the seal-time head-key index. Hits are confirmed with
// MatchKey, so a collision costs one decode, never a wrong answer.
uint32_t KeyHash(const std::string& s) {
  uint32_t h = 2166136261u;
  for (unsigned char c : s) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

// "name/firstarg" — the key-prefix form (field 0 is the location specifier).
std::string KeyPrefix(const Tuple& t) {
  if (t.arity() < 2) {
    return t.name();
  }
  return t.name() + "/" + t.field(1).ToString();
}

TupleRef Decode(const std::string& bytes) {
  size_t pos = 0;
  TupleRef out;
  if (!DecodeTuple(bytes, &pos, &out)) {
    return nullptr;
  }
  return out;
}

constexpr size_t kExecRecordCost = 48;    // struct + vector slack, approximate
constexpr size_t kPayloadFixedCost = 64;  // map node + Payload struct, approximate

}  // namespace

ForensicsStore::ForensicsStore(std::string node_addr, ForensicsOptions options)
    : node_addr_(std::move(node_addr)), options_(options) {
  if (options_.segment_records == 0) {
    options_.segment_records = 1;
  }
  if (options_.segment_span <= 0) {
    options_.segment_span = 30.0;
  }
}

ForensicsStore::Segment& ForensicsStore::Active(double now) {
  if (segments_.empty()) {
    segments_.emplace_back();
  }
  Segment* seg = &segments_.back();
  bool span_full = seg->has_records && now - seg->min_time >= options_.segment_span;
  if (seg->execs.size() >= options_.segment_records || span_full) {
    Seal(*seg);
    segments_.emplace_back();
    Compact(now);  // sealing is the natural budget-enforcement point
    seg = &segments_.back();
  }
  return *seg;
}

void ForensicsStore::Seal(Segment& seg) {
  seg.sealed = true;
  SegmentIndex& ix = seg.index;
  const uint32_t n = static_cast<uint32_t>(seg.execs.size());
  ix.by_effect.resize(n);
  std::iota(ix.by_effect.begin(), ix.by_effect.end(), 0u);
  std::sort(ix.by_effect.begin(), ix.by_effect.end(), [&seg](uint32_t a, uint32_t b) {
    uint64_t ea = seg.execs[a].effect_id;
    uint64_t eb = seg.execs[b].effect_id;
    return ea != eb ? ea < eb : a < b;
  });
  for (uint32_t pos = 0; pos < n; ++pos) {
    const ExecRecord& rec = seg.execs[pos];
    if (!rec.is_event) {
      continue;
    }
    auto it = seg.payloads.find(rec.effect_id);
    TupleRef effect = it == seg.payloads.end() ? nullptr : Decode(it->second.bytes);
    if (effect == nullptr) {
      ix.unkeyed.push_back(pos);
      continue;
    }
    uint32_t name = KeyHash(effect->name());
    uint32_t prefix = KeyHash(KeyPrefix(*effect));
    ix.by_head_key.emplace_back(name, pos);
    if (prefix != name) {
      ix.by_head_key.emplace_back(prefix, pos);
    }
  }
  std::sort(ix.by_head_key.begin(), ix.by_head_key.end());
}

void ForensicsStore::Touch(Segment& seg, double t) {
  if (!seg.has_records) {
    seg.min_time = t;
    seg.max_time = t;
    seg.has_records = true;
  } else {
    seg.min_time = std::min(seg.min_time, t);
    seg.max_time = std::max(seg.max_time, t);
  }
}

uint32_t ForensicsStore::InternRule(const std::string& rule_id) {
  auto it = rule_ids_.find(rule_id);
  if (it != rule_ids_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(rule_names_.size());
  rule_names_.push_back(rule_id);
  rule_ids_.emplace(rule_id, id);
  return id;
}

void ForensicsStore::AddPayload(Segment& seg, uint64_t id, const TupleRef& tuple,
                                const std::string& src_addr, uint64_t src_tuple_id,
                                double t) {
  if (tuple == nullptr) {
    return;
  }
  auto it = seg.payloads.find(id);
  if (it != seg.payloads.end()) {
    // Already retained in this segment; upgrade provenance if this call knows more.
    if (it->second.src_addr.empty() && !src_addr.empty()) {
      seg.bytes += src_addr.size();
      it->second.src_addr = src_addr;
      it->second.src_tuple_id = src_tuple_id;
    }
    return;
  }
  Payload p;
  EncodeTuple(*tuple, &p.bytes);
  p.src_addr = src_addr;
  p.src_tuple_id = src_tuple_id;
  p.time = t;
  seg.bytes += p.bytes.size() + p.src_addr.size() + kPayloadFixedCost;
  seg.payloads.emplace(id, std::move(p));
  Touch(seg, t);
}

void ForensicsStore::RecordExec(const std::string& rule_id, uint64_t cause_id,
                                const TupleRef& cause, uint64_t effect_id,
                                const TupleRef& effect, double cause_time,
                                double out_time, bool is_event, double now) {
  if (!options_.enabled) {
    return;
  }
  Segment& seg = Active(now);
  ExecRecord rec;
  rec.rule = InternRule(rule_id);
  rec.cause_id = cause_id;
  rec.effect_id = effect_id;
  rec.cause_time = cause_time;
  rec.out_time = out_time;
  rec.is_event = is_event;
  seg.execs.push_back(rec);
  seg.bytes += kExecRecordCost;
  Touch(seg, out_time);
  // Keep the segment self-contained: the walk needs both endpoint payloads. The
  // cause may have arrived from another node long ago — re-attach its last known
  // provenance so the cross-node hop survives dropping the arrival's segment.
  auto cause_prov = remote_prov_.find(cause_id);
  if (cause_prov != remote_prov_.end()) {
    AddPayload(seg, cause_id, cause, cause_prov->second.first,
               cause_prov->second.second, now);
  } else {
    AddPayload(seg, cause_id, cause, node_addr_, cause_id, now);
  }
  AddPayload(seg, effect_id, effect, node_addr_, effect_id, now);
}

void ForensicsStore::RecordTuple(uint64_t id, const TupleRef& tuple,
                                 const std::string& src_addr, uint64_t src_tuple_id,
                                 double now) {
  if (!options_.enabled) {
    return;
  }
  if (!src_addr.empty() && src_addr != node_addr_) {
    remote_prov_[id] = {src_addr, src_tuple_id};
  }
  AddPayload(Active(now), id, tuple, src_addr, src_tuple_id, now);
}

void ForensicsStore::Compact(double now) {
  size_t total = 0;
  for (const Segment& seg : segments_) {
    total += seg.bytes;
  }
  while (segments_.size() > 1 && segments_.front().sealed) {
    const Segment& oldest = segments_.front();
    bool over_budget = total > options_.budget_bytes;
    bool too_old = options_.max_age > 0 && oldest.has_records &&
                   oldest.max_time < now - options_.max_age;
    if (!over_budget && !too_old) {
      break;
    }
    total -= oldest.bytes;
    segments_.pop_front();
    ++dropped_segments_;
  }
}

ForensicsStats ForensicsStore::Stats() const {
  ForensicsStats s;
  s.dropped_segments = dropped_segments_;
  bool have_oldest = false;
  for (const Segment& seg : segments_) {
    if (!seg.has_records && seg.execs.empty() && seg.payloads.empty()) {
      continue;  // the empty active segment does not count
    }
    ++s.segments;
    s.records += seg.execs.size();
    s.bytes += seg.bytes;
    // Segments are ordered oldest-first, so the first record-bearing one holds the
    // start of the retained window (a time of 0.0 is a valid minimum, not "unset").
    if (seg.has_records && !have_oldest) {
      s.oldest_time = seg.min_time;
      have_oldest = true;
    }
  }
  return s;
}

template <typename Fn>
void ForensicsStore::ForEachWithEffect(const Segment& seg, uint64_t effect_id, Fn fn) {
  if (!seg.sealed) {
    for (const ExecRecord& rec : seg.execs) {
      if (rec.effect_id == effect_id) {
        fn(rec);
      }
    }
    return;
  }
  const std::vector<uint32_t>& ix = seg.index.by_effect;
  auto it = std::lower_bound(ix.begin(), ix.end(), effect_id,
                             [&seg](uint32_t pos, uint64_t id) {
                               return seg.execs[pos].effect_id < id;
                             });
  for (; it != ix.end() && seg.execs[*it].effect_id == effect_id; ++it) {
    fn(seg.execs[*it]);
  }
}

bool ForensicsStore::Newer(const ExecRecord& a, const ExecRecord& b) const {
  if (a.out_time != b.out_time) {
    return a.out_time > b.out_time;
  }
  if (a.rule != b.rule) {
    return rule_names_[a.rule] > rule_names_[b.rule];
  }
  if (a.cause_id != b.cause_id) {
    return a.cause_id > b.cause_id;
  }
  return a.cause_time > b.cause_time;
}

ExecEdge ForensicsStore::ToEdge(const ExecRecord& rec) const {
  ExecEdge e;
  e.rule = rule_names_[rec.rule];
  e.cause_id = rec.cause_id;
  e.effect_id = rec.effect_id;
  e.cause_time = rec.cause_time;
  e.out_time = rec.out_time;
  e.is_event = rec.is_event;
  e.found = true;
  return e;
}

ExecEdge ForensicsStore::TriggerEdge(uint64_t effect_id, double max_out_time) const {
  const ExecRecord* best = nullptr;
  // Newest segment first, so the time ranges of older ones usually rule them out;
  // a segment whose newest record ties the best still counts (ties across a seal).
  for (auto seg = segments_.rbegin(); seg != segments_.rend(); ++seg) {
    if (!seg->has_records || seg->min_time > max_out_time ||
        (best != nullptr && seg->max_time < best->out_time)) {
      continue;
    }
    ForEachWithEffect(*seg, effect_id, [&](const ExecRecord& rec) {
      if (rec.is_event && rec.out_time <= max_out_time &&
          (best == nullptr || Newer(rec, *best))) {
        best = &rec;
      }
    });
  }
  return best == nullptr ? ExecEdge() : ToEdge(*best);
}

std::vector<ExecEdge> ForensicsStore::Preconditions(uint64_t effect_id,
                                                    double out_time) const {
  std::vector<ExecEdge> out;
  for (const Segment& seg : segments_) {
    if (!seg.has_records || out_time < seg.min_time || out_time > seg.max_time) {
      continue;
    }
    ForEachWithEffect(seg, effect_id, [&](const ExecRecord& rec) {
      if (rec.is_event || rec.out_time != out_time) {
        return;
      }
      for (const ExecEdge& seen : out) {
        if (seen.cause_id == rec.cause_id) {
          return;
        }
      }
      out.push_back(ToEdge(rec));
    });
  }
  std::sort(out.begin(), out.end(), [](const ExecEdge& a, const ExecEdge& b) {
    if (a.cause_time != b.cause_time) {
      return a.cause_time < b.cause_time;
    }
    return a.cause_id < b.cause_id;
  });
  return out;
}

const ForensicsStore::Payload* ForensicsStore::FindPayload(uint64_t id) const {
  for (auto seg = segments_.rbegin(); seg != segments_.rend(); ++seg) {
    auto it = seg->payloads.find(id);
    if (it != seg->payloads.end()) {
      return &it->second;
    }
  }
  return nullptr;
}

TupleRef ForensicsStore::TupleById(uint64_t id) const {
  const Payload* p = FindPayload(id);
  return p == nullptr ? nullptr : Decode(p->bytes);
}

bool ForensicsStore::Provenance(uint64_t id, std::string* src_addr,
                                uint64_t* src_tuple_id) const {
  const Payload* p = FindPayload(id);
  if (p == nullptr || p->src_addr.empty() || p->src_addr == node_addr_) {
    return false;
  }
  *src_addr = p->src_addr;
  *src_tuple_id = p->src_tuple_id;
  return true;
}

bool ForensicsStore::MatchKey(const std::string& key, const Tuple& tuple) {
  if (key == "*") {
    return true;
  }
  if (key == tuple.name()) {
    return true;
  }
  return key == KeyPrefix(tuple);
}

void ForensicsStore::CanonicalizeHeads(std::vector<std::pair<uint64_t, double>>* heads) {
  std::sort(heads->begin(), heads->end(),
            [](const std::pair<uint64_t, double>& a,
               const std::pair<uint64_t, double>& b) {
              if (a.first != b.first) {
                return a.first < b.first;
              }
              return a.second > b.second;
            });
  heads->erase(std::unique(heads->begin(), heads->end(),
                           [](const std::pair<uint64_t, double>& a,
                              const std::pair<uint64_t, double>& b) {
                             return a.first == b.first;
                           }),
               heads->end());
  std::sort(heads->begin(), heads->end(),
            [](const std::pair<uint64_t, double>& a,
               const std::pair<uint64_t, double>& b) {
              if (a.second != b.second) {
                return a.second < b.second;
              }
              return a.first < b.first;
            });
}

std::vector<std::pair<uint64_t, double>> ForensicsStore::FindHeads(
    const std::string& key, double t1, double t2) const {
  std::vector<std::pair<uint64_t, double>> heads;
  auto add_if_in_window = [&](const ExecRecord& rec) {
    if (rec.is_event && rec.out_time >= t1 && rec.out_time <= t2) {
      heads.emplace_back(rec.effect_id, rec.out_time);
    }
  };
  const uint32_t hash = KeyHash(key);
  for (const Segment& seg : segments_) {
    if (!seg.has_records || seg.max_time < t1 || seg.min_time > t2) {
      continue;
    }
    if (!seg.sealed || key == "*") {
      for (const ExecRecord& rec : seg.execs) {
        add_if_in_window(rec);
      }
      continue;
    }
    const SegmentIndex& ix = seg.index;
    auto it = std::lower_bound(ix.by_head_key.begin(), ix.by_head_key.end(),
                               std::make_pair(hash, uint32_t{0}));
    for (; it != ix.by_head_key.end() && it->first == hash; ++it) {
      add_if_in_window(seg.execs[it->second]);
    }
    for (uint32_t pos : ix.unkeyed) {
      add_if_in_window(seg.execs[pos]);
    }
  }
  // Tuple ids are never reused (src/trace/tuple_store.h), so every copy of an id's
  // payload holds the same tuple: one check per distinct candidate confirms its key
  // and that its payload is still retained.
  CanonicalizeHeads(&heads);
  heads.erase(std::remove_if(heads.begin(), heads.end(),
                             [&](const std::pair<uint64_t, double>& head) {
                               TupleRef effect = TupleById(head.first);
                               return effect == nullptr || !MatchKey(key, *effect);
                             }),
              heads.end());
  return heads;
}

bool ForensicsStore::Covers(double t1) const {
  if (dropped_segments_ == 0) {
    return true;
  }
  ForensicsStats s = Stats();
  return s.records > 0 && s.oldest_time <= t1;
}

}  // namespace p2
