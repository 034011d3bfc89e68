#include "src/trace/replay.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "src/net/node.h"

namespace p2 {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Virtual times are exact scheduler values, identical at every shard count, so a
// fixed-precision rendering is stable across K.
std::string FormatTime(double t) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", t);
  return buf;
}

}  // namespace

const std::string& LiveTraceSource::addr() const { return node_->addr(); }

// The live tables are read in place, in insertion order (the order a Scan copy would
// have), and never through EnsureIndex: a query must not leave an index behind on a
// traced node.
template <typename Fn>
void LiveTraceSource::ForEachRuleExec(Fn&& fn) const {
  Table* rule_exec = node_->catalog().Get("ruleExec");
  if (rule_exec != nullptr) {
    rule_exec->ForEachLive(node_->Now(), [&](const TupleRef& t) {
      fn(*t);
      return true;
    });
  }
}

ExecEdge LiveTraceSource::TriggerEdge(uint64_t effect_id, double max_out_time) const {
  ExecEdge edge;
  ForEachRuleExec([&](const Tuple& t) {
    if (t.field(3) != Value::Id(effect_id) || t.field(6) != Value::Bool(true)) {
      return;
    }
    double out_time = t.field(5).AsDouble();
    if (out_time > max_out_time) {
      return;
    }
    // The rule stated on TraceSource::TriggerEdge.
    if (edge.found && (out_time < edge.out_time ||
                       (out_time == edge.out_time &&
                        (t.field(1).AsString() < edge.rule ||
                         (t.field(1).AsString() == edge.rule &&
                          t.field(2).AsId() < edge.cause_id))))) {
      return;
    }
    edge.rule = t.field(1).AsString();
    edge.cause_id = t.field(2).AsId();
    edge.effect_id = effect_id;
    edge.cause_time = t.field(4).AsDouble();
    edge.out_time = out_time;
    edge.is_event = true;
    edge.found = true;
  });
  return edge;
}

std::vector<ExecEdge> LiveTraceSource::Preconditions(uint64_t effect_id,
                                                     double out_time) const {
  std::vector<ExecEdge> out;
  ForEachRuleExec([&](const Tuple& t) {
    if (t.field(3) != Value::Id(effect_id) || t.field(6) != Value::Bool(false) ||
        t.field(5).AsDouble() != out_time) {
      return;
    }
    uint64_t cause_id = t.field(2).AsId();
    for (const ExecEdge& seen : out) {
      if (seen.cause_id == cause_id) {
        return;
      }
    }
    ExecEdge e;
    e.rule = t.field(1).AsString();
    e.cause_id = cause_id;
    e.effect_id = effect_id;
    e.cause_time = t.field(4).AsDouble();
    e.out_time = out_time;
    e.is_event = false;
    e.found = true;
    out.push_back(e);
  });
  std::sort(out.begin(), out.end(), [](const ExecEdge& a, const ExecEdge& b) {
    if (a.cause_time != b.cause_time) {
      return a.cause_time < b.cause_time;
    }
    return a.cause_id < b.cause_id;
  });
  return out;
}

TupleRef LiveTraceSource::TupleById(uint64_t id) const {
  return node_->store().Lookup(id);
}

bool LiveTraceSource::Provenance(uint64_t id, std::string* src_addr,
                                 uint64_t* src_tuple_id) const {
  // tupleTable is keyed on its TupleID field, so one probe finds the row.
  Table* tuple_table = node_->catalog().Get("tupleTable");
  if (tuple_table == nullptr) {
    return false;
  }
  TupleRef t = tuple_table->FindByKey({Value::Id(id)}, node_->Now());
  if (t == nullptr) {
    return false;
  }
  const std::string& src = t->field(2).AsString();
  if (src.empty() || src == node_->addr()) {
    return false;
  }
  *src_addr = src;
  *src_tuple_id = t->field(3).AsId();
  return true;
}

std::vector<std::pair<uint64_t, double>> LiveTraceSource::FindHeads(
    const std::string& key, double t1, double t2) const {
  std::vector<std::pair<uint64_t, double>> heads;
  ForEachRuleExec([&](const Tuple& t) {
    if (t.field(6) != Value::Bool(true)) {
      return;
    }
    double out_time = t.field(5).AsDouble();
    if (out_time < t1 || out_time > t2) {
      return;
    }
    uint64_t effect_id = t.field(3).AsId();
    TupleRef effect = node_->store().Lookup(effect_id);
    if (effect == nullptr || !ForensicsStore::MatchKey(key, *effect)) {
      return;
    }
    heads.emplace_back(effect_id, out_time);
  });
  ForensicsStore::CanonicalizeHeads(&heads);
  return heads;
}

std::vector<CausalChain> ReplayChains(const TraceSourceResolver& resolver,
                                      const std::string& addr, const std::string& key,
                                      double t1, double t2, ReplayLimits limits) {
  std::vector<CausalChain> chains;
  TraceSource* origin = resolver(addr);
  if (origin == nullptr) {
    return chains;
  }
  std::vector<std::pair<uint64_t, double>> heads = origin->FindHeads(key, t1, t2);
  if (heads.size() > limits.max_heads) {
    heads.resize(limits.max_heads);
  }
  for (const auto& [head_id, head_time] : heads) {
    CausalChain chain;
    chain.node = addr;
    chain.head_id = head_id;
    chain.head_time = head_time;
    TupleRef head = origin->TupleById(head_id);
    if (head != nullptr) {
      chain.head_text = head->ToString();
    }
    TraceSource* src = origin;
    uint64_t cur_id = head_id;
    double bound = head_time;
    bool hop_pending = false;
    std::set<std::pair<std::string, uint64_t>> visited;
    visited.insert({src->addr(), cur_id});
    for (size_t depth = 0;; ++depth) {
      if (depth >= limits.max_depth) {
        chain.truncated = true;
        break;
      }
      ExecEdge edge = src->TriggerEdge(cur_id, bound);
      if (!edge.found) {
        // No local derivation: either an injected root, lost history, or a tuple
        // that arrived over the network — provenance decides.
        std::string peer_addr;
        uint64_t peer_id = 0;
        if (src->Provenance(cur_id, &peer_addr, &peer_id)) {
          TraceSource* peer = resolver(peer_addr);
          if (peer != nullptr && visited.insert({peer_addr, peer_id}).second) {
            src = peer;
            cur_id = peer_id;
            hop_pending = true;
            continue;
          }
        }
        break;
      }
      CausalStep step;
      step.node = src->addr();
      step.rule = edge.rule;
      step.cause_id = edge.cause_id;
      step.effect_id = edge.effect_id;
      step.cause_time = edge.cause_time;
      step.out_time = edge.out_time;
      step.hop = hop_pending;
      hop_pending = false;
      TupleRef cause = src->TupleById(edge.cause_id);
      if (cause != nullptr) {
        step.cause_text = cause->ToString();
      }
      for (const ExecEdge& pc : src->Preconditions(cur_id, edge.out_time)) {
        TupleRef pct = src->TupleById(pc.cause_id);
        step.preconds.emplace_back(pc.cause_id,
                                   pct == nullptr ? std::string() : pct->ToString());
      }
      chain.steps.push_back(std::move(step));
      cur_id = edge.cause_id;
      bound = edge.cause_time;
      if (!visited.insert({src->addr(), cur_id}).second) {
        break;  // refresh loop (a materialized head re-deriving its own cause)
      }
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

std::string ExportChainsJsonl(const std::vector<CausalChain>& chains) {
  std::string out;
  for (const CausalChain& chain : chains) {
    out += "{\"node\":\"" + JsonEscape(chain.node) + "\"";
    out += ",\"head_id\":" + std::to_string(chain.head_id);
    out += ",\"head_time\":" + FormatTime(chain.head_time);
    out += ",\"head\":\"" + JsonEscape(chain.head_text) + "\"";
    out += ",\"truncated\":" + std::string(chain.truncated ? "true" : "false");
    out += ",\"steps\":[";
    bool first = true;
    for (const CausalStep& step : chain.steps) {
      if (!first) {
        out += ",";
      }
      first = false;
      out += "{\"node\":\"" + JsonEscape(step.node) + "\"";
      out += ",\"rule\":\"" + JsonEscape(step.rule) + "\"";
      out += ",\"cause_id\":" + std::to_string(step.cause_id);
      out += ",\"effect_id\":" + std::to_string(step.effect_id);
      out += ",\"cause_time\":" + FormatTime(step.cause_time);
      out += ",\"out_time\":" + FormatTime(step.out_time);
      out += ",\"cause\":\"" + JsonEscape(step.cause_text) + "\"";
      out += ",\"hop\":" + std::string(step.hop ? "true" : "false");
      out += ",\"preconds\":[";
      bool pfirst = true;
      for (const auto& [id, text] : step.preconds) {
        if (!pfirst) {
          out += ",";
        }
        pfirst = false;
        out += "{\"id\":" + std::to_string(id) + ",\"tuple\":\"" + JsonEscape(text) +
               "\"}";
      }
      out += "]}";
    }
    out += "]}\n";
  }
  return out;
}

}  // namespace p2
