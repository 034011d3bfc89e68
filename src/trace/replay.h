// Time-travel causal replay (docs/OBSERVABILITY.md).
//
// ReplayChains reconstructs the causal rule chains behind tuples matching a key in
// a time window, walking trigger edges backward (EffectID -> CauseID, paper §2.1)
// and stitching cross-node hops through tupleTable provenance. The walk is written
// against the TraceSource interface so the same logic runs over both trace
// representations:
//
//   LiveTraceSource       — the live ruleExec / tupleTable tables + TupleStore
//                           (soft state: answers only while rows are alive)
//   ForensicsTraceSource  — the bounded log-structured ForensicsStore
//                           (answers for any window still inside the budget)
//
// The simfuzz retention-consistency oracle runs the same windows through both and
// requires identical chains (src/simtest/oracles.cc).
//
// Determinism contract: chains, steps, and the JSONL export are canonically
// ordered — (head out_time, head tuple id) across chains, walk order within a
// chain, (cause_time, cause id) among join preconditions — and tuple-ID interning
// order is shard-invariant (docs/SCALING.md), so exported chains are bit-identical
// at any shard count K.

#ifndef SRC_TRACE_REPLAY_H_
#define SRC_TRACE_REPLAY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/trace/forensics.h"

namespace p2 {

class Node;

// One backward step: `rule` fired on `node` at out_time, deriving the tuple with
// id `effect_id` from trigger cause `cause_id`. When `hop` is set, the step's
// effect crossed the network: the previous (downstream) step observed the tuple on
// a different node and provenance led here.
struct CausalStep {
  std::string node;
  std::string rule;
  uint64_t cause_id = 0;
  uint64_t effect_id = 0;
  double cause_time = 0;
  double out_time = 0;
  std::string cause_text;  // printed trigger tuple; empty if the payload is gone
  bool hop = false;
  // Join preconditions that enabled the output: (tuple id, printed tuple).
  std::vector<std::pair<uint64_t, std::string>> preconds;
};

struct CausalChain {
  std::string node;  // node the query was issued against
  uint64_t head_id = 0;
  double head_time = 0;
  std::string head_text;
  bool truncated = false;  // depth limit hit before reaching a root
  std::vector<CausalStep> steps;  // backward from the head
};

// One node's view of a trace, queryable for the backward walk.
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual const std::string& addr() const = 0;
  // The trigger edge for `effect_id` with the latest out_time <= max_out_time;
  // among edges with that out_time, the greatest (rule, cause id) wins, so every
  // source picks the same edge whatever order it holds them in.
  virtual ExecEdge TriggerEdge(uint64_t effect_id, double max_out_time) const = 0;
  // Precondition rows sharing (effect_id, out_time), canonically ordered.
  virtual std::vector<ExecEdge> Preconditions(uint64_t effect_id,
                                              double out_time) const = 0;
  virtual TupleRef TupleById(uint64_t id) const = 0;
  // True when tuple `id` arrived from another node; fills the sender and the
  // sender's id for it.
  virtual bool Provenance(uint64_t id, std::string* src_addr,
                          uint64_t* src_tuple_id) const = 0;
  // (effect id, out_time) of trigger edges whose effect matches `key` in [t1, t2],
  // sorted by (out_time, id). Key syntax: "*", "name", or "name/firstarg".
  virtual std::vector<std::pair<uint64_t, double>> FindHeads(const std::string& key,
                                                             double t1,
                                                             double t2) const = 0;
};

// The live soft-state tables. Host-side only (reads Node tables directly): safe
// between Fleet::Run calls, like NodeHandle::Query.
class LiveTraceSource : public TraceSource {
 public:
  explicit LiveTraceSource(Node* node) : node_(node) {}
  const std::string& addr() const override;
  ExecEdge TriggerEdge(uint64_t effect_id, double max_out_time) const override;
  std::vector<ExecEdge> Preconditions(uint64_t effect_id,
                                      double out_time) const override;
  TupleRef TupleById(uint64_t id) const override;
  bool Provenance(uint64_t id, std::string* src_addr,
                  uint64_t* src_tuple_id) const override;
  std::vector<std::pair<uint64_t, double>> FindHeads(const std::string& key, double t1,
                                                     double t2) const override;

 private:
  // Calls fn(const Tuple&) for every live ruleExec row, in insertion order.
  template <typename Fn>
  void ForEachRuleExec(Fn&& fn) const;

  Node* node_;
};

// The bounded retention store.
class ForensicsTraceSource : public TraceSource {
 public:
  explicit ForensicsTraceSource(const ForensicsStore* store) : store_(store) {}
  const std::string& addr() const override { return store_->addr(); }
  ExecEdge TriggerEdge(uint64_t effect_id, double max_out_time) const override {
    return store_->TriggerEdge(effect_id, max_out_time);
  }
  std::vector<ExecEdge> Preconditions(uint64_t effect_id,
                                      double out_time) const override {
    return store_->Preconditions(effect_id, out_time);
  }
  TupleRef TupleById(uint64_t id) const override { return store_->TupleById(id); }
  bool Provenance(uint64_t id, std::string* src_addr,
                  uint64_t* src_tuple_id) const override {
    return store_->Provenance(id, src_addr, src_tuple_id);
  }
  std::vector<std::pair<uint64_t, double>> FindHeads(const std::string& key, double t1,
                                                     double t2) const override {
    return store_->FindHeads(key, t1, t2);
  }

 private:
  const ForensicsStore* store_;
};

// Maps a node address to its trace source (nullptr = unknown node; the walk then
// stops at that hop). Lets the walk stitch chains across the fleet.
using TraceSourceResolver = std::function<TraceSource*(const std::string&)>;

struct ReplayLimits {
  size_t max_heads = 256;  // chains per query
  size_t max_depth = 64;   // steps per chain
};

// Reconstructs the causal chains of every tuple matching `key` derived on `addr`
// during [t1, t2], following cross-node provenance through `resolver`.
std::vector<CausalChain> ReplayChains(const TraceSourceResolver& resolver,
                                      const std::string& addr, const std::string& key,
                                      double t1, double t2,
                                      ReplayLimits limits = ReplayLimits());

// One JSON object per chain, canonically ordered (see determinism contract above).
std::string ExportChainsJsonl(const std::vector<CausalChain>& chains);

}  // namespace p2

#endif  // SRC_TRACE_REPLAY_H_
