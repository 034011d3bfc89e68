// Bounded log-structured trace retention + cross-node causal replay
// (docs/OBSERVABILITY.md "Forensics & time-travel queries").
//
// Covers the ForensicsStore lifecycle (segment sealing, whole-segment budget
// compaction, the contiguous-window contract), the seal-time index against a
// brute-force reference, the trigger-edge tie-break shared with the live walk, the
// time-travel query path on p2::Fleet — including the headline capability:
// answering ReplayChains for a window whose live ruleExec rows have already
// expired, cross-node hops included — shard-count invariance of the JSONL chain
// export, retention-vs-live digest agreement (the simfuzz retention-consistency
// oracle's real-fleet footing), and the 64-node monitored-Chord budget acceptance
// run.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/chord/chord.h"
#include "src/net/fleet.h"
#include "src/simtest/oracles.h"
#include "src/trace/forensics.h"
#include "src/trace/replay.h"

namespace p2 {
namespace {

TupleRef T(const std::string& name, int x) {
  return Tuple::Make(name, {Value::Str("n1"), Value::Int(x)});
}

ForensicsOptions SmallSegments() {
  ForensicsOptions opts;
  opts.enabled = true;
  opts.segment_records = 4;
  opts.segment_span = 100.0;  // seal by record count only
  opts.budget_bytes = 1u << 20;
  return opts;
}

// --- ForensicsStore unit surface -------------------------------------------------

TEST(ForensicsStoreTest, SegmentsSealByRecordCountAndStatsTrack) {
  ForensicsStore store("n1", SmallSegments());
  for (int i = 0; i < 10; ++i) {
    store.RecordExec("r1", 100 + i, T("a", i), 200 + i, T("b", i),
                     /*cause_time=*/i * 1.0, /*out_time=*/i * 1.0,
                     /*is_event=*/true, /*now=*/i * 1.0);
  }
  ForensicsStats s = store.Stats();
  EXPECT_EQ(s.records, 10u);
  EXPECT_GE(s.segments, 3u);  // 4 + 4 + 2 at segment_records=4
  EXPECT_EQ(s.dropped_segments, 0u);
  EXPECT_GT(s.bytes, 0u);
  EXPECT_DOUBLE_EQ(s.oldest_time, 0.0);
  EXPECT_TRUE(store.Covers(0.0));
}

TEST(ForensicsStoreTest, QueriesAnswerFromRetainedSegments) {
  ForensicsStore store("n1", SmallSegments());
  // Two-step chain a -> r1 -> b -> r2 -> c plus a join precondition w on r2.
  store.RecordExec("r1", 1, T("a", 7), 2, T("b", 7), 1.0, 1.0, true, 1.0);
  store.RecordExec("r2", 2, T("b", 7), 3, T("c", 7), 1.0, 2.0, true, 2.0);
  store.RecordExec("r2", 9, T("w", 99), 3, T("c", 7), 0.5, 2.0, false, 2.0);

  ExecEdge e = store.TriggerEdge(3, 10.0);
  ASSERT_TRUE(e.found);
  EXPECT_EQ(e.rule, "r2");
  EXPECT_EQ(e.cause_id, 2u);
  EXPECT_TRUE(e.is_event);
  // The bound threads downward: asking before r2's out_time finds nothing.
  EXPECT_FALSE(store.TriggerEdge(3, 1.5).found);

  std::vector<ExecEdge> pre = store.Preconditions(3, 2.0);
  ASSERT_EQ(pre.size(), 1u);
  EXPECT_EQ(pre[0].cause_id, 9u);
  EXPECT_FALSE(pre[0].is_event);

  TupleRef w = store.TupleById(9);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->name(), "w");
  EXPECT_EQ(w->field(1), Value::Int(99));

  // FindHeads honors the key syntax and the window.
  EXPECT_EQ(store.FindHeads("*", 0, 10).size(), 2u);  // ids 2 and 3
  ASSERT_EQ(store.FindHeads("c", 0, 10).size(), 1u);
  EXPECT_EQ(store.FindHeads("c", 0, 10)[0].first, 3u);
  // "name/firstarg" keys on field 1, the first argument after the location.
  EXPECT_EQ(store.FindHeads("c/7", 0, 10).size(), 1u);
  EXPECT_EQ(store.FindHeads("c/zzz", 0, 10).size(), 0u);
  EXPECT_EQ(store.FindHeads("c", 0, 1.5).size(), 0u);
}

TEST(ForensicsStoreTest, BudgetCompactionDropsWholeColdSegments) {
  ForensicsOptions opts = SmallSegments();
  opts.budget_bytes = 2048;  // a handful of 4-record segments
  ForensicsStore store("n1", opts);
  for (int i = 0; i < 200; ++i) {
    store.RecordExec("r1", 1000 + i, T("a", i), 2000 + i, T("b", i), i * 0.1, i * 0.1,
                     true, i * 0.1);
  }
  store.Compact(20.0);
  ForensicsStats s = store.Stats();
  EXPECT_GT(s.dropped_segments, 0u);
  EXPECT_LE(s.bytes, opts.budget_bytes);
  EXPECT_GT(s.oldest_time, 0.0);
  // The retained window is contiguous: covered from oldest_time, not before.
  EXPECT_FALSE(store.Covers(0.0));
  EXPECT_TRUE(store.Covers(s.oldest_time));
  // Records inside the dropped prefix are gone; retained ones still answer.
  EXPECT_FALSE(store.TriggerEdge(2000, 100.0).found);        // oldest, dropped
  EXPECT_TRUE(store.TriggerEdge(2000 + 199, 100.0).found);   // newest, retained
  EXPECT_EQ(store.TupleById(1000), nullptr);
  ASSERT_NE(store.TupleById(1000 + 199), nullptr);
}

TEST(ForensicsStoreTest, AgeBoundDropsOldSegmentsEvenUnderByteBudget) {
  ForensicsOptions opts = SmallSegments();
  opts.max_age = 5.0;
  ForensicsStore store("n1", opts);
  for (int i = 0; i < 20; ++i) {
    store.RecordExec("r1", 100 + i, T("a", i), 200 + i, T("b", i), i * 1.0, i * 1.0,
                     true, i * 1.0);
  }
  store.Compact(/*now=*/19.0);
  ForensicsStats s = store.Stats();
  EXPECT_GT(s.dropped_segments, 0u);
  EXPECT_GE(s.oldest_time, 19.0 - 5.0 - 4.0);  // segment granularity slack
}

// Equal out_times break on the greatest (rule, cause id), the rule the live walk
// follows (TraceSource::TriggerEdge), whatever the append order: within one
// segment, and when the tied records straddle a seal.
TEST(ForensicsStoreTest, TriggerEdgeTiesBreakOnRuleThenCauseAcrossSeals) {
  for (size_t segment_records : {size_t{64}, size_t{2}}) {
    SCOPED_TRACE(segment_records);
    ForensicsOptions opts = SmallSegments();
    opts.segment_records = segment_records;
    ForensicsStore store("n1", opts);
    // Effect 50 derived three times at t=3 — by rb from 7, ra from 9, rb from 5 —
    // so the winner (rb, 7) is neither the first nor the last appended.
    store.RecordExec("rb", 7, T("a", 7), 50, T("s", 1), 2.0, 3.0, true, 3.0);
    store.RecordExec("r0", 8, T("a", 8), 51, T("s", 2), 2.0, 3.0, true, 3.0);
    store.RecordExec("ra", 9, T("a", 9), 50, T("s", 1), 2.5, 3.0, true, 3.0);
    store.RecordExec("rb", 5, T("a", 5), 50, T("s", 1), 1.0, 3.0, true, 3.0);
    EXPECT_EQ(store.Stats().segments, segment_records == 2 ? 2u : 1u);
    auto expect_winner = [&store] {
      ExecEdge e = store.TriggerEdge(50, 3.0);
      ASSERT_TRUE(e.found);
      EXPECT_EQ(e.rule, "rb");
      EXPECT_EQ(e.cause_id, 7u);
      EXPECT_DOUBLE_EQ(e.cause_time, 2.0);
    };
    expect_winner();
    // Seal the segment holding the later ties too: both sides answer from indexes.
    store.RecordExec("r0", 10, T("a", 10), 52, T("s", 3), 3.0, 4.0, true, 4.0);
    store.RecordExec("r0", 11, T("a", 11), 53, T("s", 4), 4.0, 4.0, true, 4.0);
    expect_winner();
  }
}

// --- the seal-time index against a brute-force reference -------------------------

// The fixed tuple behind each id: three names, four first args, and every
// seventh id of arity one (its "name/firstarg" key is just the name).
TupleRef PoolTuple(uint64_t id) {
  std::string name = std::string(1, "pqs"[id % 3]);
  if (id % 7 == 0) {
    return Tuple::Make(name, {Value::Str("n1")});
  }
  return Tuple::Make(name, {Value::Str("n1"), Value::Int(static_cast<int64_t>(id % 4))});
}

bool RefMatch(const std::string& key, uint64_t id) {
  TupleRef t = PoolTuple(id);
  if (key == "*" || key == t->name()) {
    return true;
  }
  return t->arity() > 1 && key == t->name() + "/" + std::to_string(id % 4);
}

// Everything appended to a store, tagged with the segment the store put it in.
// Segments seal by record count only: a full segment seals at the next append of
// either kind.
struct RefLog {
  struct Rec {
    std::string rule;
    uint64_t cause_id = 0;
    uint64_t effect_id = 0;
    double cause_time = 0;
    double out_time = 0;
    bool is_event = false;
  };
  size_t segment_records = 0;
  std::vector<Rec> recs;
  std::vector<int> rec_seg;
  std::set<std::pair<int, uint64_t>> payloads;  // (segment, tuple id)
  int seg = 0;
  size_t in_seg = 0;

  void NextAppend() {
    if (in_seg >= segment_records) {
      ++seg;
      in_seg = 0;
    }
  }
};

// Linear scans over the retained suffix of the log, starting at record `first`.
struct RefView {
  const RefLog& log;
  size_t first;

  int FirstSegment() const {
    return first < log.recs.size() ? log.rec_seg[first] : log.seg;
  }
  // Some retained segment holds the payload (the tuple behind an id never changes).
  bool Resolved(uint64_t id) const {
    auto it = log.payloads.lower_bound({FirstSegment(), 0});
    for (; it != log.payloads.end(); ++it) {
      if (it->second == id) {
        return true;
      }
    }
    return false;
  }

  ExecEdge TriggerEdge(uint64_t effect_id, double max_out_time) const {
    const RefLog::Rec* best = nullptr;
    for (size_t i = first; i < log.recs.size(); ++i) {
      const RefLog::Rec& r = log.recs[i];
      if (!r.is_event || r.effect_id != effect_id || r.out_time > max_out_time) {
        continue;
      }
      if (best == nullptr || std::tie(r.out_time, r.rule, r.cause_id, r.cause_time) >
                                 std::tie(best->out_time, best->rule, best->cause_id,
                                          best->cause_time)) {
        best = &r;
      }
    }
    ExecEdge e;
    if (best != nullptr) {
      e = {best->rule, best->cause_id, best->effect_id, best->cause_time,
           best->out_time, true, true};
    }
    return e;
  }

  std::vector<ExecEdge> Preconditions(uint64_t effect_id, double out_time) const {
    std::vector<ExecEdge> out;
    std::set<uint64_t> seen;
    for (size_t i = first; i < log.recs.size(); ++i) {
      const RefLog::Rec& r = log.recs[i];
      if (!r.is_event && r.effect_id == effect_id && r.out_time == out_time &&
          seen.insert(r.cause_id).second) {
        out.push_back({r.rule, r.cause_id, r.effect_id, r.cause_time, r.out_time,
                       false, true});
      }
    }
    std::sort(out.begin(), out.end(), [](const ExecEdge& a, const ExecEdge& b) {
      return std::tie(a.cause_time, a.cause_id) < std::tie(b.cause_time, b.cause_id);
    });
    return out;
  }

  std::vector<std::pair<uint64_t, double>> FindHeads(const std::string& key, double t1,
                                                     double t2) const {
    std::map<uint64_t, double> latest;
    for (size_t i = first; i < log.recs.size(); ++i) {
      const RefLog::Rec& r = log.recs[i];
      if (r.is_event && r.out_time >= t1 && r.out_time <= t2 &&
          Resolved(r.effect_id) && RefMatch(key, r.effect_id)) {
        auto [it, fresh] = latest.emplace(r.effect_id, r.out_time);
        if (!fresh) {
          it->second = std::max(it->second, r.out_time);
        }
      }
    }
    std::vector<std::pair<uint64_t, double>> heads(latest.begin(), latest.end());
    std::sort(heads.begin(), heads.end(), [](const auto& a, const auto& b) {
      return std::tie(a.second, a.first) < std::tie(b.second, b.first);
    });
    return heads;
  }
};

std::string Show(const ExecEdge& e) {
  if (!e.found) {
    return "none";
  }
  return e.rule + " " + std::to_string(e.cause_id) + "->" + std::to_string(e.effect_id) +
         " ct=" + std::to_string(e.cause_time) + " ot=" + std::to_string(e.out_time) +
         (e.is_event ? " event" : " precond");
}

std::string Show(const std::vector<ExecEdge>& edges) {
  std::string out;
  for (const ExecEdge& e : edges) {
    out += Show(e) + "; ";
  }
  return out;
}

// Every query the walk makes, over every effect id, retained out_time and key.
void ExpectStoreMatchesReference(const ForensicsStore& store, const RefView& ref,
                                 std::mt19937* rng) {
  std::set<double> times = {-1.0, 1e9};
  for (size_t i = ref.first; i < ref.log.recs.size(); ++i) {
    times.insert(ref.log.recs[i].out_time);
  }
  for (uint64_t id = 0; id <= 12; ++id) {
    for (double t : times) {
      ASSERT_EQ(Show(store.TriggerEdge(id, t)), Show(ref.TriggerEdge(id, t)))
          << "TriggerEdge(" << id << ", " << t << ")";
      ASSERT_EQ(Show(store.Preconditions(id, t)), Show(ref.Preconditions(id, t)))
          << "Preconditions(" << id << ", " << t << ")";
    }
  }
  std::vector<double> ts(times.begin(), times.end());
  std::vector<std::pair<double, double>> windows = {{-1.0, 1e9}};
  for (int w = 0; w < 6; ++w) {
    double a = ts[(*rng)() % ts.size()];
    double b = ts[(*rng)() % ts.size()];
    windows.emplace_back(std::min(a, b), std::max(a, b));
  }
  for (const std::string key : {"*", "p", "q", "s", "p/1", "q/2", "s/3", "s/0", "p/9",
                                "zz"}) {
    for (const auto& [t1, t2] : windows) {
      ASSERT_EQ(store.FindHeads(key, t1, t2), ref.FindHeads(key, t1, t2))
          << "FindHeads(" << key << ", " << t1 << ", " << t2 << ")";
    }
  }
}

// Randomized stores with small segments, small id/rule/arg pools, many equal
// out_times, mixed event and precondition records, and records ingested with a null
// effect whose payload arrives later through RecordTuple. Every query is compared
// with a linear scan of the log, before and after compaction drops whole segments.
TEST(ForensicsStoreTest, IndexedQueriesMatchLinearScanReference) {
  const char* const kRules[] = {"ra", "rb", "rc"};
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    ForensicsOptions opts = SmallSegments();
    opts.segment_records = 1 + seed % 6;
    opts.segment_span = 1e9;
    opts.budget_bytes = 1u << 30;
    ForensicsStore full("n1", opts);
    opts.budget_bytes = 4096;
    ForensicsStore compacted("n1", opts);
    RefLog log;
    log.segment_records = opts.segment_records;

    double now = 0;
    for (int op = 0; op < 300; ++op) {
      if (rng() % 3 == 0) {
        now += 0.5;
      }
      log.NextAppend();
      uint64_t id = 1 + rng() % 12;
      if (rng() % 6 == 0) {
        full.RecordTuple(id, PoolTuple(id), "n1", id, now);
        compacted.RecordTuple(id, PoolTuple(id), "n1", id, now);
        log.payloads.insert({log.seg, id});
        continue;
      }
      RefLog::Rec r;
      r.rule = kRules[rng() % 3];
      r.cause_id = 1 + rng() % 12;
      r.effect_id = id;
      r.out_time = rng() % 5 == 0 ? now - 0.5 : now;
      r.cause_time = r.out_time - 0.25 * static_cast<double>(rng() % 3);
      r.is_event = rng() % 5 < 3;
      TupleRef effect = rng() % 8 == 0 ? nullptr : PoolTuple(id);
      for (ForensicsStore* store : {&full, &compacted}) {
        store->RecordExec(r.rule, r.cause_id, PoolTuple(r.cause_id), r.effect_id, effect,
                          r.cause_time, r.out_time, r.is_event, now);
      }
      log.recs.push_back(r);
      log.rec_seg.push_back(log.seg);
      ++log.in_seg;
      log.payloads.insert({log.seg, r.cause_id});
      if (effect != nullptr) {
        log.payloads.insert({log.seg, r.effect_id});
      }
    }

    ASSERT_EQ(full.Stats().records, log.recs.size());
    ASSERT_EQ(full.Stats().dropped_segments, 0u);
    ExpectStoreMatchesReference(full, RefView{log, 0}, &rng);

    compacted.Compact(now);
    ForensicsStats s = compacted.Stats();
    ASSERT_GT(s.dropped_segments, 0u);
    size_t first = log.recs.size() - s.records;
    // Whole oldest segments dropped: the retained records start a segment.
    ASSERT_TRUE(first == 0 || first == log.recs.size() ||
                log.rec_seg[first - 1] != log.rec_seg[first]);
    ExpectStoreMatchesReference(compacted, RefView{log, first}, &rng);
  }
}

// --- time-travel queries on a fleet ---------------------------------------------

const char* kSenderRules =
    "r1 b@N(Other, X) :- a@N(Other, X).\n"
    "r2 hop@Other(NAddr, X) :- b@NAddr(Other, X).";
const char* kReceiverRule = "r3 e@N(From, X) :- hop@N(From, X).";

FleetConfig ForensicsFleetConfig(int shards) {
  FleetConfig cfg;
  cfg.seed = 42;
  cfg.shards = shards;
  cfg.node_defaults.tracing = true;
  cfg.node_defaults.forensics.enabled = true;
  return cfg;
}

// The headline acceptance: the live ruleExec rows for the queried window have
// expired, yet ReplayChains still reconstructs the full cross-node chain from the
// retention stores.
TEST(ForensicsReplayTest, AnswersAfterLiveRuleExecExpiry) {
  FleetConfig cfg = ForensicsFleetConfig(1);
  cfg.node_defaults.rule_exec_lifetime = 2.0;
  Fleet fleet(cfg);
  NodeHandle n1 = fleet.AddNode("n1");
  NodeHandle n2 = fleet.AddNode("n2");
  ASSERT_TRUE(n1.Load(kSenderRules));
  ASSERT_TRUE(n2.Load(kReceiverRule));
  n1.Inject(Tuple::Make("a", {Value::Str("n1"), Value::Str("n2"), Value::Int(6)}));
  fleet.RunFor(0.5);
  ASSERT_GT(n2.Count("ruleExec"), 0u) << "trace rows should be live pre-expiry";

  // Outlive the soft state: every trace row from the event is expired and swept.
  fleet.RunFor(9.5);
  EXPECT_EQ(n1.Count("ruleExec"), 0u);
  EXPECT_EQ(n2.Count("ruleExec"), 0u);
  EXPECT_EQ(n2.Count("tupleTable"), 0u);

  std::vector<CausalChain> chains = n2.ReplayChains("e", 0, 1);
  ASSERT_EQ(chains.size(), 1u);
  const CausalChain& c = chains[0];
  EXPECT_EQ(c.node, "n2");
  EXPECT_EQ(c.head_text, "e(n2, n1, 6)");
  EXPECT_FALSE(c.truncated);
  ASSERT_EQ(c.steps.size(), 3u);
  EXPECT_EQ(c.steps[0].rule, "r3");
  EXPECT_EQ(c.steps[0].node, "n2");
  EXPECT_FALSE(c.steps[0].hop);
  EXPECT_EQ(c.steps[1].rule, "r2");
  EXPECT_EQ(c.steps[1].node, "n1");
  EXPECT_TRUE(c.steps[1].hop) << "cross-node provenance hop not stitched";
  EXPECT_EQ(c.steps[2].rule, "r1");
  EXPECT_EQ(c.steps[2].cause_text, "a(n1, n2, 6)");
  // An empty-window query past the retained history is answerable and empty.
  EXPECT_TRUE(n2.ReplayChains("nosuch", 0, 1).empty());
}

// The JSONL chain export is bit-identical at any shard count (tuple-ID interning
// order is shard-invariant, docs/SCALING.md; the walk is canonically ordered).
std::string ChainExportAtShards(int shards) {
  Fleet fleet(ForensicsFleetConfig(shards));
  std::vector<NodeHandle> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(fleet.AddNode("n" + std::to_string(i)));
  }
  for (NodeHandle& n : nodes) {
    std::string program = std::string(kSenderRules) + "\n" + kReceiverRule;
    EXPECT_TRUE(n.Load(program));
  }
  for (int i = 0; i < 4; ++i) {
    nodes[i].Inject(Tuple::Make(
        "a", {Value::Str("n" + std::to_string(i)),
              Value::Str("n" + std::to_string((i + 1) % 4)), Value::Int(10 + i)}));
  }
  fleet.RunFor(2.0);
  std::string out;
  for (NodeHandle& n : fleet.Handles()) {
    out += ExportChainsJsonl(n.ReplayChains("*", 0, 2.0));
  }
  return out;
}

TEST(ForensicsReplayTest, ChainExportBitIdenticalAcrossShardCounts) {
  std::string k1 = ChainExportAtShards(1);
  ASSERT_FALSE(k1.empty());
  EXPECT_NE(k1.find("\"hop\":true"), std::string::npos)
      << "export should contain cross-node hops";
  EXPECT_EQ(k1, ChainExportAtShards(2));
  EXPECT_EQ(k1, ChainExportAtShards(4));
}

// Real-fleet footing for the simfuzz retention-consistency oracle: on a fleet that
// lost no history, ObserveFleet arms the comparison and both digests agree.
TEST(ForensicsReplayTest, ObserveFleetArmsRetentionComparison) {
  Fleet fleet(ForensicsFleetConfig(1));
  NodeHandle n1 = fleet.AddNode("n1");
  NodeHandle n2 = fleet.AddNode("n2");
  ASSERT_TRUE(n1.Load(kSenderRules));
  ASSERT_TRUE(n2.Load(kReceiverRule));
  n1.Inject(Tuple::Make("a", {Value::Str("n1"), Value::Str("n2"), Value::Int(6)}));
  fleet.RunFor(1.0);
  simtest::FleetObservation obs = simtest::ObserveFleet(&fleet.network(), {});
  ASSERT_TRUE(obs.forensics_comparable) << "nothing expired or dropped in 1s";
  ASSERT_EQ(obs.nodes.size(), 2u);
  for (const simtest::NodeObs& n : obs.nodes) {
    EXPECT_TRUE(n.forensics_enabled);
    EXPECT_FALSE(n.live_chain_digest.empty());
    EXPECT_EQ(n.live_chain_digest, n.replay_chain_digest) << n.addr;
  }
  std::vector<simtest::Violation> violations;
  simtest::RunOracles(simtest::BuiltinOracles(), obs, &violations);
  for (const simtest::Violation& v : violations) {
    EXPECT_NE(v.oracle, "retention-consistency") << v.detail;
  }
}

// --- the 64-node monitored-Chord acceptance run ----------------------------------

// A 64-node Chord fleet under a per-node retention budget: the stores stay within
// budget (checked through sysForensicsStat, the engine's own introspection surface),
// and a time-travel query for a window whose live trace rows have expired still
// reconstructs chains, cross-node hops included.
TEST(ForensicsChordTest, SixtyFourNodeBudgetedRetentionAnswersExpiredWindow) {
  FleetConfig cfg;
  cfg.seed = 11;
  cfg.node_defaults.tracing = true;
  cfg.node_defaults.rule_exec_lifetime = 4.0;
  cfg.node_defaults.forensics.enabled = true;
  cfg.node_defaults.forensics.budget_bytes = 256u << 10;
  cfg.node_defaults.forensics.segment_records = 256;
  cfg.node_defaults.forensics.segment_span = 2.0;
  Fleet fleet(cfg);
  std::vector<NodeHandle> nodes;
  for (int i = 0; i < 64; ++i) {
    nodes.push_back(fleet.AddNode("n" + std::to_string(i)));
  }
  for (int i = 0; i < 64; ++i) {
    ChordConfig chord;
    chord.landmark = i == 0 ? "" : "n0";
    std::string error;
    ASSERT_TRUE(nodes[i].Install(
        [&chord](Node* n, std::string* e) { return InstallChord(n, chord, e); },
        &error))
        << error;
  }
  fleet.RunFor(15.0);

  // Budget acceptance, via the sysForensicsStat mirror.
  for (NodeHandle& n : fleet.Handles()) {
    std::vector<TupleRef> rows = n.Query("sysForensicsStat");
    ASSERT_EQ(rows.size(), 1u) << n.addr();
    const TupleRef& row = rows[0];
    EXPECT_EQ(row->field(0), Value::Str(n.addr()));
    EXPECT_GT(row->field(2).AsInt(), 0) << "no records retained on " << n.addr();
    EXPECT_LE(row->field(3).AsInt(),
              static_cast<int64_t>(cfg.node_defaults.forensics.budget_bytes))
        << "retention over budget on " << n.addr();
  }

  // The queried window [1, 3] is beyond the live soft state at t=15
  // (rule_exec_lifetime=4): no surviving live row can answer for it.
  for (const TupleRef& t : nodes[1].Query("ruleExec")) {
    EXPECT_GT(t->field(5).AsDouble(), 3.0);
  }

  size_t total_chains = 0;
  size_t hop_steps = 0;
  for (NodeHandle& n : fleet.Handles()) {
    for (const CausalChain& c : n.ReplayChains("*", 1.0, 3.0)) {
      ++total_chains;
      for (const CausalStep& s : c.steps) {
        hop_steps += s.hop ? 1 : 0;
      }
    }
  }
  EXPECT_GT(total_chains, 0u) << "no chains replayed for the expired window";
  EXPECT_GT(hop_steps, 0u) << "join-phase chains should cross nodes";
}

}  // namespace
}  // namespace p2
