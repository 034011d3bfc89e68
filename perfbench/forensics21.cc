// forensics21: the paper's 21-node §4 deployment with execution tracing and
// bounded retention on, then a fixed set of causal-replay queries. Why this
// workload: it is the only one where the tracer, the forensics store and the
// replay walk do most of the work, and it uses the store's write path (ingest)
// and its read path (queries), so a change that speeds one at the other's cost
// shows. See README.md.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/chord/chord.h"
#include "src/trace/replay.h"

namespace p2bench {
namespace {

constexpr int kNodes = 21;
constexpr double kFormation = 60.0;  // ring formation, before the measured window
constexpr double kIngest = 120.0;    // traced ingest: the measured write path
constexpr double kLifetime = 30.0;   // live ruleExec lifetime
constexpr size_t kTimedPasses = 4;  // 4 x 630 queries
constexpr size_t kRetentionBytes = 640 << 10;  // per node; about 125 s of history
constexpr int kSetupReps = 25;

// Tuple names that have causal chains in P2-Chord's trace.
const char* const kNames[] = {"lookupResults", "lookup",     "pingResp", "pingReq",
                              "returnSucc",    "finger",     "succ",     "stabilizeRequest",
                              "notify",        "sendPred"};

p2::TestbedConfig DeploymentConfig(uint64_t fleet_seed) {
  // The paper's testbed (stabilize 5 s, fingers 10 s, ping 5 s), traced. The
  // short ruleExec lifetime and the retention budget keep a run near 25 s and
  // make the store drop old segments (README.md, Steadiness).
  p2::TestbedConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.fleet.seed = fleet_seed;
  cfg.fleet.node_defaults.tracing = true;
  cfg.fleet.node_defaults.introspection = false;
  cfg.fleet.node_defaults.forensics.enabled = true;
  cfg.fleet.node_defaults.forensics.budget_bytes = kRetentionBytes;
  cfg.fleet.node_defaults.rule_exec_lifetime = kLifetime;
  cfg.chord.stabilize_period = 5.0;
  cfg.chord.ping_period = 5.0;
  cfg.chord.finger_period = 10.0;
  return cfg;
}

struct Query {
  std::string addr;
  std::string key;
  double t1 = 0;
  double t2 = 0;
  bool live = false;  // window still inside the live soft state
};

}  // namespace

Report RunForensics21(const RunOptions& opt) {
  Report r;
  r.workload = "forensics21";
  Spans spans(opt.trace);
  Gen gen(opt.seed);
  uint64_t fleet_seed = gen.Next();

  RuleGroups groups;
  MeasureSetup(kSetupReps, DeploymentConfig(fleet_seed), nullptr, &spans, &groups, &r);

  uint64_t build = spans.Begin("fleet.build");
  p2::ChordTestbed bed(DeploymentConfig(fleet_seed));
  spans.End(build);
  {
    Timed t(&spans, "fleet.formation_run");
    bed.Run(kFormation);
  }

  // Traced ingest in 1-sim-s slices: the store's write path.
  uint64_t win_span = spans.Begin("window");
  Counters c0 = ReadCounters(bed.fleet(), groups);
  Counters prev = c0;
  const double t_start = bed.fleet().Now();
  for (int sec = 1; sec <= static_cast<int>(kIngest); ++sec) {
    uint64_t s = spans.Begin("window.slice", win_span);
    bed.fleet().RunUntil(t_start + sec);
    EndSlice(&spans, s, bed.fleet(), groups, &prev);
  }
  Counters c1 = ReadCounters(bed.fleet(), groups);
  spans.End(win_span);

  // The query set: every node x every chained name x three windows. The
  // historical window lies beyond kLifetime, so its live ruleExec rows have
  // expired and only the retention store can answer it.
  const double now = bed.fleet().Now();
  std::vector<Query> queries;
  for (p2::Node* node : bed.nodes()) {
    for (const char* name : kNames) {
      queries.push_back({node->addr(), name, now - kLifetime / 3, now, true});
      queries.push_back({node->addr(), name, now - kLifetime, now, true});
      queries.push_back(
          {node->addr(), name, now - 3 * kLifetime, now - 5 * kLifetime / 3, false});
    }
  }
  // Query order is shuffled per seed so no class of query always runs first.
  for (size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[gen.Next() % i]);
  }

  // Untimed warm-up pass, which is also the correctness pass.
  uint64_t failed = 0, hist_empty = 0, live_mismatch = 0, chains = 0, steps = 0,
           hops = 0;
  std::vector<std::string> answers(queries.size());
  std::map<std::string, std::unique_ptr<p2::LiveTraceSource>> live;
  for (p2::Node* node : bed.nodes()) {
    live[node->addr()] = std::make_unique<p2::LiveTraceSource>(node);
  }
  auto live_resolver = [&live](const std::string& a) -> p2::TraceSource* {
    auto it = live.find(a);
    return it == live.end() ? nullptr : it->second.get();
  };
  double export_s = 0;
  {
    Timed t(&spans, "replay.check_pass");
    for (size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      std::vector<p2::CausalChain> got = bed.fleet().ReplayChains(q.addr, q.key, q.t1, q.t2);
      {
        Timed e(&spans, "replay.export", t.id(), &export_s);
        answers[i] = p2::ExportChainsJsonl(got);
      }
      chains += got.size();
      for (const p2::CausalChain& c : got) {
        steps += c.steps.size();
        for (const p2::CausalStep& st : c.steps) {
          hops += st.hop ? 1 : 0;
        }
      }
      if (!q.live) {
        if (got.empty()) {
          ++hist_empty;
          ++failed;
        }
      } else {
        std::vector<p2::CausalChain> want =
            p2::ReplayChains(live_resolver, q.addr, q.key, q.t1, q.t2);
        if (p2::ExportChainsJsonl(want) != answers[i]) {
          ++live_mismatch;
          ++failed;
        }
      }
    }
  }

  // Timed passes: each Fleet::ReplayChains call is one op.
  std::vector<double> lat_ms;
  uint64_t pass_mismatch = 0;
  {
    Timed t(&spans, "replay.timed_passes");
    for (size_t p = 0; p < kTimedPasses; ++p) {
      for (size_t i = 0; i < queries.size(); ++i) {
        const Query& q = queries[i];
        uint64_t s = spans.Begin("replay.query", t.id(), i + 1);
        double a = WallS();
        std::vector<p2::CausalChain> got =
            bed.fleet().ReplayChains(q.addr, q.key, q.t1, q.t2);
        lat_ms.push_back((WallS() - a) * 1e3);
        spans.End(s);
        // Outside the timed region: the answer must not change between passes.
        if (p2::ExportChainsJsonl(got) != answers[i]) {
          ++pass_mismatch;
        }
      }
    }
  }
  if (pass_mismatch > 0) {
    r.errors.push_back("replay answers changed between passes");
  }

  r.attempted = queries.size();
  r.failed = failed;
  r.ops["replay.historical_empty"] = static_cast<double>(hist_empty);
  r.ops["replay.live_mismatch"] = static_cast<double>(live_mismatch);
  r.ops["replay.timed_samples"] = static_cast<double>(lat_ms.size());
  r.ops["ring.correct_succ"] = bed.CorrectSuccessorCount();

  double sim = c1.sim_s - c0.sim_s;
  double wall = c1.wall_s - c0.wall_s;
  double cpu = c1.cpu_s - c0.cpu_s;
  r.Metric("peak_rss_mb", PeakRssMb(), "MiB");
  r.Metric("cpu_per_sim_s", cpu / sim, "s/sim_s");
  r.Metric("sim_rate", sim / wall, "sim_s/s");
  r.Metric("msgs_per_sim_s", static_cast<double>(c1.msgs - c0.msgs) / sim, "msg/sim_s");
  r.Metric("op_p50_ms", Percentile(&lat_ms, 0.5), "ms");
  r.Layer("ops.op_p95_ms", Percentile(&lat_ms, 0.95), "ms");

  AddLayerMetrics(&r, c0, c1, 1, {"chord", "ringcheck", "consistency", "snapshot", "dht"});
  r.Layer("replay.chains", static_cast<double>(chains), "count");
  r.Layer("replay.steps", static_cast<double>(steps), "count");
  r.Layer("replay.hops", static_cast<double>(hops), "count");
  r.Layer("replay.export_ms", export_s * 1e3, "ms");

  r.det["msgs"] = static_cast<double>(c1.msgs - c0.msgs);
  r.det["bytes"] = static_cast<double>(c1.bytes - c0.bytes);
  r.det["strand_triggers"] = static_cast<double>(c1.strand_triggers - c0.strand_triggers);
  r.det["rule_exec_rows"] = static_cast<double>(c1.rule_exec_rows - c0.rule_exec_rows);
  r.det["forensics_records"] = static_cast<double>(c1.forensics_records);
  r.det["replay_chains"] = static_cast<double>(chains);
  r.det["ops_failed"] = static_cast<double>(failed);
  size_t live_rows = 0;
  for (p2::Node* node : bed.nodes()) {
    live_rows += node->catalog().TotalRows(bed.fleet().Now());
  }
  r.det["live_rows"] = static_cast<double>(live_rows);

  if (c1.shed_reliable > 0) r.gate_violations.push_back("shed_reliable > 0");
  if (c1.decode_errors > 0) r.gate_violations.push_back("decode_errors > 0");
  if (c1.rel_failed > 0) r.gate_violations.push_back("rel.failed > 0");

  if (!opt.spans_out.empty() && !spans.WriteJsonl(opt.spans_out)) {
    r.errors.push_back("cannot write spans to " + opt.spans_out);
  }
  return r;
}

}  // namespace p2bench
