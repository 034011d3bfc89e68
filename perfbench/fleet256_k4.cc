// fleet256_k4: the paper's full monitor suite on a 256-node Chord ring, run by
// the sharded simulator at 4 shards. Why this workload: it is the only one that
// runs the window protocol, cross-shard exchange and the reliable transport
// (snapshot markers and sLookup are reliable names). See README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/chord/chord.h"
#include "src/mon/consistency.h"
#include "src/mon/ring_checks.h"
#include "src/mon/snapshot.h"

namespace p2bench {
namespace {

constexpr int kNodes = 256;
constexpr int kShards = 4;
constexpr double kLookahead = 0.05;   // link latency = the shard window width
constexpr int kProbeStride = 7;       // consistency probes on every 7th node
constexpr double kStagger = 0.25;     // seconds between joins
constexpr double kWarmup = 40.0;      // after the last join, before monitors
constexpr double kSettle = 120.0;     // monitors on, before measuring
constexpr double kSimPerWall = 4.0;   // window sim-s per --seconds (see README)
constexpr double kLookupRate = 20.0;  // host lookups per simulated second
constexpr double kLookupDeadline = 5.0;
constexpr double kSnapDeadline = 5.0;  // a snapshot must be Done this long after start
constexpr uint64_t kReqBase = 1ULL << 62;
constexpr int kSetupReps = 5;
constexpr uint64_t kFleetSeed = 42;

p2::TestbedConfig DeploymentConfig(uint64_t fleet_seed) {
  p2::TestbedConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.fleet.seed = fleet_seed;
  cfg.fleet.shards = kShards;
  cfg.fleet.latency = kLookahead;
  cfg.fleet.jitter = 0.02;
  cfg.fleet.node_defaults.introspection = false;
  cfg.join_stagger = kStagger;
  cfg.chord.stabilize_period = 5.0;
  cfg.chord.ping_period = 5.0;
  cfg.chord.finger_period = 10.0;
  return cfg;
}

p2::RingCheckConfig RingChecks() {
  p2::RingCheckConfig rc;
  rc.probe_period = 2.0;
  return rc;
}

p2::ConsistencyConfig Consistency() {
  p2::ConsistencyConfig cc;
  cc.probe_period = 2.0;
  cc.tally_period = 20.0;
  cc.tally_age = 20.0;
  return cc;
}

p2::SnapshotConfig Snapshot(bool initiator) {
  p2::SnapshotConfig sc;
  sc.snap_period = 10.0;
  sc.initiator = initiator;
  return sc;
}

// Installs the monitor suite on node `i` (Chord must already be loaded there).
bool InstallMonitors(p2::NodeHandle h, int i, const InstallLog& log, std::string* error) {
  if (!InstallGroup(h, "ringcheck",
                    [](p2::Node* n, std::string* e) {
                      return p2::InstallRingChecks(n, RingChecks(), e);
                    },
                    log, error)) {
    return false;
  }
  if (i % kProbeStride == 0 &&
      !InstallGroup(h, "consistency",
                    [](p2::Node* n, std::string* e) {
                      return p2::InstallConsistencyProbes(n, Consistency(), e);
                    },
                    log, error)) {
    return false;
  }
  return InstallGroup(h, "snapshot",
                      [i](p2::Node* n, std::string* e) {
                        return p2::InstallSnapshot(n, Snapshot(i == 0), e);
                      },
                      log, error);
}

struct Lookup {
  uint64_t key = 0;
  double due = 0;
  std::string owner;  // ground truth from the host's id ring
};

struct Answer {
  uint64_t req = 0;
  std::string owner;
  double at = 0;
};

std::string TrueOwner(const std::vector<std::pair<uint64_t, std::string>>& ring,
                      uint64_t key) {
  auto it = std::lower_bound(ring.begin(), ring.end(),
                             std::make_pair(key, std::string()));
  return it == ring.end() ? ring.front().second : it->second;
}

int64_t CurrentSnap(p2::Node* node) {
  int64_t best = 0;
  for (const p2::TupleRef& t : node->TableContents("currentSnap")) {
    if (t->arity() >= 2 && t->field(1).is_numeric()) {
      best = std::max(best, t->field(1).ToInt());
    }
  }
  return best;
}

// True when `node` recorded snapshot `id` as Done.
bool SnapDone(p2::Node* node, int64_t id) {
  for (const p2::TupleRef& t : node->TableContents("snapState")) {
    if (t->arity() >= 3 && t->field(1).is_numeric() && t->field(1).ToInt() == id &&
        t->field(2).kind() == p2::Value::Kind::kString &&
        t->field(2).AsString() == "Done") {
      return true;
    }
  }
  return false;
}

}  // namespace

Report RunFleet256K4(const RunOptions& opt) {
  Report r;
  r.workload = "fleet256_k4";
  Spans spans(opt.trace);
  Gen gen(opt.seed);
  const uint64_t fleet_seed = kFleetSeed;

  RuleGroups groups;
  MeasureSetup(kSetupReps, DeploymentConfig(fleet_seed), InstallMonitors, &spans, &groups,
               &r);

  // The measured deployment: staggered joins, then monitors once the ring formed.
  uint64_t build = spans.Begin("fleet.build");
  p2::ChordTestbed bed(DeploymentConfig(fleet_seed));
  spans.End(build);
  std::vector<std::vector<Answer>> answers(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    p2::Node* node = bed.node(i);
    std::vector<Answer>* sink = &answers[i];
    // Runs on node i's shard thread; only node i appends to its own vector,
    // and the host reads it between RunFor calls.
    bed.handle(i).OnEvent("lookupResults", [node, sink](const p2::TupleRef& t) {
      if (t->arity() >= 5 && t->field(4).kind() == p2::Value::Kind::kId &&
          t->field(4).AsId() >= kReqBase) {
        sink->push_back({t->field(4).AsId(), t->field(3).AsString(), node->Now()});
      }
    });
  }
  {
    Timed t(&spans, "fleet.join_run");
    bed.Run(kStagger * kNodes + kWarmup);
  }
  {
    Timed t(&spans, "install.monitors");
    InstallTimes unused;
    InstallLog log{&groups, &unused, &spans, t.id()};
    for (int i = 0; i < kNodes; ++i) {
      std::string error;
      if (!InstallMonitors(bed.handle(i), i, log, &error)) {
        fprintf(stderr, "fleet256_k4: monitor install failed: %s\n", error.c_str());
        exit(3);
      }
    }
  }
  {
    Timed t(&spans, "fleet.settle_run");
    bed.Run(kSettle);
  }

  // Ground truth for lookups: the host's id ring (ids are fixed at join).
  std::vector<std::pair<uint64_t, std::string>> ring;
  for (const auto& [addr, id] : bed.Ids()) {
    ring.emplace_back(id, addr);
  }
  std::sort(ring.begin(), ring.end());
  if (ring.size() != static_cast<size_t>(kNodes)) {
    r.errors.push_back("not every node has a chord id");
  }

  // The open loop of host lookups, generated up front from the seed.
  const double window = std::max(1.0, std::round(opt.seconds * kSimPerWall));
  const double t_start = bed.fleet().Now();
  std::vector<Lookup> lookups;
  size_t n_lookups = static_cast<size_t>(window * kLookupRate);
  for (size_t k = 0; k < n_lookups; ++k) {
    Lookup l;
    l.key = gen.Next();
    l.due = t_start + (static_cast<double>(k) + 0.5) / kLookupRate;
    l.owner = ring.empty() ? std::string() : TrueOwner(ring, l.key);
    int from = static_cast<int>((k * 37) % kNodes);
    uint64_t req = kReqBase + k;
    uint64_t key = l.key;
    bed.handle(from).Post(l.due, [key, req](p2::Node& n) { p2::IssueLookup(&n, key, req); });
    lookups.push_back(std::move(l));
  }
  int64_t snap0 = CurrentSnap(bed.node(0));

  // Measured window, driven one shard window (one lookahead, 50 sim-ms) per
  // RunUntil call: the window is the unit of work of the sharded runtime, and
  // its wall time is the workload's timed op. Counters are read per simulated
  // second only when tracing (reads are pure, so both runs stay identical).
  const int steps_per_s = static_cast<int>(std::lround(1.0 / kLookahead));
  std::vector<double> step_ms;
  uint64_t win_span = spans.Begin("window");
  Counters c0 = ReadCounters(bed.fleet(), groups);
  Counters prev = c0;
  for (int sec = 0; sec < static_cast<int>(window); ++sec) {
    uint64_t s = spans.Begin("window.slice", win_span);
    for (int k = 1; k <= steps_per_s; ++k) {
      uint64_t step = spans.Begin("window.step", s);
      double t0 = WallS();
      bed.fleet().RunUntil(t_start + sec + k * kLookahead);
      step_ms.push_back((WallS() - t0) * 1e3);
      spans.End(step);
    }
    EndSlice(&spans, s, bed.fleet(), groups, &prev);
  }
  Counters c1 = ReadCounters(bed.fleet(), groups);
  spans.End(win_span);
  double peak_rss = PeakRssMb();
  int64_t snap1 = CurrentSnap(bed.node(0));

  // Drain: let the last lookups and snapshots of the window finish (untimed).
  {
    Timed t(&spans, "fleet.drain_run");
    bed.Run(std::max(kLookupDeadline, kSnapDeadline));
  }

  // Lookups: first answer within the deadline, and it must be the true owner.
  std::vector<const Answer*> first(lookups.size(), nullptr);
  for (const std::vector<Answer>& per_node : answers) {
    for (const Answer& a : per_node) {
      size_t k = static_cast<size_t>(a.req - kReqBase);
      if (k < first.size() && (first[k] == nullptr || a.at < first[k]->at)) {
        first[k] = &a;
      }
    }
  }
  uint64_t lk_fail = 0, lk_none = 0, lk_wrong = 0;
  for (size_t k = 0; k < lookups.size(); ++k) {
    const Answer* a = first[k];
    bool answered = a != nullptr && a->at - lookups[k].due <= kLookupDeadline;
    if (!answered) {
      ++lk_none;
    } else if (a->owner != lookups[k].owner) {
      ++lk_wrong;
    }
    if (!answered || a->owner != lookups[k].owner) {
      ++lk_fail;
    }
  }

  // Snapshots started inside the window: every node must reach Done and dump
  // a non-empty checkpoint (the paper's offline forensics over snapshots).
  uint64_t snap_pairs = 0, snap_fail = 0;
  for (int64_t id = snap0 + 1; id <= snap1; ++id) {
    for (p2::Node* node : bed.nodes()) {
      ++snap_pairs;
      bool done = SnapDone(node, id) && !p2::ExportSnapshot(node, id).empty();
      snap_fail += done ? 0 : 1;
    }
  }

  r.attempted = lookups.size() + snap_pairs;
  r.failed = lk_fail + snap_fail;
  r.ops["lookup.attempted"] = static_cast<double>(lookups.size());
  r.ops["lookup.failed"] = static_cast<double>(lk_fail);
  r.ops["lookup.unanswered"] = static_cast<double>(lk_none);
  r.ops["lookup.wrong_owner"] = static_cast<double>(lk_wrong);
  r.ops["snapshot_pairs.attempted"] = static_cast<double>(snap_pairs);
  r.ops["snapshot_pairs.failed"] = static_cast<double>(snap_fail);
  r.ops["snapshots"] = static_cast<double>(snap1 - snap0);
  r.ops["ring.correct_succ"] = bed.CorrectSuccessorCount();

  double sim = c1.sim_s - c0.sim_s;
  double wall = c1.wall_s - c0.wall_s;
  double cpu = c1.cpu_s - c0.cpu_s;
  r.Metric("peak_rss_mb", peak_rss, "MiB");
  r.Metric("sim_rate", sim / wall, "sim_s/s");
  r.Metric("cpu_per_sim_s", cpu / sim, "s/sim_s");
  r.Metric("cpu_util", cpu / wall, "s/s");
  r.Metric("msgs_per_sim_s", static_cast<double>(c1.msgs - c0.msgs) / sim, "msg/sim_s");
  r.ops["window.samples"] = static_cast<double>(step_ms.size());
  r.Metric("op_p50_ms", Percentile(&step_ms, 0.5), "ms");
  r.Layer("ops.op_p95_ms", Percentile(&step_ms, 0.95), "ms");


  AddLayerMetrics(&r, c0, c1, kShards,
                  {"chord", "ringcheck", "consistency", "snapshot", "dht"});

  // Deterministic counters: must agree between the untraced and traced runs.
  r.det["msgs"] = static_cast<double>(c1.msgs - c0.msgs);
  r.det["bytes"] = static_cast<double>(c1.bytes - c0.bytes);
  r.det["strand_triggers"] = static_cast<double>(c1.strand_triggers - c0.strand_triggers);
  r.det["rel_sent"] = static_cast<double>(c1.rel_sent - c0.rel_sent);
  r.det["lookup_failed"] = static_cast<double>(lk_fail);
  r.det["snapshot_failed"] = static_cast<double>(snap_fail);
  r.det["ops_attempted"] = static_cast<double>(r.attempted);
  size_t live_rows = 0;
  for (p2::Node* node : bed.nodes()) {
    live_rows += node->catalog().TotalRows(bed.fleet().Now());
  }
  r.det["live_rows"] = static_cast<double>(live_rows);

  // Hard gates.
  if (c1.shed_reliable > 0) r.gate_violations.push_back("shed_reliable > 0");
  if (c1.decode_errors > 0) r.gate_violations.push_back("decode_errors > 0");
  if (c1.rel_failed > 0) r.gate_violations.push_back("rel.failed > 0");

  if (!opt.spans_out.empty() && !spans.WriteJsonl(opt.spans_out)) {
    r.errors.push_back("cannot write spans to " + opt.spans_out);
  }
  return r;
}

}  // namespace p2bench
