// udp_dht32: a 32-node monitored Chord ring with the replicated DHT, every node
// on its own loopback UDP socket, serving an open loop of gets and puts on a
// fixed wall-clock schedule. Why this workload: it is the only one whose tuples
// cross real sockets (batch frames, the poll loop) and whose latency is wall
// time. The ring stays small so the single pump thread runs well below its
// knee (about 25% busy), where latency repeats run to run. See README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/apps/dht.h"
#include "src/chord/chord.h"
#include "src/mon/ring_checks.h"
#include "src/net/udp_driver.h"

namespace p2bench {
namespace {

constexpr int kNodes = 32;
constexpr double kStagger = 0.05;
constexpr double kSettle = 8.0;
constexpr int kSeedKeys = 64;
constexpr double kOpRate = 250.0;  // ops per wall second: 4 gets per put
constexpr double kDeadline = 2.0;  // seconds; also the drain after the loop
constexpr uint64_t kOpBase = 1000;
constexpr int kSetupReps = 15;

p2::TestbedConfig DeploymentConfig(uint64_t fleet_seed) {
  p2::TestbedConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.fleet.seed = fleet_seed;
  cfg.fleet.backend = p2::FleetBackend::kUdp;
  cfg.fleet.node_defaults.introspection = false;
  cfg.fleet.udp_max_datagram = 8192;  // loopback: no ethernet MTU to respect
  cfg.join_stagger = kStagger;
  // Fast protocol periods so the wall-clock ring converges in seconds.
  cfg.chord.stabilize_period = 0.5;
  cfg.chord.ping_period = 0.5;
  cfg.chord.finger_period = 1.0;
  cfg.chord.ping_timeout = 0.4;
  cfg.chord.rejoin_check_period = 2.0;
  return cfg;
}

p2::RingCheckConfig RingChecks() {
  p2::RingCheckConfig rc;
  rc.probe_period = 2.0;
  return rc;
}

bool InstallApps(p2::NodeHandle h, int /*i*/, const InstallLog& log, std::string* error) {
  return InstallGroup(h, "ringcheck",
                      [](p2::Node* n, std::string* e) {
                        return p2::InstallRingChecks(n, RingChecks(), e);
                      },
                      log, error) &&
         InstallGroup(h, "dht",
                      [](p2::Node* n, std::string* e) {
                        return p2::InstallDht(n, p2::DhtConfig(), e);
                      },
                      log, error);
}

struct Op {
  bool put = false;
  std::string key;
  std::string value;  // expected on a get, written by a put
  double due = 0;     // virtual time
  double due_wall = 0;
  double fired_wall = -1;
  double done_wall = -1;  // first correct response or ack
};

}  // namespace

Report RunUdpDht32(const RunOptions& opt) {
  Report r;
  r.workload = "udp_dht32";
  Spans spans(opt.trace);
  Gen gen(opt.seed);
  uint64_t fleet_seed = gen.Next();

  RuleGroups groups;
  MeasureSetup(kSetupReps, DeploymentConfig(fleet_seed), InstallApps, &spans, &groups, &r);

  uint64_t build = spans.Begin("fleet.build");
  p2::ChordTestbed bed(DeploymentConfig(fleet_seed));
  spans.End(build);
  {
    Timed t(&spans, "fleet.join_run");
    bed.Run(kStagger * kNodes + 6.0);
  }
  {
    Timed t(&spans, "install.apps");
    InstallTimes unused;
    InstallLog log{&groups, &unused, &spans, t.id()};
    for (int i = 0; i < kNodes; ++i) {
      std::string error;
      if (!InstallApps(bed.handle(i), i, log, &error)) {
        fprintf(stderr, "udp_dht32: install failed: %s\n", error.c_str());
        exit(3);
      }
    }
  }
  {
    Timed t(&spans, "fleet.settle_run");
    bed.Run(kSettle);
  }
  int ring_before = bed.CorrectSuccessorCount();

  // Seed the store from nodes spread around the ring.
  {
    Timed t(&spans, "dht.seed_run");
    for (int i = 0; i < kSeedKeys; ++i) {
      p2::DhtPut(bed.node((i * 5) % kNodes), "key" + std::to_string(i),
                 "value" + std::to_string(i), static_cast<uint64_t>(i));
    }
    bed.Run(3.0);
  }

  // The open loop, generated from the seed before the clock starts.
  const int loop_s = std::max(1, static_cast<int>(std::lround(opt.seconds)));
  const size_t n_ops = static_cast<size_t>(loop_s * kOpRate);
  const double v_start = bed.fleet().Now();
  std::vector<Op> ops(n_ops);
  for (size_t k = 0; k < n_ops; ++k) {
    Op& op = ops[k];
    op.put = k % 5 == 4;
    if (op.put) {
      op.key = "put" + std::to_string(opt.seed) + "-" + std::to_string(k);
      op.value = "pv" + std::to_string(gen.Next() % 1000000);
    } else {
      int j = static_cast<int>(gen.Next() % kSeedKeys);
      op.key = "key" + std::to_string(j);
      op.value = "value" + std::to_string(j);
    }
    op.due = v_start + (static_cast<double>(k) + 0.5) / kOpRate;
  }
  std::vector<double> slice_wall;  // wall time at each slice's virtual start
  auto due_wall = [&](double v) {
    size_t slice = static_cast<size_t>(std::floor(v - v_start));
    return slice_wall[std::min(slice, slice_wall.size() - 1)] +
           (v - v_start - static_cast<double>(slice));
  };
  // Callbacks run on the single pump thread inside RunFor.
  for (int i = 0; i < kNodes; ++i) {
    bed.handle(i).OnEvent("dhtGetResp", [&ops](const p2::TupleRef& t) {
      uint64_t req = t->field(3).AsId();
      if (req < kOpBase || req - kOpBase >= ops.size()) return;
      Op& op = ops[req - kOpBase];
      if (op.done_wall < 0 && t->field(4).Truthy() && t->field(2).AsString() == op.value) {
        op.done_wall = WallS();
      }
    });
    bed.handle(i).OnEvent("dhtPutAck", [&ops](const p2::TupleRef& t) {
      uint64_t req = t->field(2).AsId();
      if (req < kOpBase || req - kOpBase >= ops.size()) return;
      Op& op = ops[req - kOpBase];
      if (op.done_wall < 0) {
        op.done_wall = WallS();
      }
    });
  }
  for (size_t k = 0; k < n_ops; ++k) {
    Op* op = &ops[k];
    uint64_t req = kOpBase + k;
    bed.handle((k * 11) % kNodes).Post(op->due, [op, req](p2::Node& n) {
      op->fired_wall = WallS();
      if (op->put) {
        p2::DhtPut(&n, op->key, op->value, req);
      } else {
        p2::DhtGet(&n, op->key, req);
      }
    });
  }

  // Measured window in 1-s slices: the open loop, then a drain of one
  // deadline so the last ops can finish.
  const int drain_s = static_cast<int>(std::ceil(kDeadline));
  uint64_t win_span = spans.Begin("window");
  Counters c0 = ReadCounters(bed.fleet(), groups);
  Counters c1;
  Counters prev = c0;
  for (int sec = 0; sec < loop_s + drain_s; ++sec) {
    uint64_t s = spans.Begin(sec < loop_s ? "window.slice" : "drain.slice", win_span);
    slice_wall.push_back(WallS());
    bed.fleet().RunFor(1.0);
    EndSlice(&spans, s, bed.fleet(), groups, &prev);
    if (sec + 1 == loop_s) {
      c1 = ReadCounters(bed.fleet(), groups);
    }
  }
  spans.End(win_span);
  Counters c2 = ReadCounters(bed.fleet(), groups);

  std::vector<double> get_ms, put_ms, lag_ms;
  uint64_t get_fail = 0, put_fail = 0;
  for (size_t k = 0; k < n_ops; ++k) {
    Op& op = ops[k];
    op.due_wall = due_wall(op.due);
    double lat = op.done_wall < 0 ? kDeadline : op.done_wall - op.due_wall;
    bool ok = op.done_wall >= 0 && lat <= kDeadline;
    lat = std::min(lat, kDeadline);
    (op.put ? put_ms : get_ms).push_back(lat * 1e3);
    if (!ok) {
      ++(op.put ? put_fail : get_fail);
    }
    if (op.fired_wall >= 0) {
      lag_ms.push_back(std::max(0.0, op.fired_wall - op.due_wall) * 1e3);
    }
    uint64_t s =
        spans.BeginAt(op.put ? "dht.put" : "dht.get", op.due_wall, win_span, kOpBase + k);
    spans.EndAt(s, op.due_wall + lat);
  }

  r.attempted = n_ops;
  r.failed = get_fail + put_fail;
  r.ops["get.attempted"] = static_cast<double>(get_ms.size());
  r.ops["get.failed"] = static_cast<double>(get_fail);
  r.ops["put.attempted"] = static_cast<double>(put_ms.size());
  r.ops["put.failed"] = static_cast<double>(put_fail);
  r.ops["ring.correct_succ_before"] = ring_before;
  r.ops["ring.correct_succ"] = bed.CorrectSuccessorCount();
  r.ops["put.p50_ms"] = Percentile(&put_ms, 0.5);

  double sim = c1.sim_s - c0.sim_s;
  double cpu = c1.cpu_s - c0.cpu_s;
  r.Metric("peak_rss_mb", PeakRssMb(), "MiB");
  r.Metric("cpu_per_sim_s", cpu / sim, "s/sim_s");
  r.Metric("msgs_per_sim_s", static_cast<double>(c1.msgs - c0.msgs) / sim, "msg/sim_s");
  r.Metric("op_p50_ms", Percentile(&get_ms, 0.5), "ms");
  r.Layer("ops.op_p95_ms", Percentile(&get_ms, 0.95), "ms");

  AddLayerMetrics(&r, c0, c1, 1, {"chord", "ringcheck", "consistency", "snapshot", "dht"});
  r.Layer("udp.gen_lag_p99_ms", Percentile(&lag_ms, 0.99), "ms");
  r.Layer("udp.put_p50_ms", Percentile(&put_ms, 0.5), "ms");
  r.Layer("udp.put_p95_ms", Percentile(&put_ms, 0.95), "ms");

  if (c2.shed_reliable > 0) r.gate_violations.push_back("shed_reliable > 0");
  if (c2.decode_errors > 0) r.gate_violations.push_back("decode_errors > 0");
  if (c2.frame_decode_errors > 0) r.gate_violations.push_back("frame_decode_errors > 0");
  if (c2.rel_failed > 0) r.gate_violations.push_back("rel.failed > 0");

  if (!opt.spans_out.empty() && !spans.WriteJsonl(opt.spans_out)) {
    r.errors.push_back("cannot write spans to " + opt.spans_out);
  }
  return r;
}

}  // namespace p2bench
