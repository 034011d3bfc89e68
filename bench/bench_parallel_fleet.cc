// Scaling baseline for the sharded parallel fleet runtime (docs/SCALING.md).
//
// Runs the same 256-node monitored Chord deployment (ring checks fleet-wide,
// consistency probes at the initiator) at K = 1, 2, 4, 8 threads and reports,
// per K:
//   * wall-clock seconds of the measurement window on THIS machine (honest number:
//     on a single-core host the threaded runtime cannot beat K=1);
//   * the conservative-window critical path — per window, the busiest thread's
//     execution time, summed — which models the wall clock of a K-core host;
//   * modeled speedup = total thread busy time / critical path (perfectly balanced
//     threads with no barrier stalls would approach K);
//   * window/cross-shard-message counts from the shard scheduler;
//   * the determinism columns: tx_msgs, live_tuples, and ring correctness must be
//     bit-identical across every K (the bench fails loudly when they diverge).
//
// Usage:  bench_parallel_fleet [--nodes N] [--measure SECS]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/mon/consistency.h"
#include "src/mon/ring_checks.h"
#include "src/runtime/arena.h"

namespace p2 {
namespace {

struct ShardRow {
  int shards = 0;
  double wall_secs = 0;          // real time spent inside Run during the window
  double critical_path_secs = 0; // modeled K-core wall clock of the whole run
  double busy_secs = 0;          // total execution time across all shards
  double modeled_speedup = 1;    // busy / critical path
  uint64_t windows = 0;
  uint64_t cross_shard_msgs = 0;
  // Fresh heap megabytes obtained by the tuple arena per simulated second of the
  // measurement window. TupleArena::FreshBytes is a process-global counter that
  // every thread feeds (including the K=1 single-threaded run — the old window
  // counter this column carried was 0 at K=1), so the column is live at every K.
  // With arenas on this is the steady-state recycler miss rate; with arenas off
  // it is the raw allocation churn of the engine.
  double alloc_mb_per_s = 0;
  // Determinism columns — must match K=1 exactly.
  uint64_t tx_msgs = 0;
  uint64_t live_tuples = 0;
  int correct_succ = 0;
};

// Engine hot-path toggles (defaults mirror NodeOptions). --no-arenas /
// --no-batch / --no-zerocopy reproduce the pre-optimization engine so the
// before/after artifacts come from one binary on one machine.
struct HotPathToggles {
  bool tuple_arenas = true;
  bool batch_deltas = true;
  bool zero_copy_decode = true;
};

ShardRow RunFleet(int shards, int num_nodes, double measure_secs, double stagger,
                  double settle_secs, const HotPathToggles& hot) {
  TestbedConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.fleet.shards = shards;
  cfg.fleet.node_defaults.tuple_arenas = hot.tuple_arenas;
  cfg.fleet.node_defaults.batch_deltas = hot.batch_deltas;
  cfg.fleet.node_defaults.zero_copy_decode = hot.zero_copy_decode;
  // 50 ms one-way latency (a WAN-ish RTT of 100 ms): the conservative lookahead
  // equals the latency, so this is also the parallel window width. Narrower windows
  // shrink the per-window event population and with it the achievable overlap.
  cfg.fleet.latency = 0.05;
  cfg.fleet.jitter = 0.02;
  cfg.fleet.node_defaults.introspection = false;
  cfg.join_stagger = stagger;
  cfg.chord.stabilize_period = 5.0;
  cfg.chord.ping_period = 5.0;
  cfg.chord.finger_period = 10.0;
  ChordTestbed bed(cfg);

  // Warm-up: staggered joins plus ring formation (Chord must be installed before
  // the monitors can join against its tables).
  bed.Run(stagger * num_nodes + 40.0);

  // The monitored deployment: passive+active ring checks on every node, the
  // paper's routing-consistency probes on every 7th node (multi-hop lookups keep
  // in-flight work spread across nodes). Threads claim nodes per window, so the
  // stride does not affect balance; it stays 7 so the workload, and with it the
  // committed smoke baseline, stay unchanged.
  for (NodeHandle node : bed.handles()) {
    RingCheckConfig rc;
    rc.probe_period = 2.0;
    std::string error;
    if (!node.Install(
            [&](Node* n, std::string* e) { return InstallRingChecks(n, rc, e); },
            &error)) {
      fprintf(stderr, "ring check install failed: %s\n", error.c_str());
      exit(1);
    }
  }
  for (int i = 0; i < num_nodes; i += 7) {
    ConsistencyConfig cc;
    cc.probe_period = 2.0;
    cc.tally_period = 20.0;
    cc.tally_age = 20.0;
    std::string error;
    if (!bed.handle(i).Install(
            [&](Node* n, std::string* e) { return InstallConsistencyProbes(n, cc, e); },
            &error)) {
      fprintf(stderr, "consistency install failed: %s\n", error.c_str());
      exit(1);
    }
  }

  // Let the ring converge and the monitors reach steady state before measuring.
  bed.Run(settle_secs);

  // Steady-state deltas: exclude the (inherently bursty) join/warm-up phase from
  // the scaling columns.
  uint64_t crit0 = bed.network().critical_path_ns();
  uint64_t windows0 = bed.network().windows();
  uint64_t tx0 = bed.network().total_msgs();
  uint64_t busy0 = 0;
  uint64_t xmsgs0 = 0;
  for (const Network::ShardStats& s : bed.network().ShardStatsSnapshot()) {
    busy0 += s.busy_ns;
    xmsgs0 += s.sent_cross_shard;
  }

  uint64_t fresh0 = TupleArena::FreshBytes();
  auto start = std::chrono::steady_clock::now();
  bed.Run(measure_secs);
  double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  uint64_t fresh1 = TupleArena::FreshBytes();

  ShardRow row;
  row.shards = bed.network().shard_count();
  row.wall_secs = wall;
  row.critical_path_secs =
      static_cast<double>(bed.network().critical_path_ns() - crit0) / 1e9;
  row.windows = bed.network().windows() - windows0;
  uint64_t busy1 = 0;
  uint64_t xmsgs1 = 0;
  for (const Network::ShardStats& s : bed.network().ShardStatsSnapshot()) {
    busy1 += s.busy_ns;
    xmsgs1 += s.sent_cross_shard;
  }
  row.busy_secs = static_cast<double>(busy1 - busy0) / 1e9;
  row.cross_shard_msgs = xmsgs1 - xmsgs0;
  row.modeled_speedup =
      row.critical_path_secs > 0 ? row.busy_secs / row.critical_path_secs : 1;
  row.alloc_mb_per_s =
      static_cast<double>(fresh1 - fresh0) / 1e6 / measure_secs;
  row.tx_msgs = bed.network().total_msgs() - tx0;
  for (Node* node : bed.nodes()) {
    row.live_tuples += node->catalog().TotalRows(bed.network().Now());
  }
  row.correct_succ = bed.CorrectSuccessorCount();
  return row;
}

void Main(int num_nodes, double measure_secs, double stagger, double settle,
          const HotPathToggles& hot) {
  printf("=== parallel fleet scaling: %d-node monitored Chord, %g s window "
         "(arenas=%s batch=%s zerocopy=%s) ===\n",
         num_nodes, measure_secs, hot.tuple_arenas ? "on" : "off",
         hot.batch_deltas ? "on" : "off", hot.zero_copy_decode ? "on" : "off");
  printf("%-7s %10s %13s %10s %9s %9s %10s %10s %12s %12s %9s\n", "shards",
         "wall(s)", "critpath(s)", "busy(s)", "modeled", "windows", "xmsgs",
         "alloc-MB/s", "tx-msgs", "live-tuples", "succ-ok");
  BenchArtifact artifact("parallel_fleet");
  std::vector<ShardRow> rows;
  for (int shards : {1, 2, 4, 8}) {
    ShardRow r = RunFleet(shards, num_nodes, measure_secs, stagger, settle, hot);
    printf("%-7d %10.2f %13.3f %10.3f %8.2fx %9llu %10llu %10.2f %12llu %12llu "
           "%6d/%d\n",
           r.shards, r.wall_secs, r.critical_path_secs, r.busy_secs,
           r.modeled_speedup, static_cast<unsigned long long>(r.windows),
           static_cast<unsigned long long>(r.cross_shard_msgs), r.alloc_mb_per_s,
           static_cast<unsigned long long>(r.tx_msgs),
           static_cast<unsigned long long>(r.live_tuples), r.correct_succ, num_nodes);
    // Artifact mapping (p2mon-bench-v1 fixed schema): cpu_ms_per_s carries the wall
    // clock in ms, cpu_pct the modeled speedup, memory_mb the critical path in
    // seconds, alloc_mb_per_s the arena fresh-allocation rate (MB per simulated
    // second); live_tuples/tx_msgs are themselves.
    WindowMetrics m;
    m.cpu_ms_per_s = r.wall_secs * 1000.0;
    m.cpu_pct = r.modeled_speedup;
    m.memory_mb = r.critical_path_secs;
    m.alloc_mb_per_s = r.alloc_mb_per_s;
    m.live_tuples = static_cast<double>(r.live_tuples);
    m.tx_msgs = static_cast<double>(r.tx_msgs);
    artifact.Add("shards", std::to_string(shards), shards, m);
    rows.push_back(r);
  }
  artifact.Write();

  bool identical = true;
  for (const ShardRow& r : rows) {
    if (r.tx_msgs != rows[0].tx_msgs || r.live_tuples != rows[0].live_tuples ||
        r.correct_succ != rows[0].correct_succ) {
      identical = false;
      printf("DETERMINISM FAILURE at shards=%d: tx=%llu/%llu live=%llu/%llu "
             "succ=%d/%d\n",
             r.shards, static_cast<unsigned long long>(r.tx_msgs),
             static_cast<unsigned long long>(rows[0].tx_msgs),
             static_cast<unsigned long long>(r.live_tuples),
             static_cast<unsigned long long>(rows[0].live_tuples), r.correct_succ,
             rows[0].correct_succ);
    }
  }
  printf("determinism across shard counts: %s\n", identical ? "OK" : "FAILED");
  if (!identical) {
    exit(1);
  }
}

}  // namespace
}  // namespace p2

int main(int argc, char** argv) {
  int nodes = 256;
  double measure = 30.0;
  double stagger = 0.25;
  double settle = 120.0;
  p2::HotPathToggles hot;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--measure") == 0 && i + 1 < argc) {
      measure = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--stagger") == 0 && i + 1 < argc) {
      stagger = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--settle") == 0 && i + 1 < argc) {
      settle = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-arenas") == 0) {
      hot.tuple_arenas = false;
    } else if (std::strcmp(argv[i], "--no-batch") == 0) {
      hot.batch_deltas = false;
    } else if (std::strcmp(argv[i], "--no-zerocopy") == 0) {
      hot.zero_copy_decode = false;
    } else {
      fprintf(stderr,
              "usage: bench_parallel_fleet [--nodes N] [--measure SECS] "
              "[--stagger SECS] [--settle SECS] "
              "[--no-arenas] [--no-batch] [--no-zerocopy]\n");
      return 2;
    }
  }
  p2::Main(nodes, measure, stagger, settle, hot);
  return 0;
}
