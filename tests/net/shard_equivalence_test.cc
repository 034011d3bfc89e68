// Shard-equivalence suite (docs/SCALING.md): the parallel fleet runtime is an
// execution strategy, not a semantics change — running the same seeded deployment
// on 1 to 4 threads (`shards=K`) must produce bit-identical table state, identical
// ruleExec provenance, and identical deterministic bench columns (message/byte
// counters, ring correctness). These tests drive the full monitored stack (Chord +
// ring checks + consistency probes + DHT workload) and the simfuzz harness across
// thread counts and diff the digests.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/dht.h"
#include "src/common/strings.h"
#include "src/mon/consistency.h"
#include "src/mon/ring_checks.h"
#include "src/mon/snapshot.h"
#include "src/simtest/simfuzz.h"
#include "src/testbed/testbed.h"
#include "tests/digest_diff.h"

namespace p2 {
namespace {

// Sorted dump of every materialized table across the fleet. sys* tables hold
// wall-clock-tainted counters and are excluded; ruleExec/tupleTable (the trace
// tables) are included — provenance must be shard-count-invariant too.
std::string FleetDigest(ChordTestbed* bed) {
  std::string out;
  for (Node* node : bed->network().AllNodes()) {
    for (Table* table : node->catalog().AllTables()) {
      const std::string& name = table->spec().name;
      if (StartsWith(name, "sys")) {
        continue;
      }
      std::vector<std::string> rows;
      for (const TupleRef& t : node->TableContents(name)) {
        rows.push_back(t->ToString());
      }
      std::sort(rows.begin(), rows.end());
      out += StrFormat("== %s/%s (%zu) ==\n", node->addr().c_str(), name.c_str(),
                       rows.size());
      for (const std::string& r : rows) {
        out += r;
        out += "\n";
      }
    }
  }
  return out;
}

struct FleetRun {
  std::string digest;
  uint64_t total_msgs = 0;
  uint64_t total_bytes = 0;
  uint64_t dropped_msgs = 0;
  int correct_succ = 0;
};

// The full monitored deployment at `shards` workers: a 10-node Chord ring, ring
// checks fleet-wide, consistency probes at the landmark, and a DHT put/get
// workload, with tracing on so ruleExec rows enter the digest. With `snapshots`,
// every node also runs the Chandy-Lamport snapshot rules (node 0 initiates), so
// the snapshot's continuous aggregates (bp2, sr12) shape the digest too.
// `jitter` is the links' uniform extra delay; at 0 many deliveries tie exactly.
FleetRun RunMonitoredFleet(int shards, bool snapshots = false,
                           double jitter = FleetConfig().jitter) {
  TestbedConfig cfg;
  cfg.num_nodes = 10;
  cfg.fleet.seed = 99;
  cfg.fleet.shards = shards;
  cfg.fleet.jitter = jitter;
  cfg.fleet.node_defaults.tracing = true;
  cfg.fleet.node_defaults.introspection = false;
  ChordTestbed bed(cfg);
  bed.Run(80);

  for (size_t i = 0; i < bed.size(); ++i) {
    RingCheckConfig rc;
    rc.probe_period = 5.0;
    SnapshotConfig sc;
    sc.snap_period = 10.0;
    sc.initiator = i == 0;
    std::string error;
    EXPECT_TRUE(bed.handle(i).Install(
        [&](Node* n, std::string* e) {
          return InstallRingChecks(n, rc, e) && InstallDht(n, DhtConfig(), e) &&
                 (!snapshots || InstallSnapshot(n, sc, e));
        },
        &error))
        << error;
  }
  ConsistencyConfig cc;
  cc.probe_period = 6.0;
  cc.tally_period = 15.0;
  cc.tally_age = 15.0;
  std::string error;
  EXPECT_TRUE(bed.handle(0).Install(
      [&](Node* n, std::string* e) { return InstallConsistencyProbes(n, cc, e); },
      &error))
      << error;
  bed.Run(10);

  for (uint64_t req = 1; req <= 4; ++req) {
    std::string key = "key" + std::to_string(req);
    bed.handle(req % bed.size()).Call([&](Node* n) { DhtPut(n, key, "v", req); });
  }
  bed.Run(10);
  for (uint64_t req = 5; req <= 8; ++req) {
    std::string key = "key" + std::to_string(req - 4);
    bed.handle(req % bed.size()).Call([&](Node* n) { DhtGet(n, key, req); });
  }
  bed.Run(20);

  FleetRun run;
  run.digest = FleetDigest(&bed);
  run.total_msgs = bed.fleet().total_msgs();
  run.total_bytes = bed.fleet().total_bytes();
  run.dropped_msgs = bed.fleet().dropped_msgs();
  run.correct_succ = bed.CorrectSuccessorCount();
  return run;
}

TEST(ShardEquivalenceTest, MonitoredChordDhtFleetIsBitIdenticalAcrossShardCounts) {
  FleetRun base = RunMonitoredFleet(1);
  EXPECT_EQ(base.correct_succ, 10) << "ring must converge in the baseline run";
  EXPECT_GT(base.total_msgs, 0u);
  for (int shards : {2, 4}) {
    FleetRun run = RunMonitoredFleet(shards);
    EXPECT_EQ(run.total_msgs, base.total_msgs) << "shards=" << shards;
    EXPECT_EQ(run.total_bytes, base.total_bytes) << "shards=" << shards;
    EXPECT_EQ(run.dropped_msgs, base.dropped_msgs) << "shards=" << shards;
    EXPECT_EQ(run.correct_succ, base.correct_succ) << "shards=" << shards;
    EXPECT_TRUE(run.digest == base.digest)
        << "shards=" << shards << " diverged at "
        << FirstDiffLine(base.digest, run.digest);
  }
}

// At jitter 0 equal delivery times are common. K = 1 breaks such ties by global
// schedule order, which no windowed run can reproduce, but every K > 1 inserts the
// messages parked in a window in one canonical order (docs/SCALING.md), so the
// parallel runs must still agree with each other whatever the thread count.
TEST(ShardEquivalenceTest, ZeroJitterRunsAgreeAcrossParallelShardCounts) {
  FleetRun base = RunMonitoredFleet(2, /*snapshots=*/false, /*jitter=*/0.0);
  EXPECT_GT(base.total_msgs, 0u);
  for (int shards : {3, 4}) {
    FleetRun run = RunMonitoredFleet(shards, /*snapshots=*/false, /*jitter=*/0.0);
    EXPECT_EQ(run.total_msgs, base.total_msgs) << "shards=" << shards;
    EXPECT_EQ(run.total_bytes, base.total_bytes) << "shards=" << shards;
    EXPECT_EQ(run.correct_succ, base.correct_succ) << "shards=" << shards;
    EXPECT_TRUE(run.digest == base.digest)
        << "shards=" << shards << " diverged from shards=2 at "
        << FirstDiffLine(base.digest, run.digest);
  }
}

// 64-bit FNV-1a, for pinning a digest as a constant.
uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// The golden digest. The cross-shard tests above only diff K=1 against K=N, so a
// change that moves every shard count the same way slips past them; this pins the
// monitored fleet (snapshots included) to a constant at K = 1 to 4.
//
// When a change alters the fleet's semantics on purpose (a Chord protocol fix, a
// new rule in a monitor), regenerate the constant: run this test on the new code
// (a mismatch prints the new hash), check that only the intended tables moved (for
// instance by writing `run.digest` to a file on both commits and diffing the two),
// paste the new hash below, and say why in CHANGES.md.
TEST(ShardEquivalenceTest, MonitoredFleetWithSnapshotsMatchesGoldenDigest) {
  constexpr uint64_t kGolden = 0xa8dfe1f18d2005e4ULL;
  for (int shards : {1, 2, 3, 4}) {
    FleetRun run = RunMonitoredFleet(shards, /*snapshots=*/true);
    EXPECT_EQ(run.correct_succ, 10) << "shards=" << shards;
    // The continuous aggregates under test must have produced rows.
    for (const char* row : {"\ndoneChannels(", "\nnumBackPointers(", "\nrespCluster(",
                            "\nmaxCluster(", "\nlookupCluster(", "\nsuccCount("}) {
      EXPECT_NE(run.digest.find(row), std::string::npos) << row;
    }
    EXPECT_EQ(Fnv1a64(run.digest), kGolden)
        << "shards=" << shards << " digest hash "
        << StrFormat("0x%016llxULL", static_cast<unsigned long long>(Fnv1a64(run.digest)));
  }
}

// The simfuzz harness end-to-end: the same generated schedule executed through the
// scenario interpreter at 1/2/4 shards must agree on both digests (tables AND
// trace provenance) and the deterministic counters.
TEST(ShardEquivalenceTest, FuzzScheduleDigestsMatchAcrossShardCounts) {
  simtest::FuzzProfile profile = simtest::FuzzProfile::Quiet();
  simtest::RunResult base =
      simtest::RunSchedule(simtest::GenerateSchedule(21, profile));
  ASSERT_FALSE(base.failed()) << base.Summary();
  for (int shards : {2, 4}) {
    profile.shards = shards;
    simtest::RunResult run =
        simtest::RunSchedule(simtest::GenerateSchedule(21, profile));
    ASSERT_FALSE(run.failed()) << "shards=" << shards << ": " << run.Summary();
    EXPECT_EQ(run.total_msgs, base.total_msgs) << "shards=" << shards;
    EXPECT_TRUE(run.table_digest == base.table_digest)
        << "shards=" << shards << " diverged at "
        << FirstDiffLine(base.table_digest, run.table_digest);
    EXPECT_TRUE(run.full_digest == base.full_digest)
        << "shards=" << shards << " diverged at "
        << FirstDiffLine(base.full_digest, run.full_digest);
  }
}

// Overload limits on (bounded queues, in-flight windows, degrade watchdog) must
// not perturb determinism: shed and degrade decisions depend only on
// deterministic local state, so limits-on digests agree across 1/2/4 shards too.
TEST(ShardEquivalenceTest, LimitsOnDigestsMatchAcrossShardCounts) {
  simtest::FuzzProfile profile = simtest::FuzzProfile::Faulty();
  simtest::SimFuzzOptions opts;
  opts.ablation.overload_limits = true;
  simtest::RunResult base =
      simtest::RunSchedule(simtest::GenerateSchedule(44, profile), opts);
  ASSERT_FALSE(base.failed()) << base.Summary();
  for (int shards : {2, 4}) {
    profile.shards = shards;
    simtest::RunResult run =
        simtest::RunSchedule(simtest::GenerateSchedule(44, profile), opts);
    ASSERT_FALSE(run.failed()) << "shards=" << shards << ": " << run.Summary();
    EXPECT_TRUE(run.table_digest == base.table_digest)
        << "shards=" << shards << " diverged at "
        << FirstDiffLine(base.table_digest, run.table_digest);
    EXPECT_TRUE(run.full_digest == base.full_digest)
        << "shards=" << shards << " diverged at "
        << FirstDiffLine(base.full_digest, run.full_digest);
  }
}

// Smoke sweep with randomized shard counts: every faulty-profile seed runs under a
// seed-derived shard count and must both pass the oracles and match its own
// single-shard digest.
TEST(ShardEquivalenceTest, RandomizedShardSmokeSweep) {
  for (uint64_t seed : {31, 32}) {
    simtest::FuzzProfile profile = simtest::FuzzProfile::Faulty();
    simtest::RunResult base =
        simtest::RunSchedule(simtest::GenerateSchedule(seed, profile));
    ASSERT_FALSE(base.failed()) << "seed " << seed << ": " << base.Summary();
    profile.shards = 2 + static_cast<int>(seed % 3);  // 2..4, varies with seed
    simtest::RunResult run =
        simtest::RunSchedule(simtest::GenerateSchedule(seed, profile));
    ASSERT_FALSE(run.failed()) << "seed " << seed << " shards=" << profile.shards
                               << ": " << run.Summary();
    EXPECT_TRUE(run.full_digest == base.full_digest)
        << "seed " << seed << " shards=" << profile.shards << " diverged at "
        << FirstDiffLine(base.full_digest, run.full_digest);
  }
}

// ---- engine hot-path ablation matrix across shard counts (docs/SCALING.md) ----
//
// Tuple arenas and batched delta propagation are pure mechanical optimizations:
// every (arenas, batch) cell at every shard count must reproduce the
// all-defaults K=1 digests bit-for-bit — tables AND trace provenance AND the
// deterministic counters. This is the strongest lockdown in the suite: one
// baseline run, then a 2x2xK sweep where every cell (including the ones that
// also flip zero-copy decode off via the scenario node lines) is compared
// against that single baseline, not merely against its own K=1 twin.
TEST(ShardEquivalenceTest, HotPathAblationMatrixMatchesBaselineAcrossShardCounts) {
  simtest::FuzzProfile profile = simtest::FuzzProfile::Faulty();
  simtest::RunResult base =
      simtest::RunSchedule(simtest::GenerateSchedule(57, profile));
  ASSERT_FALSE(base.failed()) << base.Summary();
  for (bool arenas : {true, false}) {
    for (bool batch : {true, false}) {
      for (int shards : {1, 2, 4}) {
        if (arenas && batch && shards == 1) {
          continue;  // the baseline itself
        }
        simtest::SimFuzzOptions opts;
        opts.ablation.tuple_arenas = arenas;
        opts.ablation.batch_deltas = batch;
        // Pair zero-copy with batching so the sweep covers decode ablation at
        // every shard count without tripling the matrix.
        opts.ablation.zero_copy_decode = batch;
        simtest::FuzzProfile p = profile;
        p.shards = shards;
        simtest::RunResult run =
            simtest::RunSchedule(simtest::GenerateSchedule(57, p), opts);
        std::string label = StrFormat("arenas=%d batch=%d shards=%d", arenas ? 1 : 0,
                                      batch ? 1 : 0, shards);
        ASSERT_FALSE(run.failed()) << label << ": " << run.Summary();
        EXPECT_EQ(run.total_msgs, base.total_msgs) << label;
        EXPECT_TRUE(run.table_digest == base.table_digest)
            << label << " diverged at "
            << FirstDiffLine(base.table_digest, run.table_digest);
        EXPECT_TRUE(run.full_digest == base.full_digest)
            << label << " diverged at "
            << FirstDiffLine(base.full_digest, run.full_digest);
      }
    }
  }
}

// The hot-path toggles must survive the scenario round trip exactly like the
// other ablation switches: rendered only when off, parsed back losslessly.
TEST(ShardEquivalenceTest, ScheduleRoundTripCarriesHotPathToggles) {
  simtest::FuzzProfile profile = simtest::FuzzProfile::Quiet();
  simtest::Schedule schedule = simtest::GenerateSchedule(5, profile);
  simtest::Ablation ablation;
  ablation.tuple_arenas = false;
  ablation.batch_deltas = false;
  ablation.zero_copy_decode = false;
  std::string text = simtest::ScheduleToScenario(schedule, ablation);
  EXPECT_NE(text.find("arenas=off"), std::string::npos);
  EXPECT_NE(text.find("batch=off"), std::string::npos);
  EXPECT_NE(text.find("zerocopy=off"), std::string::npos);
  simtest::Schedule parsed;
  std::string error;
  ASSERT_TRUE(simtest::ScenarioToSchedule(text, &parsed, &error)) << error;
  // Defaults-on text must stay byte-identical to the pre-toggle rendering (the
  // flags are append-only-when-off).
  std::string defaults = simtest::ScheduleToScenario(schedule);
  EXPECT_EQ(defaults.find("arenas="), std::string::npos);
  EXPECT_EQ(defaults.find("batch="), std::string::npos);
  EXPECT_EQ(defaults.find("zerocopy="), std::string::npos);
}

// The shards knob must survive the scenario round trip: render carries it in both
// the profile header and the net line, and the parser restores it.
TEST(ShardEquivalenceTest, ScheduleRoundTripCarriesShards) {
  simtest::FuzzProfile profile = simtest::FuzzProfile::Quiet();
  profile.shards = 4;
  simtest::Schedule schedule = simtest::GenerateSchedule(3, profile);
  std::string text = simtest::ScheduleToScenario(schedule);
  EXPECT_NE(text.find("shards=4"), std::string::npos);
  simtest::Schedule parsed;
  std::string error;
  ASSERT_TRUE(simtest::ScenarioToSchedule(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.profile.shards, 4);
  EXPECT_EQ(simtest::ScheduleToScenario(parsed), text);
}

}  // namespace
}  // namespace p2
