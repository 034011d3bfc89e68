// Smoke tier for the simulation fuzzer (docs/TESTING.md): fixed seeds, seconds of
// wall clock. Covers seed-exact reproducibility, the quiet and faulty profiles
// passing the oracle library, lossless scenario round-trips, the planted-bug
// failure -> shrink -> replay pipeline, and differential ablation runs. The
// long tier (many seeds) is opt-in via P2_SIMFUZZ_ITERS.

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/simtest/simfuzz.h"
#include "tests/digest_diff.h"

namespace p2 {
namespace simtest {
namespace {

// A reduced fault profile that keeps shrink loops fast: a short window with one
// crash/recover pair, one link fault, and a put/get workload.
FuzzProfile SmallFaulty() {
  FuzzProfile p = FuzzProfile::Faulty();
  p.num_nodes = 4;
  p.duration = 30;
  p.settle = 15;
  p.churn_events = 1;
  p.linkfault_events = 1;
  p.partition_events = 0;
  p.put_events = 1;
  p.get_events = 1;
  return p;
}

TEST(SimFuzzTest, SameSeedIsBitReproducible) {
  Schedule s1 = GenerateSchedule(11, FuzzProfile::Faulty());
  Schedule s2 = GenerateSchedule(11, FuzzProfile::Faulty());
  ASSERT_EQ(ScheduleToScenario(s1), ScheduleToScenario(s2));
  RunResult r1 = RunSchedule(s1);
  RunResult r2 = RunSchedule(s2);
  EXPECT_EQ(r1.failed(), r2.failed());
  EXPECT_EQ(r1.total_msgs, r2.total_msgs);
  EXPECT_TRUE(r1.full_digest == r2.full_digest)
      << "same seed must reproduce every table bit-exactly; diverged at "
      << FirstDiffLine(r1.full_digest, r2.full_digest);
}

TEST(SimFuzzTest, QuietProfilePassesAllOracles) {
  RunResult r = RunSchedule(GenerateSchedule(1, FuzzProfile::Quiet()));
  EXPECT_FALSE(r.failed()) << r.Summary();
  EXPECT_GT(r.total_msgs, 0u);
}

TEST(SimFuzzTest, FaultyProfilePassesAllOracles) {
  for (uint64_t seed : {1, 2}) {
    RunResult r = RunSchedule(GenerateSchedule(seed, FuzzProfile::Faulty()));
    EXPECT_FALSE(r.failed()) << "seed " << seed << ": " << r.Summary();
  }
}

TEST(SimFuzzTest, ScenarioRoundTripIsLossless) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    Schedule schedule = GenerateSchedule(seed, FuzzProfile::Faulty());
    std::string text = ScheduleToScenario(schedule);
    Schedule parsed;
    std::string error;
    ASSERT_TRUE(ScenarioToSchedule(text, &parsed, &error))
        << "seed " << seed << ": " << error;
    EXPECT_EQ(ScheduleToScenario(parsed), text);
    EXPECT_EQ(parsed.seed, schedule.seed);
    EXPECT_EQ(parsed.events.size(), schedule.events.size());
  }
}

// The limits ablation renders the `limits=on` header flag plus the canonical
// budget line, parses back, and stays byte-identical; with limits off the
// rendered text carries no trace of the knob, so pre-existing scenario files
// are untouched by this feature.
TEST(SimFuzzTest, LimitsAblationRoundTripsInScenarioForm) {
  Schedule schedule = GenerateSchedule(6, FuzzProfile::Faulty());
  Ablation limits;
  limits.overload_limits = true;
  std::string text = ScheduleToScenario(schedule, limits);
  EXPECT_NE(text.find(" limits=on"), std::string::npos);
  EXPECT_NE(text.find(kFuzzLimitsLine), std::string::npos);

  Schedule parsed;
  std::string error;
  ASSERT_TRUE(ScenarioToSchedule(text, &parsed, &error)) << error;
  EXPECT_EQ(ScheduleToScenario(parsed, limits), text);

  std::string off = ScheduleToScenario(schedule);
  EXPECT_EQ(off.find("limits"), std::string::npos);
}

TEST(SimFuzzTest, NonCanonicalScenarioIsRejectedByParser) {
  Schedule schedule = GenerateSchedule(1, FuzzProfile::Quiet());
  std::string text = ScheduleToScenario(schedule) + "stats\n";
  Schedule parsed;
  std::string error;
  EXPECT_FALSE(ScenarioToSchedule(text, &parsed, &error));
  EXPECT_FALSE(error.empty());
}

// The full bug pipeline on a planted always-wrong oracle: the run fails, greedy
// shrinking strips everything but the crash the oracle blames, the minimal scenario
// round-trips through the parser, and replaying it still fails the same way.
TEST(SimFuzzTest, PlantedBugFailsShrinksAndReplays) {
  SimFuzzOptions opts;
  opts.broken_oracle = true;
  Schedule schedule = GenerateSchedule(7, SmallFaulty());
  size_t crashes = 0;
  for (const SimEvent& e : schedule.events) {
    crashes += e.kind == EvKind::kCrash ? 1 : 0;
  }
  ASSERT_GE(crashes, 1u) << "profile must schedule a crash for the planted bug";

  RunResult full = RunSchedule(schedule, opts);
  ASSERT_TRUE(full.failed());
  ASSERT_EQ(full.FailedOracles().count("broken-crash"), 1u) << full.Summary();

  int shrink_runs = 0;
  Schedule minimal = ShrinkSchedule(schedule, opts, &shrink_runs);
  EXPECT_GT(shrink_runs, 1);
  ASSERT_EQ(minimal.events.size(), 1u)
      << "everything but the blamed crash must shrink away";
  EXPECT_EQ(minimal.events[0].kind, EvKind::kCrash);

  std::string text = ScheduleToScenario(minimal, opts.ablation);
  Schedule parsed;
  std::string error;
  ASSERT_TRUE(ScenarioToSchedule(text, &parsed, &error)) << error;
  RunResult replay = RunSchedule(parsed, opts);
  ASSERT_TRUE(replay.failed());
  EXPECT_EQ(replay.FailedOracles().count("broken-crash"), 1u) << replay.Summary();

  // Without the planted oracle the minimal scenario is healthy.
  RunResult clean = RunSchedule(parsed, SimFuzzOptions{});
  EXPECT_FALSE(clean.failed()) << clean.Summary();
}

TEST(SimFuzzTest, DifferentialAblationsAreClean) {
  std::vector<std::string> diffs =
      DifferentialRun(GenerateSchedule(3, FuzzProfile::Quiet()));
  for (const std::string& d : diffs) {
    ADD_FAILURE() << d;
  }
}

// Long tier: P2_SIMFUZZ_ITERS=200 runs that many faulty seeds (CI nightly).
TEST(SimFuzzTest, LongTierSweep) {
  const char* iters_env = std::getenv("P2_SIMFUZZ_ITERS");
  if (iters_env == nullptr) {
    GTEST_SKIP() << "set P2_SIMFUZZ_ITERS to run the long fuzz tier";
  }
  int iters = std::atoi(iters_env);
  uint64_t base = 1;
  if (const char* seed_env = std::getenv("P2_SIMFUZZ_SEED")) {
    base = std::strtoull(seed_env, nullptr, 10);
  }
  for (int i = 0; i < iters; ++i) {
    uint64_t seed = base + static_cast<uint64_t>(i);
    RunResult r = RunSchedule(GenerateSchedule(seed, FuzzProfile::Faulty()));
    ASSERT_FALSE(r.failed())
        << "seed " << seed << ": " << r.Summary()
        << "\n---- replayable scenario ----\n" << r.scenario;
  }
}

}  // namespace
}  // namespace simtest
}  // namespace p2
