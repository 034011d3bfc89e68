// simfuzz: seeded randomized simulation fuzzing with trace-backed invariant
// oracles (docs/TESTING.md).
//
//   simfuzz --seed N [--iters K]          run K schedules from seeds N, N+1, ...
//           [--profile faulty|quiet]      fault intensity (default faulty)
//           [--nodes N]                   fleet size override
//           [--shards K]                  run fleets on K threads (digests
//                                         must match K=1 bit-exactly)
//           [--shrink]                    on failure, greedily minimize the schedule
//           [--scenario-out PATH]         where to write the (shrunk) failing scenario
//           [--chains-out PATH]           on failure, write the forensics causal
//                                         chain export (JSONL) replayed from the
//                                         retention stores
//           [--print-scenario]            print each schedule's scenario text
//           [--replay FILE]               re-run a scenario file under the oracles
//           [--differential]              diff table digests across config ablations
//           [--limits]                    run every node under the canonical overload
//                                         limits (arms the overload oracle)
//           [--no-arenas] [--no-batch] [--no-zerocopy]
//                                         disable an engine hot-path optimization
//                                         (pure ablations: digests must not change)
//           [--broken-oracle]             plant the test-only always-wrong oracle
//           [--bench]                     write BENCH_simfuzz.json (wall clock,
//                                         iterations/sec) via bench_common
//           [--list-oracles]              print the oracle library and exit
//
// Exit status: 0 when every run passed, 1 on any oracle violation or script error,
// 2 on usage errors.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_common.h"
#include "src/simtest/simfuzz.h"

namespace {

using p2::simtest::Ablation;
using p2::simtest::BuiltinOracles;
using p2::simtest::FuzzProfile;
using p2::simtest::GenerateSchedule;
using p2::simtest::Oracle;
using p2::simtest::RunResult;
using p2::simtest::RunScenarioText;
using p2::simtest::RunSchedule;
using p2::simtest::Schedule;
using p2::simtest::ScenarioToSchedule;
using p2::simtest::ScheduleToScenario;
using p2::simtest::ShrinkSchedule;
using p2::simtest::SimFuzzOptions;

int Usage() {
  fprintf(stderr,
          "usage: simfuzz [--seed N] [--iters K] [--profile faulty|quiet] "
          "[--nodes N] [--shards K]\n"
          "               [--shrink] [--scenario-out PATH] [--chains-out PATH]\n"
          "               [--print-scenario]\n"
          "               [--replay FILE] [--differential] [--limits]\n"
          "               [--no-arenas] [--no-batch] [--no-zerocopy] [--broken-oracle]\n"
          "               [--bench] [--list-oracles]\n");
  return 2;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  if (!f) {
    fprintf(stderr, "simfuzz: cannot write %s\n", path.c_str());
    return false;
  }
  f << text;
  return true;
}

// Reports a failing run: verdicts, the replayable scenario file, and (when
// retention was on) the forensics chain export for the failing run.
void ReportFailure(const RunResult& result, const Schedule* shrunk,
                   const SimFuzzOptions& opts, const std::string& scenario_out,
                   const std::string& chains_out) {
  printf("%s\n", result.Summary().c_str());
  std::string scenario =
      shrunk != nullptr ? ScheduleToScenario(*shrunk, opts.ablation)
                        : result.scenario;
  if (!scenario_out.empty() && WriteFile(scenario_out, scenario)) {
    printf("replayable scenario written to %s "
           "(re-run: simfuzz --replay %s%s)\n",
           scenario_out.c_str(), scenario_out.c_str(),
           opts.broken_oracle ? " --broken-oracle" : "");
  } else {
    printf("---- replayable scenario ----\n%s----\n", scenario.c_str());
  }
  if (!chains_out.empty()) {
    if (result.chain_export.empty()) {
      printf("no forensics chain export (retention off or no chains)\n");
    } else if (WriteFile(chains_out, result.chain_export)) {
      printf("forensics chain export written to %s\n", chains_out.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  int iters = 1;
  int nodes = 0;
  int shards = 0;
  bool shrink = false;
  bool differential = false;
  bool print_scenario = false;
  bool bench = false;
  std::string profile_name = "faulty";
  std::string scenario_out;
  std::string chains_out;
  std::string replay_path;
  SimFuzzOptions opts;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "simfuzz: %s needs a value\n", what);
        exit(Usage());
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (arg == "--iters") {
      iters = std::atoi(next("--iters"));
    } else if (arg == "--nodes") {
      nodes = std::atoi(next("--nodes"));
    } else if (arg == "--shards") {
      shards = std::atoi(next("--shards"));
      if (shards < 1 || shards > 64) {
        fprintf(stderr, "simfuzz: --shards must be in [1,64]\n");
        return Usage();
      }
    } else if (arg == "--profile") {
      profile_name = next("--profile");
    } else if (arg == "--shrink") {
      shrink = true;
    } else if (arg == "--scenario-out") {
      scenario_out = next("--scenario-out");
    } else if (arg == "--chains-out") {
      chains_out = next("--chains-out");
      opts.export_chains_on_failure = true;
    } else if (arg == "--print-scenario") {
      print_scenario = true;
    } else if (arg == "--replay") {
      replay_path = next("--replay");
    } else if (arg == "--differential") {
      differential = true;
    } else if (arg == "--limits") {
      opts.ablation.overload_limits = true;
    } else if (arg == "--no-arenas") {
      opts.ablation.tuple_arenas = false;
    } else if (arg == "--no-batch") {
      opts.ablation.batch_deltas = false;
    } else if (arg == "--no-zerocopy") {
      opts.ablation.zero_copy_decode = false;
    } else if (arg == "--broken-oracle") {
      opts.broken_oracle = true;
    } else if (arg == "--bench") {
      bench = true;
    } else if (arg == "--list-oracles") {
      for (const Oracle& o : BuiltinOracles()) {
        printf("%-18s %s\n", o.name.c_str(), o.description.c_str());
      }
      return 0;
    } else {
      fprintf(stderr, "simfuzz: unknown argument %s\n", arg.c_str());
      return Usage();
    }
  }

  FuzzProfile profile;
  if (profile_name == "faulty") {
    profile = FuzzProfile::Faulty();
  } else if (profile_name == "quiet") {
    profile = FuzzProfile::Quiet();
  } else {
    fprintf(stderr, "simfuzz: unknown profile %s\n", profile_name.c_str());
    return Usage();
  }
  if (nodes > 0) {
    profile.num_nodes = nodes;
  }
  if (shards > 0) {
    profile.shards = shards;
  }

  if (!replay_path.empty()) {
    std::ifstream f(replay_path);
    if (!f) {
      fprintf(stderr, "simfuzz: cannot open %s\n", replay_path.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    std::string text = ss.str();
    Schedule schedule;
    std::string error;
    RunResult result;
    if (ScenarioToSchedule(text, &schedule, &error)) {
      printf("replaying canonical simfuzz scenario (seed %llu, %zu events)\n",
             static_cast<unsigned long long>(schedule.seed), schedule.events.size());
      result = RunSchedule(schedule, opts);
    } else {
      printf("replaying as plain scenario (%s)\n", error.c_str());
      result = RunScenarioText(text, nullptr, opts);
    }
    printf("%s\n", result.Summary().c_str());
    if (result.failed() && !chains_out.empty() && !result.chain_export.empty() &&
        WriteFile(chains_out, result.chain_export)) {
      printf("forensics chain export written to %s\n", chains_out.c_str());
    }
    return result.failed() ? 1 : 0;
  }

  auto start = std::chrono::steady_clock::now();
  uint64_t total_msgs = 0;
  double virtual_secs = 0;
  int failures = 0;
  int ran = 0;
  for (int i = 0; i < iters; ++i) {
    uint64_t s = seed + static_cast<uint64_t>(i);
    Schedule schedule = GenerateSchedule(s, profile);
    if (print_scenario) {
      printf("---- seed %llu ----\n%s", static_cast<unsigned long long>(s),
             ScheduleToScenario(schedule, opts.ablation).c_str());
    }
    RunResult result = RunSchedule(schedule, opts);
    ++ran;
    total_msgs += result.total_msgs;
    virtual_secs += result.virtual_secs;
    if (result.failed()) {
      ++failures;
      printf("seed %llu: ", static_cast<unsigned long long>(s));
      if (shrink) {
        int shrink_runs = 0;
        Schedule minimal = ShrinkSchedule(schedule, opts, &shrink_runs);
        printf("FAIL (shrunk %zu -> %zu events in %d runs)\n",
               schedule.events.size(), minimal.events.size(), shrink_runs);
        ReportFailure(result, &minimal, opts, scenario_out, chains_out);
      } else {
        ReportFailure(result, nullptr, opts, scenario_out, chains_out);
      }
      break;  // first failure stops the sweep; its seed is the repro
    }
    printf("seed %llu: PASS (%llu msgs, %.0f virtual s)\n",
           static_cast<unsigned long long>(s),
           static_cast<unsigned long long>(result.total_msgs),
           result.virtual_secs);
    if (differential) {
      std::vector<std::string> diffs = p2::simtest::DifferentialRun(schedule);
      for (const std::string& d : diffs) {
        printf("seed %llu: DIFF %s\n", static_cast<unsigned long long>(s), d.c_str());
      }
      if (!diffs.empty()) {
        ++failures;
        break;
      }
      printf("seed %llu: differential clean "
             "(indexes/metrics/forensics/arenas/batch/zerocopy/reliable/limits)\n",
             static_cast<unsigned long long>(s));
    }
  }
  double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  printf("%d/%d runs passed in %.2fs wall (%.2f iters/sec, %.0fx real time)\n",
         ran - failures, ran, wall_secs, ran / std::max(wall_secs, 1e-9),
         virtual_secs / std::max(wall_secs, 1e-9));

  if (bench) {
    // Harness-throughput artifact (docs/OBSERVABILITY.md schema): cpu_ms_per_s is
    // wall milliseconds per fuzz iteration, cpu_pct is iterations/sec x100 spiritual
    // equivalent left 0; tx_msgs and live_tuples carry totals.
    p2::WindowMetrics m;
    m.cpu_ms_per_s = ran > 0 ? wall_secs * 1000.0 / ran : 0;  // ms per iteration
    m.cpu_pct = ran / std::max(wall_secs, 1e-9);              // iterations per sec
    m.alloc_mb_per_s = virtual_secs / std::max(wall_secs, 1e-9);  // sim-s per wall-s
    m.live_tuples = ran;
    m.tx_msgs = static_cast<double>(total_msgs);
    p2::BenchArtifact artifact("simfuzz");
    artifact.Add(profile_name, "iters", ran, m);
    artifact.Write();
  }
  return failures > 0 ? 1 : 0;
}
