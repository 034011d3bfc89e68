// Seeded schedule generation for the simulation fuzzer (docs/TESTING.md).
//
// A Schedule is a fuzz profile (fleet shape + phase lengths + fault intensities)
// plus a sorted list of fault/workload events inside the fault window. Schedules are
// generated deterministically from a seed, rendered to the scenario language
// (src/tools/scenario.h) for execution, and parsed back losslessly — the shrunk
// repro a failing fuzz run prints is an ordinary scenario file.
//
// Run phases: setup (nodes + chord + monitors + dht) -> `run warmup` (ring
// formation) -> the event window (directives interleaved with `run` gaps) -> an
// epilogue that heals every partition, clears every link fault, recovers every node,
// and settles. All times are quantized to milliseconds so the text form round-trips
// bit-exactly through the scenario grammar.

#ifndef SRC_SIMTEST_SCHEDULE_H_
#define SRC_SIMTEST_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace p2 {
namespace simtest {

// NodeOptions ablation switches threaded into the emitted `node` directives
// (differential mode diffs deterministic table contents across these).
struct Ablation {
  bool use_join_indexes = true;
  bool metrics = true;
  bool reliable_transport = true;
  // Bounded forensics retention on every node (scenario `forensics budget=...`).
  // On by default so fuzz runs exercise the dual-write path and the
  // retention-consistency oracle has something to judge; like indexes/metrics it
  // is a pure observer and must leave the deterministic table digests bit-identical.
  bool forensics = true;
  // Overload-resilience limits on every node (scenario `limits ...` with the
  // canonical budgets below). Off by default: unlike the observer switches above,
  // shedding changes table contents, so limits-on digests are only required to be
  // identical across shard counts, not to the limits-off run. The overload oracle
  // (#9) arms when this is on.
  bool overload_limits = false;
  // Engine hot-path toggles (docs/SCALING.md "Memory model & hot-path batching").
  // All three default on, matching NodeOptions; each is a pure mechanical
  // optimization, so flipping any of them must leave table digests, traces, and
  // deterministic counters bit-identical (the differential runner checks this).
  bool tuple_arenas = true;
  bool batch_deltas = true;
  bool zero_copy_decode = true;
};

// The canonical `limits` line rendered when Ablation::overload_limits is on —
// budgets generous enough that fuzz workloads bound memory without starving the
// control plane (the overload oracle rejects any reliable-class shed).
inline constexpr char kFuzzLimitsLine[] =
    "limits queue=256 low=256 window=64 backlog=1024 reorder=64 degrade=64\n";

struct FuzzProfile {
  int num_nodes = 5;
  double warmup = 40;    // ring formation before any fault
  double duration = 50;  // the fault/workload window
  double settle = 25;    // heal + recover + quiesce before observation
  double latency = 0.02;
  double jitter = 0.01;
  double loss = 0;  // global message loss for the whole run
  int shards = 1;   // threads for the fleet runtime (scenario `net shards=N`);
                    // any value must reproduce the shards=1 digests bit-exactly
  // Monitor configuration (ring checks + snapshots on every node).
  double snap_period = 10;
  double snap_abort = 8;  // must stay < settle so hung snapshots get judged
  double snap_check = 1;
  double probe_period = 15;
  // Event counts inside the fault window.
  int churn_events = 0;      // crash + paired recover
  int linkfault_events = 0;  // link fault + paired clear
  int partition_events = 0;  // partition + paired heal
  int put_events = 2;
  int get_events = 2;

  // A quiet profile: workload only, no fault injection (strict conservation).
  static FuzzProfile Quiet();
  // The smoke-tier fault profile: 0.2 link loss, churn, and partitions.
  static FuzzProfile Faulty();
};

enum class EvKind {
  kCrash,
  kRecover,
  kLinkFault,
  kLinkClear,
  kPartition,
  kHeal,
  kPut,
  kGet,
};

struct SimEvent {
  double at = 0;  // seconds after the warmup phase, ms-quantized
  EvKind kind = EvKind::kPut;
  int a = 0;  // primary node index
  int b = 0;  // linkfault dst / partition split point (first b nodes vs the rest)
  double loss = 0;
  double dup = 0;
  double reorder = 0;
  double latency = 0;
  std::string key;
  std::string value;
  uint64_t req = 0;
};

struct Schedule {
  uint64_t seed = 0;
  FuzzProfile profile;
  std::vector<SimEvent> events;  // sorted by `at`
};

// Deterministically generates the schedule for `seed` under `profile`.
Schedule GenerateSchedule(uint64_t seed, const FuzzProfile& profile);

// True when the schedule injects any fault at all (global loss, crash, link fault,
// or partition) — the strict conservation oracle only arms on fault-free schedules.
bool ScheduleHasFaults(const Schedule& schedule);

// Renders the schedule as an executable scenario script (the canonical text form:
// reproducibility compares these strings byte-for-byte).
std::string ScheduleToScenario(const Schedule& schedule, const Ablation& ablation = {});

// Parses a simfuzz-emitted scenario back into a Schedule (the inverse of
// ScheduleToScenario: parse-then-render is byte-identical). Returns false with
// `error` set for files this tool did not emit.
bool ScenarioToSchedule(const std::string& text, Schedule* out, std::string* error);

// "n<i>" — fleet addressing shared by generator and oracles.
std::string AddrOf(int i);

}  // namespace simtest
}  // namespace p2

#endif  // SRC_SIMTEST_SCHEDULE_H_
