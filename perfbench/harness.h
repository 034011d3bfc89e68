// Shared plumbing for the repository benchmark's workloads (README.md here):
// process clocks, percentiles, the in-memory span recorder, fleet-wide
// counter snapshots, and the one-line JSON report the driver (run.py) reads.
//
// Everything here observes the engine from outside: it times the benchmark's
// own calls into public functions and reads counters the engine already keeps.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/net/fleet.h"
#include "src/testbed/testbed.h"

namespace p2bench {

// ---- clocks -----------------------------------------------------------------

double WallS();        // steady clock, seconds
double ProcessCpuS();  // user + system CPU of the whole process, seconds
double PeakRssMb();    // ru_maxrss, MiB

// Percentile of `v` (sorted in place), linear interpolation between closest
// ranks; 0 when empty.
double Percentile(std::vector<double>* v, double q);

// ---- spans ------------------------------------------------------------------

// In-memory span log: one record per benchmark call into a layer. Disabled
// (every call a no-op returning 0) in untraced runs.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Opens a span and returns its id (ids start at 1; 0 = no parent).
  uint64_t Begin(const std::string& name, uint64_t parent = 0, uint64_t op = 0);
  // Opens a span whose start lies in the past (open-loop ops start when due).
  uint64_t BeginAt(const std::string& name, double start, uint64_t parent,
                   uint64_t op);
  void End(uint64_t id);
  void EndAt(uint64_t id, double end);
  // Attaches a named number (a counter delta) to span `id`.
  void Attr(uint64_t id, const std::string& key, double value);
  // Writes one JSON object per span; false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    uint64_t parent = 0;
    uint64_t op = 0;
    std::vector<std::pair<std::string, double>> attrs;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

// Times one region into a span (when tracing) and into `*acc_s` (always).
class Timed {
 public:
  Timed(Spans* spans, const std::string& name, uint64_t parent = 0,
        double* acc_s = nullptr);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  uint64_t id() const { return id_; }

 private:
  Spans* spans_;
  uint64_t id_;
  double* acc_s_;
  double start_;
};

// ---- fleet counters -------------------------------------------------------

// Fleet-wide totals of the counters the engine exposes, read host-side between
// RunFor calls. Deltas of two snapshots attribute a window's work to layers.
struct Counters {
  double wall_s = 0;
  double cpu_s = 0;
  double sim_s = 0;
  // network + scheduler
  uint64_t windows = 0;
  uint64_t critical_path_ns = 0;
  uint64_t shard_busy_ns = 0;
  uint64_t shard_events = 0;
  uint64_t heap_hwm = 0;  // max over shards (a high-water mark, not a sum)
  uint64_t cross_shard_msgs = 0;
  // node
  uint64_t node_busy_ns = 0;
  uint64_t strand_triggers = 0;
  uint64_t local_deliveries = 0;
  uint64_t agg_reevals = 0;
  uint64_t queue_hwm = 0;  // max over nodes
  uint64_t dead_letters = 0;
  uint64_t decode_errors = 0;
  uint64_t shed_reliable = 0;
  // rel (registry counters rel_*)
  uint64_t rel_sent = 0;
  uint64_t rel_acked = 0;
  uint64_t rel_retx = 0;
  uint64_t rel_acks_sent = 0;
  uint64_t rel_failed = 0;
  uint64_t rel_pending_hwm = 0;  // max over nodes
  // wire
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  // udp
  uint64_t datagrams_sent = 0;
  uint64_t datagrams_received = 0;
  uint64_t envelopes_sent = 0;
  uint64_t unroutable_dropped = 0;
  uint64_t frame_decode_errors = 0;
  // dataflow, per program group (see RuleGroups)
  std::map<std::string, uint64_t> group_busy_ns;
  std::map<std::string, uint64_t> group_execs;
  uint64_t rule_busy_ns = 0;
  uint64_t join_probe_rows = 0;
  uint64_t join_scan_rows = 0;
  // runtime
  uint64_t arena_fresh_bytes = 0;
  uint64_t tuple_created_bytes = 0;
  uint64_t live_tuples = 0;  // gauge: Tuple objects alive in the process
  uint64_t table_bytes = 0;  // gauge: bytes held by every table
  // trace + forensics (gauges except rule_exec_rows)
  uint64_t rule_exec_rows = 0;
  uint64_t tuple_store_rows = 0;
  uint64_t forensics_records = 0;
  uint64_t forensics_bytes = 0;
  uint64_t forensics_segments = 0;
  uint64_t forensics_dropped = 0;
};

// rule id -> program group ("chord", "ringcheck", ...). Built by diffing a
// node's rule registry around each program install.
using RuleGroups = std::map<std::string, std::string>;

// Reads every counter above. Host-side only (between RunFor calls).
Counters ReadCounters(p2::Fleet& fleet, const RuleGroups& groups);

// Closes a window-slice span. When tracing, also reads the counters and
// attaches their deltas since `*prev` to the span, then advances `*prev`.
// Untraced runs read nothing here, so both runs do identical engine work.
void EndSlice(Spans* spans, uint64_t span, p2::Fleet& fleet, const RuleGroups& groups,
              Counters* prev);

// Per program group, seconds spent installing it (the planner layer).
using InstallTimes = std::map<std::string, double>;

// Where InstallGroup records what it did.
struct InstallLog {
  RuleGroups* groups;
  InstallTimes* times;
  Spans* spans;
  uint64_t parent = 0;  // parent span of the install spans
};

// Installs `installer` on `handle` inside an "install.<group>" span, records
// its rules under `group`, and adds its wall time to `(*log.times)[group]`.
bool InstallGroup(p2::NodeHandle handle, const std::string& group,
                  const std::function<bool(p2::Node*, std::string*)>& installer,
                  const InstallLog& log, std::string* error);

// Loads the workload's programs other than Chord on node `i`.
using AppInstaller =
    std::function<bool(p2::NodeHandle, int, const InstallLog&, std::string*)>;

struct Report;

// Set-up as the benchmark times it: build the deployment's fleet and load
// Chord and `apps` (may be empty) on every node, `reps` times on throwaway
// fleets. Reports the median build as `setup_s` and the median per-program
// install time over all nodes as `planner.install_ms.<group>`; fills
// `groups`. Exits with status 3 when a node cannot be built.
void MeasureSetup(int reps, const p2::TestbedConfig& cfg, const AppInstaller& apps,
                  Spans* spans, RuleGroups* groups, Report* report);

// ---- report -----------------------------------------------------------------

// One workload run's outcome. The driver merges an untraced and a traced
// report into the benchmark's result line.
struct Report {
  std::string workload;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Hard gates: any entry makes the run fail (non-zero exit in the driver).
  std::vector<std::string> gate_violations;
  // Correctness failures that are not counted op failures.
  std::vector<std::string> errors;
  // name -> (value, unit)
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::pair<double, std::string>> layers;
  // Deterministic counters compared between the untraced and traced runs.
  std::map<std::string, double> det;
  // Per-class op outcome counts (attempted/failed by op type) and notes.
  std::map<std::string, double> ops;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
  std::string ToJson() const;
};

// Writes the per-layer metrics every workload shares, from the deltas over the
// measured window. `shards` is the fleet's shard count.
void AddLayerMetrics(Report* report, const Counters& a, const Counters& b,
                     int shards, const std::vector<std::string>& group_names);

// Options common to every workload.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

Report RunFleet256K4(const RunOptions& opt);
Report RunForensics21(const RunOptions& opt);
Report RunUdpDht32(const RunOptions& opt);

// Splitmix64: the benchmark's input generator, seeded from --seed only.
class Gen {
 public:
  explicit Gen(uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL) {}
  uint64_t Next();

 private:
  uint64_t s_;
};

}  // namespace p2bench

#endif  // PERFBENCH_HARNESS_H_
