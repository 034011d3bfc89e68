#include "src/simtest/simfuzz.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "src/common/strings.h"
#include "src/net/network.h"
#include "src/tools/scenario.h"

namespace p2 {
namespace simtest {

namespace {

// Sorted dump of every materialized table except the sys* introspection family and
// (optionally) the trace tables. Row order inside a table is normalized by sorting
// the rendered rows, mirroring tests/engine/join_equivalence_test.cc.
std::string DumpTables(Network* net, bool include_trace) {
  std::string out;
  for (Node* node : net->AllNodes()) {
    for (Table* table : node->catalog().AllTables()) {
      const std::string& name = table->spec().name;
      if (StartsWith(name, "sys")) {
        continue;  // sweep-granular mirrors of wall-clock-tainted counters
      }
      if (!include_trace && (name == "ruleExec" || name == "tupleTable")) {
        continue;  // GC cadence differs across ablations
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

uint64_t CountCrashes(const Schedule& schedule) {
  uint64_t crashes = 0;
  for (const SimEvent& e : schedule.events) {
    if (e.kind == EvKind::kCrash) {
      ++crashes;
    }
  }
  return crashes;
}

// Reports the first line where two digests diverge.
std::string FirstDiff(const std::string& a, const std::string& b) {
  std::istringstream ia(a);
  std::istringstream ib(b);
  std::string la;
  std::string lb;
  int line = 0;
  while (true) {
    ++line;
    bool has_a = static_cast<bool>(std::getline(ia, la));
    bool has_b = static_cast<bool>(std::getline(ib, lb));
    if (!has_a && !has_b) {
      return "digests identical";
    }
    if (!has_a || !has_b || la != lb) {
      return StrFormat("line %d: '%s' vs '%s'", line, has_a ? la.c_str() : "<eof>",
                       has_b ? lb.c_str() : "<eof>");
    }
  }
}

}  // namespace

std::set<std::string> RunResult::FailedOracles() const {
  std::set<std::string> names;
  if (!script_ok) {
    names.insert("script");
  }
  for (const Violation& v : violations) {
    names.insert(v.oracle);
  }
  return names;
}

std::string RunResult::Summary() const {
  if (!failed()) {
    return "PASS";
  }
  std::string out = "FAIL:";
  if (!script_ok) {
    out += " script(" + script_error + ")";
  }
  for (const Violation& v : violations) {
    out += " " + v.oracle + "(" + v.detail + ")";
  }
  return out;
}

RunResult RunScenarioText(const std::string& scenario, const Schedule* meta,
                          const SimFuzzOptions& opts) {
  RunResult result;
  result.scenario = scenario;
  // Swallow interpreter output (dump/stats are not part of the harness contract).
  ScenarioRunner runner([](const std::string&) {});
  // One buffer per destination node: a node's tap fires on whichever thread runs
  // that node, so a shared vector would race on parallel fleets. The map itself is
  // only mutated host-side between script lines (threads quiescent), and map nodes
  // are address-stable, so each tap can hold a reference to its own buffer.
  std::map<std::string, std::vector<ChannelDelivery>> deliveries_by_dst;
  std::set<std::string> tapped;
  std::istringstream in(scenario);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string line_error;
    if (!runner.RunLine(line, &line_error)) {
      result.script_ok = false;
      result.script_error = StrFormat("line %d: %s", line_no, line_error.c_str());
      break;
    }
    // Attach the reliable-delivery tap to nodes as they come into existence, before
    // any traffic flows (node creation and the first `run` are distinct lines).
    if (runner.network() != nullptr) {
      for (Node* node : runner.network()->AllNodes()) {
        if (tapped.insert(node->addr()).second) {
          std::string dst = node->addr();
          std::vector<ChannelDelivery>& buf = deliveries_by_dst[dst];
          node->SetReliableDeliveryTap([&buf, dst](const WireEnvelope& env) {
            buf.push_back(ChannelDelivery{env.src_addr, dst, env.epoch, env.seq});
          });
        }
      }
    }
  }
  if (runner.network() == nullptr) {
    if (result.script_ok) {
      result.script_ok = false;
      result.script_error = "scenario created no nodes";
    }
    return result;
  }
  // Concatenate per-destination buffers in address order: the FIFO oracle only
  // needs per-(src,dst) order, which each destination's own buffer preserves.
  std::vector<ChannelDelivery> deliveries;
  for (auto& [addr, buf] : deliveries_by_dst) {
    deliveries.insert(deliveries.end(), buf.begin(), buf.end());
  }
  FleetObservation obs = ObserveFleet(runner.network(), std::move(deliveries));
  if (meta != nullptr) {
    obs.faults_free = !ScheduleHasFaults(*meta);
    obs.snap_abort_timeout = meta->profile.snap_abort;
    obs.snap_abort_check = meta->profile.snap_check;
    obs.crash_events = CountCrashes(*meta);
  }
  std::vector<Oracle> oracles = BuiltinOracles();
  if (opts.broken_oracle) {
    oracles.push_back(BrokenCrashOracle());
  }
  RunOracles(oracles, obs, &result.violations);
  if (opts.export_chains_on_failure && !result.violations.empty() &&
      runner.fleet() != nullptr) {
    // Leave forensic context behind a failure: the replayed causal chains for
    // everything each retention-enabled node derived during the run.
    for (Node* node : runner.network()->AllNodes()) {
      if (node->forensics() != nullptr) {
        result.chain_export += ExportChainsJsonl(
            runner.fleet()->ReplayChains(node->addr(), "*", 0, obs.now));
      }
    }
  }
  result.table_digest = DumpTables(runner.network(), /*include_trace=*/false);
  result.full_digest = DumpTables(runner.network(), /*include_trace=*/true);
  result.total_msgs = obs.total_msgs;
  result.virtual_secs = obs.now;
  return result;
}

RunResult RunSchedule(const Schedule& schedule, const SimFuzzOptions& opts) {
  return RunScenarioText(ScheduleToScenario(schedule, opts.ablation), &schedule, opts);
}

Schedule ShrinkSchedule(const Schedule& schedule, const SimFuzzOptions& opts,
                        int* runs_out) {
  int runs = 0;
  // Shrink candidates fail on purpose; skip the chain export inside the loop.
  SimFuzzOptions inner = opts;
  inner.export_chains_on_failure = false;
  RunResult base = RunSchedule(schedule, inner);
  ++runs;
  Schedule current = schedule;
  if (base.failed()) {
    const std::set<std::string> target = base.FailedOracles();
    auto reproduces = [&](const Schedule& cand) {
      RunResult r = RunSchedule(cand, inner);
      ++runs;
      for (const std::string& oracle : r.FailedOracles()) {
        if (target.count(oracle) > 0) {
          return true;
        }
      }
      return false;
    };
    bool progress = true;
    while (progress) {
      progress = false;
      // Drop later events first: paired cleanup events (recover/heal/clear) vanish
      // before the faults they undo, keeping intermediate schedules well-formed.
      for (size_t i = current.events.size(); i-- > 0;) {
        Schedule cand = current;
        cand.events.erase(cand.events.begin() + static_cast<long>(i));
        if (reproduces(cand)) {
          current = cand;
          progress = true;
        }
      }
    }
  }
  if (runs_out != nullptr) {
    *runs_out = runs;
  }
  return current;
}

std::vector<std::string> DifferentialRun(const Schedule& schedule) {
  std::vector<std::string> diffs;
  RunResult base = RunSchedule(schedule, SimFuzzOptions{});
  if (!base.script_ok) {
    diffs.push_back("base run failed: " + base.script_error);
    return diffs;
  }
  // Join indexes, metrics, and forensics retention are pure observers, and the
  // engine hot-path toggles (arenas, delta batching, zero-copy decode) are pure
  // mechanical optimizations: turning any of them off must leave every
  // deterministic table bit-identical on the same seed.
  for (const char* which :
       {"indexes", "metrics", "forensics", "arenas", "batch", "zerocopy"}) {
    SimFuzzOptions opts;
    if (std::string(which) == "indexes") {
      opts.ablation.use_join_indexes = false;
    } else if (std::string(which) == "metrics") {
      opts.ablation.metrics = false;
    } else if (std::string(which) == "forensics") {
      opts.ablation.forensics = false;
    } else if (std::string(which) == "arenas") {
      opts.ablation.tuple_arenas = false;
    } else if (std::string(which) == "batch") {
      opts.ablation.batch_deltas = false;
    } else {
      opts.ablation.zero_copy_decode = false;
    }
    RunResult ablated = RunSchedule(schedule, opts);
    if (!ablated.script_ok) {
      diffs.push_back(StrFormat("%s-off run failed: %s", which,
                                ablated.script_error.c_str()));
    } else if (ablated.table_digest != base.table_digest) {
      diffs.push_back(StrFormat("%s-off table digest diverged: %s", which,
                                FirstDiff(base.table_digest,
                                          ablated.table_digest).c_str()));
    }
  }
  // Reliable transport changes the message interleaving (acks draw from the same
  // jitter RNG), so digests legitimately differ; the invariants must still hold.
  {
    SimFuzzOptions opts;
    opts.ablation.reliable_transport = false;
    RunResult ablated = RunSchedule(schedule, opts);
    if (ablated.failed()) {
      diffs.push_back("reliable-off run failed: " + ablated.Summary());
    }
  }
  // Overload limits can shed best-effort tuples, so digests legitimately differ
  // from the limits-off base; the run must still pass every oracle — now including
  // the armed overload oracle (caps hold, control plane survives, degrade restores).
  {
    SimFuzzOptions opts;
    opts.ablation.overload_limits = true;
    RunResult ablated = RunSchedule(schedule, opts);
    if (ablated.failed()) {
      diffs.push_back("limits-on run failed: " + ablated.Summary());
    }
  }
  return diffs;
}

}  // namespace simtest
}  // namespace p2
