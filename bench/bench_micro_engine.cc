// Engine microbenchmarks (not in the paper): the cost of the building blocks the
// figure-level benchmarks are made of, plus ablations for design choices called out
// in DESIGN.md §6 (tracing taps on/off, continuous-aggregate recomputation, the
// metrics registry on/off).
//
// Unless the caller passes --benchmark_out, results are also written to
// BENCH_micro_engine.json (Google Benchmark's JSON format) to match the
// BENCH_<name>.json artifacts the figure-level benches produce.

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "src/chord/chord.h"
#include "src/lang/parser.h"
#include "src/net/network.h"
#include "src/net/wire.h"

namespace p2 {
namespace {

TupleRef SampleTuple(int i) {
  return Tuple::Make("succ", {Value::Str("n1"), Value::Id(0x9e3779b97f4a7c15ULL * i),
                              Value::Str("n" + std::to_string(i % 21))});
}

void BM_TupleCreate(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleTuple(++i));
  }
}
BENCHMARK(BM_TupleCreate);

void BM_TupleHash(benchmark::State& state) {
  TupleRef t = SampleTuple(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t->Hash());
  }
}
BENCHMARK(BM_TupleHash);

void BM_TableInsertReplace(benchmark::State& state) {
  TableSpec spec;
  spec.name = "succ";
  spec.lifetime_secs = 30;
  spec.max_size = static_cast<size_t>(state.range(0));
  spec.key_fields = {0, 2};
  Table table(spec);
  int i = 0;
  double now = 0;
  for (auto _ : state) {
    table.Insert(SampleTuple(++i), now);
    now += 0.001;
  }
}
BENCHMARK(BM_TableInsertReplace)->Arg(16)->Arg(256)->Arg(4096);

// The traced insert path: ruleExec is keyed on its whole 7-field tuple (two strings,
// two ids, two doubles, a bool). With a 30 s lifetime and range(0) live rows, time
// advances by lifetime / range(0) per insert, so each insert expires one row written
// a lifetime earlier. Steps are exact in binary, so the row count holds steady.
TupleRef RuleExecRow(uint64_t i, double now) {
  static const char* const kRules[] = {"cs1", "cs2", "sb1", "sb2", "f5", "l1", "l2"};
  return Tuple::Make("ruleExec", {Value::Str("n1"), Value::Str(kRules[i % 7]),
                                  Value::Id(0x9e3779b97f4a7c15ULL * i), Value::Id(i),
                                  Value::Double(now - 0.01), Value::Double(now),
                                  Value::Bool(i % 3 == 0)});
}

void BM_RuleExecInsertExpire(benchmark::State& state) {
  TableSpec spec;
  spec.name = "ruleExec";
  spec.lifetime_secs = 30;
  Table table(spec);
  const double step = spec.lifetime_secs / static_cast<double>(state.range(0));
  uint64_t i = 0;
  double now = 0;
  auto insert_next = [&] {
    now = static_cast<double>(i) * step;
    table.Insert(RuleExecRow(i++, now), now);
  };
  while (i < static_cast<uint64_t>(state.range(0))) {
    insert_next();
  }
  for (auto _ : state) {
    insert_next();
  }
  state.counters["live_rows"] = static_cast<double>(table.Size(now));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuleExecInsertExpire)->Arg(1024)->Arg(16384);

void BM_TableScan(benchmark::State& state) {
  TableSpec spec;
  spec.name = "succ";
  spec.key_fields = {0, 2};
  Table table(spec);
  for (int i = 0; i < state.range(0); ++i) {
    table.Insert(SampleTuple(i), 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Scan(1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableScan)->Arg(16)->Arg(256);

void BM_ParseChordProgram(benchmark::State& state) {
  ChordConfig cfg;
  std::string source = ChordProgram();
  ParamMap params = ChordParams(cfg);
  for (auto _ : state) {
    Program program;
    std::string error;
    bool ok = ParseProgram(source, params, &program, &error);
    if (!ok) {
      state.SkipWithError(error.c_str());
      return;
    }
    benchmark::DoNotOptimize(program);
  }
}
BENCHMARK(BM_ParseChordProgram);

void BM_WireRoundTrip(benchmark::State& state) {
  WireEnvelope env;
  env.src_addr = "n1";
  env.tuple = SampleTuple(3);
  for (auto _ : state) {
    std::string bytes = EncodeEnvelope(env);
    WireEnvelope out;
    bool ok = DecodeEnvelope(bytes, &out);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_WireRoundTrip);

// One strand execution: event joins a 16-row table and emits. `tracing` toggles the
// tracer taps — the per-execution cost of making the system diagnosable. `metrics`
// toggles the metrics registry (two clock reads + a few integer adds per trigger);
// the NoMetrics variant exists to pin that overhead below 5%.
void StrandTriggerBench(benchmark::State& state, bool tracing, bool metrics = true) {
  NetworkConfig net_cfg;
  net_cfg.latency = 0.001;
  Network net(net_cfg);
  NodeOptions opts;
  opts.tracing = tracing;
  opts.metrics = metrics;
  opts.introspection = false;
  opts.rule_exec_lifetime = 0.5;  // keep the trace tables from growing unboundedly
  Node* node = net.AddNode("n1", opts);
  std::string error;
  bool ok = node->LoadProgram(
      "materialize(s, infinity, 16, keys(1,2)).\n"
      "r1 out@N(X, Y) :- ev@N(X), s@N(Y), Y < 8.",
      &error);
  if (!ok) {
    state.SkipWithError(error.c_str());
    return;
  }
  for (int i = 0; i < 16; ++i) {
    node->InjectEvent(Tuple::Make("s", {Value::Str("n1"), Value::Int(i)}));
  }
  net.RunFor(1);
  int i = 0;
  for (auto _ : state) {
    node->InjectEvent(Tuple::Make("ev", {Value::Str("n1"), Value::Int(++i)}));
    net.RunFor(0.01);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_StrandTrigger_Untraced(benchmark::State& state) {
  StrandTriggerBench(state, false);
}
BENCHMARK(BM_StrandTrigger_Untraced);

void BM_StrandTrigger_Traced(benchmark::State& state) { StrandTriggerBench(state, true); }
BENCHMARK(BM_StrandTrigger_Traced);

void BM_StrandTrigger_NoMetrics(benchmark::State& state) {
  StrandTriggerBench(state, false, /*metrics=*/false);
}
BENCHMARK(BM_StrandTrigger_NoMetrics);

// Ablation: a join whose pattern covers the table's primary key becomes an O(1)
// probe; the same join against an unkeyed table scans. Table size = range(0).
// Secondary indexes are disabled for the unkeyed variant — the planner would
// otherwise index it (see BM_JoinProbe_* for that A/B) and there would be no scan
// left to measure.
void JoinBench(benchmark::State& state, bool keyed) {
  NetworkConfig net_cfg;
  Network net(net_cfg);
  NodeOptions opts;
  opts.introspection = false;
  opts.use_join_indexes = keyed;
  Node* node = net.AddNode("n1", opts);
  std::string error;
  std::string program = keyed ? "materialize(kv, infinity, 100000, keys(1, 2)).\n"
                              : "materialize(kv, infinity, 100000).\n";
  program += "r1 out@N(V) :- q@N(K), kv@N(K, V).";
  bool ok = node->LoadProgram(program, &error);
  if (!ok) {
    state.SkipWithError(error.c_str());
    return;
  }
  for (int i = 0; i < state.range(0); ++i) {
    node->InjectEvent(
        Tuple::Make("kv", {Value::Str("n1"), Value::Int(i), Value::Int(i * 10)}));
  }
  net.RunFor(1);
  int i = 0;
  for (auto _ : state) {
    node->InjectEvent(
        Tuple::Make("q", {Value::Str("n1"), Value::Int(++i % state.range(0))}));
    net.RunFor(0.01);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_JoinKeyProbe(benchmark::State& state) { JoinBench(state, true); }
BENCHMARK(BM_JoinKeyProbe)->Arg(64)->Arg(1024)->Arg(8192);

void BM_JoinFullScan(benchmark::State& state) { JoinBench(state, false); }
BENCHMARK(BM_JoinFullScan)->Arg(64)->Arg(1024)->Arg(8192);

// The secondary-index ablation: a join binding a single non-key column probes a
// secondary index (use_join_indexes, the default) or falls back to a full scan.
// Table size = range(0); each probe matches exactly one row, so the gap between the
// two variants is pure access-path cost.
void JoinProbeBench(benchmark::State& state, bool indexed) {
  NetworkConfig net_cfg;
  Network net(net_cfg);
  NodeOptions opts;
  opts.introspection = false;
  opts.use_join_indexes = indexed;
  Node* node = net.AddNode("n1", opts);
  std::string error;
  bool ok = node->LoadProgram(
      "materialize(kv, infinity, 100000, keys(1, 2)).\n"
      "r1 out@N(K) :- q@N(V), kv@N(K, V).",
      &error);
  if (!ok) {
    state.SkipWithError(error.c_str());
    return;
  }
  for (int i = 0; i < state.range(0); ++i) {
    node->InjectEvent(
        Tuple::Make("kv", {Value::Str("n1"), Value::Int(i), Value::Int(i)}));
  }
  net.RunFor(1);
  int i = 0;
  for (auto _ : state) {
    node->InjectEvent(
        Tuple::Make("q", {Value::Str("n1"), Value::Int(++i % state.range(0))}));
    net.RunFor(0.01);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_JoinProbe_Indexed(benchmark::State& state) { JoinProbeBench(state, true); }
BENCHMARK(BM_JoinProbe_Indexed)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_JoinProbe_Scan(benchmark::State& state) { JoinProbeBench(state, false); }
BENCHMARK(BM_JoinProbe_Scan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// Ablation: tracer record bound (the paper's "fixed number of execution records").
void BM_TracerRecordBound(benchmark::State& state) {
  NetworkConfig net_cfg;
  Network net(net_cfg);
  NodeOptions opts;
  opts.tracing = true;
  opts.introspection = false;
  opts.rule_exec_lifetime = 0.5;
  opts.tracer_records_per_rule = static_cast<size_t>(state.range(0));
  Node* node = net.AddNode("n1", opts);
  std::string error;
  bool ok = node->LoadProgram(
      "materialize(s, infinity, 16, keys(1,2)).\n"
      "r1 out@N(X, Y) :- ev@N(X), s@N(Y).",
      &error);
  if (!ok) {
    state.SkipWithError(error.c_str());
    return;
  }
  for (int i = 0; i < 16; ++i) {
    node->InjectEvent(Tuple::Make("s", {Value::Str("n1"), Value::Int(i)}));
  }
  net.RunFor(1);
  int i = 0;
  for (auto _ : state) {
    node->InjectEvent(Tuple::Make("ev", {Value::Str("n1"), Value::Int(++i)}));
    net.RunFor(0.01);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerRecordBound)->Arg(1)->Arg(8)->Arg(64);

// Continuous aggregate re-evaluation cost as the underlying table grows (DESIGN.md §6).
// The body reads one table, so the rule is kept per group: flipping one row's payload
// re-aggregates only that row's group of 4, and the cost per re-evaluation stays flat
// whatever the table size. Items are re-evaluations.
void BM_ContinuousAggReeval(benchmark::State& state) {
  NetworkConfig net_cfg;
  Network net(net_cfg);
  NodeOptions opts;
  opts.introspection = false;
  Node* node = net.AddNode("n1", opts);
  std::string error;
  bool ok = node->LoadProgram(
      "materialize(bp, infinity, 100000, keys(1,2)).\n"
      "materialize(nbp, infinity, 100000, keys(1,2)).\n"
      "bp2 nbp@N(G, count<*>) :- bp@N(R, G, F).",
      &error);
  if (!ok) {
    state.SkipWithError(error.c_str());
    return;
  }
  for (int i = 0; i < state.range(0); ++i) {
    node->InjectEvent(Tuple::Make(
        "bp", {Value::Str("n1"), Value::Int(i), Value::Int(i / 4), Value::Int(0)}));
  }
  net.RunFor(1);
  // Flipping one row's payload replaces it under the key, dirtying the aggregate and
  // forcing one re-evaluation over a table of fixed size range(0).
  uint64_t reevals = node->stats().agg_reevals;
  int flip = 0;
  for (auto _ : state) {
    node->InjectEvent(Tuple::Make(
        "bp", {Value::Str("n1"), Value::Int(0), Value::Int(0), Value::Int(++flip)}));
    net.RunFor(0.01);
  }
  state.SetItemsProcessed(static_cast<int64_t>(node->stats().agg_reevals - reevals));
}
BENCHMARK(BM_ContinuousAggReeval)->Arg(16)->Arg(128)->Arg(1024);

}  // namespace
}  // namespace p2

int main(int argc, char** argv) {
  // Default to writing the JSON artifact unless the caller chose their own output.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  static char out_flag[] = "--benchmark_out=BENCH_micro_engine.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
