#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <memory>
#include <set>

#include "src/chord/chord.h"
#include "src/net/udp_driver.h"
#include "src/runtime/arena.h"
#include "src/runtime/tuple.h"
#include "src/trace/forensics.h"
#include "src/trace/tracer.h"

namespace p2bench {

double WallS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) {
    return 0;
  }
  std::sort(v->begin(), v->end());
  double pos = q * static_cast<double>(v->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v->size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * frac;
}

uint64_t Gen::Next() {
  uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---- spans ------------------------------------------------------------------

uint64_t Spans::Begin(const std::string& name, uint64_t parent, uint64_t op) {
  return enabled_ ? BeginAt(name, WallS(), parent, op) : 0;
}

uint64_t Spans::BeginAt(const std::string& name, double start, uint64_t parent,
                        uint64_t op) {
  if (!enabled_) {
    return 0;
  }
  Span s;
  s.name = name;
  s.start = start;
  s.parent = parent;
  s.op = op;
  spans_.push_back(std::move(s));
  return spans_.size();
}

void Spans::End(uint64_t id) {
  if (enabled_ && id != 0) {
    EndAt(id, WallS());
  }
}

void Spans::EndAt(uint64_t id, double end) {
  if (enabled_ && id != 0) {
    spans_[id - 1].end = end;
  }
}

void Spans::Attr(uint64_t id, const std::string& key, double value) {
  if (enabled_ && id != 0) {
    spans_[id - 1].attrs.emplace_back(key, value);
  }
}

bool Spans::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    fprintf(f,
            "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
            "\"parent\":%llu,\"op\":%llu",
            i + 1, s.name.c_str(), s.start, s.end,
            static_cast<unsigned long long>(s.parent),
            static_cast<unsigned long long>(s.op));
    if (!s.attrs.empty()) {
      fprintf(f, ",\"attrs\":{");
      for (size_t k = 0; k < s.attrs.size(); ++k) {
        fprintf(f, "%s\"%s\":%.17g", k == 0 ? "" : ",", s.attrs[k].first.c_str(),
                s.attrs[k].second);
      }
      fprintf(f, "}");
    }
    fprintf(f, "}\n");
  }
  return std::fclose(f) == 0;
}

Timed::Timed(Spans* spans, const std::string& name, uint64_t parent, double* acc_s)
    : spans_(spans), id_(spans->Begin(name, parent)), acc_s_(acc_s), start_(WallS()) {}

Timed::~Timed() {
  double end = WallS();
  spans_->EndAt(id_, end);
  if (acc_s_ != nullptr) {
    *acc_s_ += end - start_;
  }
}

// ---- counters -----------------------------------------------------------------

namespace {

uint64_t RegistryCounter(p2::Node* node, const std::string& name) {
  const auto& counters = node->metrics().counters();
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second->value;
}

}  // namespace

Counters ReadCounters(p2::Fleet& fleet, const RuleGroups& groups) {
  Counters c;
  c.wall_s = WallS();
  c.cpu_s = ProcessCpuS();
  c.sim_s = fleet.Now();
  p2::Network& net = fleet.network();
  c.windows = net.windows();
  c.critical_path_ns = net.critical_path_ns();
  for (const p2::Network::ShardStats& s : net.ShardStatsSnapshot()) {
    c.shard_busy_ns += s.busy_ns;
    c.shard_events += s.events;
    c.heap_hwm = std::max(c.heap_hwm, s.heap_hwm);
    c.cross_shard_msgs += s.sent_cross_shard;
  }
  c.msgs = fleet.total_msgs();
  c.bytes = fleet.total_bytes();
  for (p2::NodeHandle h : fleet.Handles()) {
    p2::Node* node = h.raw();
    const p2::NodeStats& st = node->stats();
    c.node_busy_ns += st.busy_ns;
    c.strand_triggers += st.strand_triggers;
    c.local_deliveries += st.local_deliveries;
    c.agg_reevals += st.agg_reevals;
    c.queue_hwm = std::max(c.queue_hwm, st.queue_hwm);
    c.dead_letters += st.dead_letters;
    c.decode_errors += st.decode_errors;
    c.shed_reliable += st.shed_reliable;
    c.rel_pending_hwm = std::max(c.rel_pending_hwm, st.rel_pending_hwm);
    c.rel_sent += RegistryCounter(node, "rel_sent");
    c.rel_acked += RegistryCounter(node, "rel_acked");
    c.rel_retx += RegistryCounter(node, "rel_retx");
    c.rel_acks_sent += RegistryCounter(node, "rel_acks_sent");
    c.rel_failed += RegistryCounter(node, "rel_failed");
    for (const auto& [rule_id, m] : node->metrics().rules()) {
      auto g = groups.find(rule_id);
      const std::string& group = g == groups.end() ? std::string("other") : g->second;
      c.group_busy_ns[group] += m->busy_ns;
      c.group_execs[group] += m->execs;
      c.rule_busy_ns += m->busy_ns;
      c.join_probe_rows += m->join_probe_rows;
      c.join_scan_rows += m->join_scan_rows;
    }
    c.table_bytes += node->catalog().TotalBytes();
    c.rule_exec_rows += node->tracer().rule_exec_rows_written();
    c.tuple_store_rows += node->store().size();
    if (const p2::ForensicsStore* fs = node->forensics()) {
      p2::ForensicsStats fst = fs->Stats();
      c.forensics_records += fst.records;
      c.forensics_bytes += fst.bytes;
      c.forensics_segments += fst.segments;
      c.forensics_dropped += fst.dropped_segments;
    }
  }
  if (p2::UdpDriver* udp = fleet.udp()) {
    c.datagrams_sent = udp->datagrams_sent();
    c.datagrams_received = udp->datagrams_received();
    c.envelopes_sent = udp->envelopes_sent();
    c.unroutable_dropped = udp->unroutable_dropped();
    c.frame_decode_errors = udp->frame_decode_errors();
  }
  c.arena_fresh_bytes = p2::TupleArena::FreshBytes();
  c.tuple_created_bytes = p2::Tuple::TotalBytesCreated();
  c.live_tuples = p2::Tuple::LiveCount();
  return c;
}

void EndSlice(Spans* spans, uint64_t span, p2::Fleet& fleet, const RuleGroups& groups,
              Counters* prev) {
  spans->End(span);
  if (!spans->enabled()) {
    return;
  }
  const Counters& a = *prev;
  Counters b = ReadCounters(fleet, groups);
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  spans->Attr(span, "sim_s", b.sim_s - a.sim_s);
  spans->Attr(span, "cpu_s", b.cpu_s - a.cpu_s);
  spans->Attr(span, "critical_path_s", d(a.critical_path_ns, b.critical_path_ns) / 1e9);
  spans->Attr(span, "shard_busy_s", d(a.shard_busy_ns, b.shard_busy_ns) / 1e9);
  spans->Attr(span, "node_busy_s", d(a.node_busy_ns, b.node_busy_ns) / 1e9);
  spans->Attr(span, "rule_busy_s", d(a.rule_busy_ns, b.rule_busy_ns) / 1e9);
  spans->Attr(span, "windows", d(a.windows, b.windows));
  spans->Attr(span, "events", d(a.shard_events, b.shard_events));
  spans->Attr(span, "cross_shard_msgs", d(a.cross_shard_msgs, b.cross_shard_msgs));
  spans->Attr(span, "msgs", d(a.msgs, b.msgs));
  spans->Attr(span, "bytes", d(a.bytes, b.bytes));
  spans->Attr(span, "strand_triggers", d(a.strand_triggers, b.strand_triggers));
  spans->Attr(span, "rel_sent", d(a.rel_sent, b.rel_sent));
  spans->Attr(span, "rel_retx", d(a.rel_retx, b.rel_retx));
  spans->Attr(span, "datagrams_sent", d(a.datagrams_sent, b.datagrams_sent));
  spans->Attr(span, "rule_exec_rows", d(a.rule_exec_rows, b.rule_exec_rows));
  spans->Attr(span, "arena_fresh_bytes", d(a.arena_fresh_bytes, b.arena_fresh_bytes));
  *prev = b;
}

bool InstallGroup(p2::NodeHandle handle, const std::string& group,
                  const std::function<bool(p2::Node*, std::string*)>& installer,
                  const InstallLog& log, std::string* error) {
  std::set<std::string> before;
  for (const auto& [rule_id, m] : handle.raw()->metrics().rules()) {
    before.insert(rule_id);
  }
  bool ok;
  {
    Timed t(log.spans, "install." + group, log.parent, &(*log.times)[group]);
    ok = handle.Install(installer, error);
  }
  if (!ok) {
    return false;
  }
  for (const auto& [rule_id, m] : handle.raw()->metrics().rules()) {
    if (before.count(rule_id) == 0) {
      (*log.groups)[rule_id] = group;
    }
  }
  return true;
}

void MeasureSetup(int reps, const p2::TestbedConfig& cfg, const AppInstaller& apps,
                  Spans* spans, RuleGroups* groups, Report* report) {
  std::vector<double> samples;
  std::map<std::string, std::vector<double>> install_ms;
  for (int rep = 0; rep < reps; ++rep) {
    uint64_t span = spans->Begin("setup.build_and_install");
    double t0 = WallS();
    InstallTimes times;
    InstallLog log{groups, &times, spans, span};
    {
      auto fleet = std::make_unique<p2::Fleet>(cfg.fleet);
      std::vector<p2::NodeHandle> handles;
      for (int i = 0; i < cfg.num_nodes; ++i) {
        handles.push_back(fleet->AddNode(p2::ChordTestbed::AddrOf(i)));
      }
      for (int i = 0; i < cfg.num_nodes; ++i) {
        p2::ChordConfig chord = cfg.chord;
        chord.landmark = i == 0 ? std::string() : p2::ChordTestbed::AddrOf(0);
        std::string error = "socket bind failed";
        bool ok = handles[i].valid() &&
                  InstallGroup(handles[i], "chord",
                               [&chord](p2::Node* n, std::string* e) {
                                 return p2::InstallChord(n, chord, e);
                               },
                               log, &error) &&
                  (!apps || apps(handles[i], i, log, &error));
        if (!ok) {
          fprintf(stderr, "p2bench: set-up of node %d failed: %s\n", i, error.c_str());
          exit(3);
        }
      }
      samples.push_back(WallS() - t0);
      spans->End(span);
      // The fleet is destroyed here, outside the timed region.
    }
    for (const auto& [group, s] : times) {
      install_ms[group].push_back(s * 1e3);
    }
  }
  report->Metric("setup_s", Percentile(&samples, 0.5), "s");
  for (auto& [group, v] : install_ms) {
    report->Layer("planner.install_ms." + group, Percentile(&v, 0.5), "ms");
  }
}

// ---- report -------------------------------------------------------------------

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricMap(const std::map<std::string, std::pair<double, std::string>>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : m) {
    out += first ? "" : ",";
    first = false;
    out += "\"" + Escape(name) + "\":{\"value\":" + Num(vu.first) + ",\"unit\":\"" +
           Escape(vu.second) + "\"}";
  }
  return out + "}";
}

std::string NumMap(const std::map<std::string, double>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : m) {
    out += first ? "" : ",";
    first = false;
    out += "\"" + Escape(name) + "\":" + Num(v);
  }
  return out + "}";
}

std::string StrList(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + Escape(v[i]) + "\"";
  }
  return out + "]";
}

}  // namespace

std::string Report::ToJson() const {
  return "{\"workload\":\"" + Escape(workload) + "\",\"attempted\":" +
         std::to_string(attempted) + ",\"failed\":" + std::to_string(failed) +
         ",\"gate_violations\":" + StrList(gate_violations) +
         ",\"errors\":" + StrList(errors) + ",\"metrics\":" + MetricMap(metrics) +
         ",\"layers\":" + MetricMap(layers) + ",\"det\":" + NumMap(det) +
         ",\"ops\":" + NumMap(ops) + "}";
}

void AddLayerMetrics(Report* r, const Counters& a, const Counters& b, int shards,
                     const std::vector<std::string>& group_names) {
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  double wall = b.wall_s - a.wall_s;
  double crit = d(a.critical_path_ns, b.critical_path_ns) / 1e9;
  double shard_busy = d(a.shard_busy_ns, b.shard_busy_ns) / 1e9;
  double node_busy = d(a.node_busy_ns, b.node_busy_ns) / 1e9;
  double rule_busy = d(a.rule_busy_ns, b.rule_busy_ns) / 1e9;
  double cpu = b.cpu_s - a.cpu_s;

  // network + scheduler. With one shard there are no windows: the run is one
  // thread, so its critical path is the shard's busy time.
  if (b.windows == 0) {
    crit = shard_busy;
  }
  r->Layer("network.windows", d(a.windows, b.windows), "count");
  r->Layer("network.cross_shard_msgs", d(a.cross_shard_msgs, b.cross_shard_msgs),
           "count");
  r->Layer("network.events", d(a.shard_events, b.shard_events), "count");
  r->Layer("network.heap_hwm", static_cast<double>(b.heap_hwm), "count");
  r->Layer("network.shard_busy_s", shard_busy, "s");
  r->Layer("network.critical_path_s", crit, "s");
  r->Layer("network.barrier_s", wall - crit, "s");
  r->Layer("network.imbalance", shard_busy > 0 ? shards * crit / shard_busy : 0, "ratio");
  r->Layer("network.sched_self_s", shard_busy - node_busy, "s");

  // node
  r->Layer("node.busy_s", node_busy, "s");
  r->Layer("node.self_s", node_busy - rule_busy, "s");
  r->Layer("node.strand_triggers", d(a.strand_triggers, b.strand_triggers), "count");
  r->Layer("node.local_deliveries", d(a.local_deliveries, b.local_deliveries), "count");
  r->Layer("node.agg_reevals", d(a.agg_reevals, b.agg_reevals), "count");
  r->Layer("node.queue_hwm", static_cast<double>(b.queue_hwm), "count");
  r->Layer("node.dead_letters", d(a.dead_letters, b.dead_letters), "count");

  // rel
  r->Layer("rel.sent", d(a.rel_sent, b.rel_sent), "count");
  r->Layer("rel.acked", d(a.rel_acked, b.rel_acked), "count");
  r->Layer("rel.retx", d(a.rel_retx, b.rel_retx), "count");
  r->Layer("rel.acks_sent", d(a.rel_acks_sent, b.rel_acks_sent), "count");
  r->Layer("rel.failed", d(a.rel_failed, b.rel_failed), "count");
  r->Layer("rel.pending_hwm", static_cast<double>(b.rel_pending_hwm), "count");

  // wire
  double msgs = d(a.msgs, b.msgs);
  double bytes = d(a.bytes, b.bytes);
  r->Layer("wire.msgs", msgs, "count");
  r->Layer("wire.bytes", bytes, "B");
  r->Layer("wire.bytes_per_msg", msgs > 0 ? bytes / msgs : 0, "B");

  // udp
  double dg = d(a.datagrams_sent, b.datagrams_sent);
  double env = d(a.envelopes_sent, b.envelopes_sent);
  r->Layer("udp.datagrams_sent", dg, "count");
  r->Layer("udp.datagrams_received", d(a.datagrams_received, b.datagrams_received),
           "count");
  r->Layer("udp.envelopes_sent", env, "count");
  r->Layer("udp.batch_ratio", dg > 0 ? env / dg : 0, "ratio");
  // Process CPU the dataflow does not account for: sockets, framing, the poll
  // loop and the benchmark's own host-side work. Only meaningful on udp.
  r->Layer("udp.transport_cpu_s", dg > 0 ? cpu - node_busy : 0, "s");
  r->Layer("udp.unroutable_dropped", d(a.unroutable_dropped, b.unroutable_dropped),
           "count");

  // dataflow
  for (const std::string& g : group_names) {
    auto busy = [&](const Counters& c) {
      auto it = c.group_busy_ns.find(g);
      return it == c.group_busy_ns.end() ? 0ULL : it->second;
    };
    auto execs = [&](const Counters& c) {
      auto it = c.group_execs.find(g);
      return it == c.group_execs.end() ? 0ULL : it->second;
    };
    r->Layer("dataflow.busy_s." + g, d(busy(a), busy(b)) / 1e9, "s");
    r->Layer("dataflow.execs." + g, d(execs(a), execs(b)), "count");
  }
  r->Layer("dataflow.join_probe_rows", d(a.join_probe_rows, b.join_probe_rows), "count");
  r->Layer("dataflow.join_scan_rows", d(a.join_scan_rows, b.join_scan_rows), "count");

  // runtime
  r->Layer("runtime.arena_fresh_mb", d(a.arena_fresh_bytes, b.arena_fresh_bytes) / 1048576.0,
           "MiB");
  r->Layer("runtime.tuple_created_mb",
           d(a.tuple_created_bytes, b.tuple_created_bytes) / 1048576.0, "MiB");
  r->Layer("runtime.live_tuples", static_cast<double>(b.live_tuples), "count");
  r->Layer("runtime.table_mb", static_cast<double>(b.table_bytes) / 1048576.0, "MiB");

  // trace + forensics
  r->Layer("trace.rule_exec_rows", d(a.rule_exec_rows, b.rule_exec_rows), "count");
  r->Layer("trace.tuple_store_rows", static_cast<double>(b.tuple_store_rows), "count");
  r->Layer("forensics.records", static_cast<double>(b.forensics_records), "count");
  r->Layer("forensics.mb", static_cast<double>(b.forensics_bytes) / 1048576.0, "MiB");
  r->Layer("forensics.segments", static_cast<double>(b.forensics_segments), "count");
  r->Layer("forensics.dropped_segments", static_cast<double>(b.forensics_dropped),
           "count");
}

}  // namespace p2bench
