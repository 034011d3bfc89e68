#include "src/tools/scenario.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "src/net/udp_driver.h"

#include "src/apps/dht.h"
#include "src/chord/chord.h"
#include "src/common/strings.h"
#include "src/mon/ring_checks.h"
#include "src/mon/snapshot.h"
#include "src/overlays/flood.h"

namespace p2 {

namespace {

// Splits a command line into whitespace-separated words, keeping "quoted strings" and
// parenthesized tuple literals intact as single words.
std::vector<std::string> Words(const std::string& line) {
  std::vector<std::string> out;
  std::string current;
  int depth = 0;
  bool in_string = false;
  for (char c : line) {
    if (in_string) {
      current += c;
      if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      current += c;
      in_string = true;
      continue;
    }
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      --depth;
    }
    if (std::isspace(static_cast<unsigned char>(c)) && depth == 0) {
      if (!current.empty()) {
        out.push_back(current);
        current.clear();
      }
    } else {
      current += c;
    }
  }
  if (!current.empty()) {
    out.push_back(current);
  }
  return out;
}

// Parses `k=v`; returns false if `word` has no '='.
bool SplitKv(const std::string& word, std::string* k, std::string* v) {
  size_t eq = word.find('=');
  if (eq == std::string::npos) {
    return false;
  }
  *k = word.substr(0, eq);
  *v = word.substr(eq + 1);
  return true;
}

bool IsNumber(const std::string& s) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

// Strict argument parsing: a malformed number (e.g. `at=1O`) must fail the line, not
// silently read as 0 — simfuzz round-trips generated scenario files through this
// parser and relies on every typo being a line-numbered error.
bool ParseDoubleArg(const std::string& text, const std::string& what, double* out,
                    std::string* error) {
  if (!IsNumber(text)) {
    *error = "bad number for " + what + ": '" + text + "'";
    return false;
  }
  *out = std::strtod(text.c_str(), nullptr);
  return true;
}

// A probability argument: numeric and within [0,1].
bool ParseRateArg(const std::string& text, const std::string& what, double* out,
                  std::string* error) {
  if (!ParseDoubleArg(text, what, out, error)) {
    return false;
  }
  if (*out < 0.0 || *out > 1.0) {
    *error = what + " must be in [0,1]: " + text;
    return false;
  }
  return true;
}

// A non-negative duration/latency argument.
bool ParseDurationArg(const std::string& text, const std::string& what, double* out,
                      std::string* error) {
  if (!ParseDoubleArg(text, what, out, error)) {
    return false;
  }
  if (*out < 0.0) {
    *error = what + " must be >= 0: " + text;
    return false;
  }
  return true;
}

bool ParseU64Arg(const std::string& text, const std::string& what, uint64_t* out,
                 std::string* error) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    *error = "bad unsigned integer for " + what + ": '" + text + "'";
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

bool ParseOnOff(const std::string& text, const std::string& what, bool* out,
                std::string* error) {
  if (text == "on") {
    *out = true;
    return true;
  }
  if (text == "off") {
    *out = false;
    return true;
  }
  *error = what + " must be on|off: " + text;
  return false;
}

// Parses one value of a tuple literal.
bool ParseLiteralValue(const std::string& text, Value* out, std::string* error) {
  if (text.empty()) {
    *error = "empty value";
    return false;
  }
  if (text.front() == '"') {
    if (text.size() < 2 || text.back() != '"') {
      *error = "unterminated string: " + text;
      return false;
    }
    *out = Value::Str(text.substr(1, text.size() - 2));
    return true;
  }
  if (StartsWith(text, "id:")) {
    *out = Value::Id(std::strtoull(text.c_str() + 3, nullptr, 10));
    return true;
  }
  if (text == "true") {
    *out = Value::Bool(true);
    return true;
  }
  if (text == "false") {
    *out = Value::Bool(false);
    return true;
  }
  if (IsNumber(text)) {
    if (text.find('.') == std::string::npos && text.find('e') == std::string::npos) {
      *out = Value::Int(std::strtoll(text.c_str(), nullptr, 10));
    } else {
      *out = Value::Double(std::strtod(text.c_str(), nullptr));
    }
    return true;
  }
  // Bare identifier: a string (node addresses, labels).
  *out = Value::Str(text);
  return true;
}

// Parses `name(v1, v2, ...)`.
bool ParseTupleLiteral(const std::string& text, TupleRef* out, std::string* error) {
  size_t open = text.find('(');
  if (open == std::string::npos || text.back() != ')') {
    *error = "expected name(v1, ...): " + text;
    return false;
  }
  std::string name = text.substr(0, open);
  std::string args = text.substr(open + 1, text.size() - open - 2);
  ValueList fields;
  std::string current;
  int depth = 0;
  bool in_string = false;
  auto flush = [&]() -> bool {
    // Trim whitespace.
    size_t b = current.find_first_not_of(" \t");
    size_t e = current.find_last_not_of(" \t");
    if (b == std::string::npos) {
      return current.empty();
    }
    Value v;
    if (!ParseLiteralValue(current.substr(b, e - b + 1), &v, error)) {
      return false;
    }
    fields.push_back(std::move(v));
    current.clear();
    return true;
  };
  for (char c : args) {
    if (in_string) {
      current += c;
      if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      current += c;
      continue;
    }
    if (c == ',' && depth == 0) {
      if (!flush()) {
        return false;
      }
      continue;
    }
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      --depth;
    }
    current += c;
  }
  if (!flush()) {
    return false;
  }
  *out = Tuple::Make(std::move(name), std::move(fields));
  return true;
}

}  // namespace

struct ScenarioRunner::Impl {
  std::function<void(const std::string&)> out;
  FleetConfig fleet_config;
  // Telemetry export: the sink is owned here (it must outlive the network, which
  // holds a raw pointer); a path requested before the network exists is held
  // pending and attached when the first node creates it.
  std::unique_ptr<MetricsSink> metrics_sink;
  std::string pending_metrics_path;
  // Retention config from a `forensics` directive, applied to every node created
  // after it (the store is built in the Node constructor, so it cannot be enabled
  // retroactively).
  ForensicsOptions pending_forensics;
  // Overload limits from a `limits` directive (docs/ROBUSTNESS.md), applied — like
  // forensics — to every node created after the line.
  struct PendingLimits {
    bool set = false;
    uint64_t queue = 0;
    uint64_t low = 0;
    uint64_t window = 0;
    uint64_t backlog = 0;
    uint64_t reorder = 0;
    bool reorder_set = false;  // reorder=0 legitimately disables the default cap
    uint64_t degrade = 0;
    uint64_t degrade_lo = 0;
    double stretch = 0;
  };
  PendingLimits pending_limits;

  // Partitioned multi-process execution (fleetd --index/--procs): the k-th
  // `node` directive is hosted here iff k % proc_count == proc_index; names
  // hosted elsewhere are recorded so directives addressing them are skipped
  // (distinct from an unknown-name error — every process runs one profile).
  int proc_index = 0;
  int proc_count = 1;
  int node_ordinal = 0;
  std::set<std::string> remote_nodes;

  // Rendezvous exchange, performed at the first `run` (all local nodes exist by
  // then, none has pumped wall-clock time yet).
  bool have_rendezvous = false;
  bool rendezvous_done = false;
  RendezvousConfig rendezvous;

  void Print(const std::string& s) {
    if (out) {
      out(s);
    } else {
      fputs(s.c_str(), stdout);
    }
  }
};

ScenarioRunner::ScenarioRunner(std::function<void(const std::string&)> out)
    : impl_(std::make_unique<Impl>()) {
  impl_->out = std::move(out);
}

ScenarioRunner::~ScenarioRunner() = default;

void ScenarioRunner::SetBackend(FleetBackend backend) {
  impl_->fleet_config.backend = backend;
}

bool ScenarioRunner::ConfigureProcesses(int index, int procs, std::string* error) {
  if (procs < 1 || index < 0 || index >= procs) {
    *error = StrFormat("bad process slot: index %d of %d", index, procs);
    return false;
  }
  if (procs > 1 && impl_->fleet_config.backend != FleetBackend::kUdp) {
    *error = "multi-process execution requires the udp backend";
    return false;
  }
  impl_->proc_index = index;
  impl_->proc_count = procs;
  return true;
}

void ScenarioRunner::SetRendezvous(const RendezvousConfig& config) {
  impl_->rendezvous = config;
  impl_->have_rendezvous = true;
}

bool ScenarioRunner::RunScript(const std::string& script, std::string* error) {
  std::istringstream in(script);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string line_error;
    if (!RunLine(line, &line_error)) {
      *error = StrFormat("line %d: %s", line_no, line_error.c_str());
      return false;
    }
  }
  return true;
}

bool ScenarioRunner::RunLine(const std::string& raw, std::string* error) {
  std::string line = raw;
  size_t hash = line.find('#');
  if (hash != std::string::npos) {
    line = line.substr(0, hash);
  }
  std::vector<std::string> words = Words(line);
  if (words.empty()) {
    return true;
  }
  const std::string& cmd = words[0];

  auto need_network = [&]() -> bool {
    if (fleet_ == nullptr) {
      *error = "no nodes created yet";
      return false;
    }
    return true;
  };
  // Resolves <addr|all> into a handle list. A node hosted by another process
  // (fleetd --procs) resolves successfully to an EMPTY list: the directive is
  // someone else's to execute, and every handler below treats no-handles as a
  // no-op. Unknown names still fail.
  auto resolve = [&](const std::string& which, std::vector<NodeHandle>* nodes) -> bool {
    if (!need_network()) {
      return false;
    }
    if (which == "all") {
      *nodes = fleet_->Handles();
      return true;
    }
    if (!fleet_->HasNode(which)) {
      if (impl_->remote_nodes.count(which) > 0) {
        return true;
      }
      *error = "unknown node: " + which;
      return false;
    }
    nodes->push_back(fleet_->Handle(which));
    return true;
  };
  // A node name valid somewhere in the deployment (local or remote).
  auto known_node = [&](const std::string& addr) -> bool {
    return (fleet_ != nullptr && fleet_->HasNode(addr)) ||
           impl_->remote_nodes.count(addr) > 0;
  };

  if (cmd == "net") {
    if (fleet_ != nullptr) {
      *error = "net must precede the first node";
      return false;
    }
    for (size_t i = 1; i < words.size(); ++i) {
      std::string k;
      std::string v;
      if (!SplitKv(words[i], &k, &v)) {
        *error = "expected k=v: " + words[i];
        return false;
      }
      if (k == "latency") {
        if (!ParseDurationArg(v, "latency", &impl_->fleet_config.latency, error)) {
          return false;
        }
      } else if (k == "jitter") {
        if (!ParseDurationArg(v, "jitter", &impl_->fleet_config.jitter, error)) {
          return false;
        }
      } else if (k == "loss") {
        if (!ParseRateArg(v, "loss", &impl_->fleet_config.loss_rate, error)) {
          return false;
        }
      } else if (k == "seed") {
        if (!ParseU64Arg(v, "seed", &impl_->fleet_config.seed, error)) {
          return false;
        }
      } else if (k == "shards") {
        uint64_t shards = 0;
        if (!ParseU64Arg(v, "shards", &shards, error)) {
          return false;
        }
        if (shards < 1 || shards > 64) {
          *error = "shards must be in [1,64]: " + v;
          return false;
        }
        impl_->fleet_config.shards = static_cast<int>(shards);
      } else if (k == "backend") {
        if (v == "sim") {
          impl_->fleet_config.backend = FleetBackend::kSim;
        } else if (v == "udp") {
          impl_->fleet_config.backend = FleetBackend::kUdp;
        } else {
          *error = "backend must be sim|udp: " + v;
          return false;
        }
      } else if (k == "mtu") {
        // Datagram payload budget for batched envelope frames (udp backend).
        uint64_t mtu = 0;
        if (!ParseU64Arg(v, "mtu", &mtu, error)) {
          return false;
        }
        if (mtu < 512 || mtu > 65507) {
          *error = "mtu must be in [512,65507]: " + v;
          return false;
        }
        impl_->fleet_config.udp_max_datagram = static_cast<size_t>(mtu);
      } else {
        *error = "unknown net option: " + k;
        return false;
      }
    }
    return true;
  }

  if (cmd == "metrics") {
    if (words.size() != 2) {
      *error = "metrics <path>";
      return false;
    }
    return SetMetricsOut(words[1], error);
  }

  if (cmd == "node") {
    if (words.size() < 2) {
      *error = "node <addr> [trace] [seed=N]";
      return false;
    }
    // Partitioned execution: the k-th node directive belongs to process
    // k % procs. Remote nodes are recorded (so later directives naming them are
    // skipped, not rejected) and nothing is created locally.
    int ordinal = impl_->node_ordinal++;
    if (impl_->proc_count > 1 && ordinal % impl_->proc_count != impl_->proc_index) {
      impl_->remote_nodes.insert(words[1]);
      return true;
    }
    if (fleet_ == nullptr) {
      if (impl_->fleet_config.shards > 1 &&
          impl_->fleet_config.backend == FleetBackend::kUdp) {
        *error = "net shards>1 is not supported with backend=udp "
                 "(the driver pumps one scheduler against the wall clock)";
        return false;
      }
      if (impl_->fleet_config.shards > 1 && impl_->fleet_config.latency <= 0) {
        *error = "net shards>1 requires latency>0 (the shard lookahead)";
        return false;
      }
      fleet_ = std::make_unique<Fleet>(impl_->fleet_config);
      if (!impl_->pending_metrics_path.empty()) {
        std::string pending = impl_->pending_metrics_path;
        impl_->pending_metrics_path.clear();
        if (!SetMetricsOut(pending, error)) {
          return false;
        }
      }
    }
    NodeOptions opts;
    bool explicit_seed = false;
    uint64_t node_seed = 0;
    for (size_t i = 2; i < words.size(); ++i) {
      std::string k;
      std::string v;
      if (words[i] == "trace") {
        opts.tracing = true;
      } else if (SplitKv(words[i], &k, &v) && k == "seed") {
        if (!ParseU64Arg(v, "seed", &node_seed, error)) {
          return false;
        }
        explicit_seed = true;
      } else if (k == "indexes") {
        // Ablation switches, mirroring NodeOptions (simfuzz differential mode).
        if (!ParseOnOff(v, "indexes", &opts.use_join_indexes, error)) {
          return false;
        }
      } else if (k == "metrics") {
        if (!ParseOnOff(v, "metrics", &opts.metrics, error)) {
          return false;
        }
      } else if (k == "reliable") {
        if (!ParseOnOff(v, "reliable", &opts.reliable_transport, error)) {
          return false;
        }
      } else if (k == "arenas") {
        // Engine hot-path toggles (docs/SCALING.md): pure mechanical ablations,
        // digests must not depend on them.
        if (!ParseOnOff(v, "arenas", &opts.tuple_arenas, error)) {
          return false;
        }
      } else if (k == "batch") {
        if (!ParseOnOff(v, "batch", &opts.batch_deltas, error)) {
          return false;
        }
      } else if (k == "zerocopy") {
        if (!ParseOnOff(v, "zerocopy", &opts.zero_copy_decode, error)) {
          return false;
        }
      } else {
        *error = "unknown node option: " + words[i];
        return false;
      }
    }
    if (impl_->pending_forensics.enabled) {
      opts.forensics = impl_->pending_forensics;
    }
    if (impl_->pending_limits.set) {
      const Impl::PendingLimits& lim = impl_->pending_limits;
      opts.queue_cap = lim.queue;
      opts.low_queue_cap = lim.low;
      opts.rel_window = lim.window;
      opts.rel_backlog = lim.backlog;
      if (lim.reorder_set) {
        opts.rel_reorder_cap = lim.reorder;
      }
      opts.degrade_hi = lim.degrade;
      opts.degrade_lo = lim.degrade_lo;
      if (lim.stretch > 0) {
        opts.degrade_stretch = lim.stretch;
      }
    }
    if (explicit_seed) {
      fleet_->AddNodeWithSeed(words[1], opts, node_seed);
    } else {
      fleet_->AddNode(words[1], opts);
    }
    return true;
  }

  if (cmd == "chord") {
    if (words.size() < 2) {
      *error = "chord <addr|all> [landmark=<addr>] [stabilize=X] [ping=X] "
               "[finger=X] [timeout=X] [rejoin=X]";
      return false;
    }
    std::vector<NodeHandle> nodes;
    if (!resolve(words[1], &nodes)) {
      return false;
    }
    std::string landmark;
    ChordConfig base_cfg;
    for (size_t i = 2; i < words.size(); ++i) {
      std::string k;
      std::string v;
      if (!SplitKv(words[i], &k, &v)) {
        *error = "unknown chord option: " + words[i];
        return false;
      }
      if (k == "landmark") {
        landmark = v;
      } else if (k == "stabilize") {
        if (!ParseDurationArg(v, "stabilize", &base_cfg.stabilize_period, error)) {
          return false;
        }
      } else if (k == "ping") {
        if (!ParseDurationArg(v, "ping", &base_cfg.ping_period, error)) {
          return false;
        }
      } else if (k == "finger") {
        if (!ParseDurationArg(v, "finger", &base_cfg.finger_period, error)) {
          return false;
        }
      } else if (k == "timeout") {
        if (!ParseDurationArg(v, "timeout", &base_cfg.ping_timeout, error)) {
          return false;
        }
      } else if (k == "rejoin") {
        if (!ParseDurationArg(v, "rejoin", &base_cfg.rejoin_check_period, error)) {
          return false;
        }
      } else {
        *error = "unknown chord option: " + words[i];
        return false;
      }
    }
    if (impl_->proc_count > 1) {
      // A per-process default landmark would bootstrap a different ring in every
      // process; multi-process profiles must name one node explicitly.
      if (landmark.empty()) {
        *error = "chord needs an explicit landmark= under multi-process execution";
        return false;
      }
      if (!known_node(landmark)) {
        *error = "unknown node: " + landmark;
        return false;
      }
    }
    for (NodeHandle& node : nodes) {
      ChordConfig cfg = base_cfg;
      cfg.landmark = (node.addr() == landmark) ? std::string() : landmark;
      if (landmark.empty() && node.addr() != nodes.front().addr()) {
        cfg.landmark = nodes.front().addr();
      }
      if (!node.Install(
              [&cfg](Node* n, std::string* e) { return InstallChord(n, cfg, e); },
              error)) {
        return false;
      }
    }
    return true;
  }

  if (cmd == "dht" || cmd == "flood") {
    if (words.size() != 2) {
      *error = cmd + " <addr|all>";
      return false;
    }
    std::vector<NodeHandle> nodes;
    if (!resolve(words[1], &nodes)) {
      return false;
    }
    for (NodeHandle& node : nodes) {
      bool ok = node.Install(
          [&cmd](Node* n, std::string* e) {
            return cmd == "dht" ? InstallDht(n, DhtConfig(), e)
                                : InstallFlood(n, FloodConfig(), e);
          },
          error);
      if (!ok) {
        return false;
      }
    }
    return true;
  }

  if (cmd == "put" || cmd == "get") {
    std::vector<NodeHandle> nodes;
    size_t want_args = cmd == "put" ? 5u : 4u;
    if (words.size() != want_args || !resolve(words[1], &nodes)) {
      if (error->empty()) {
        *error = cmd == "put" ? "put <addr> <key> <value> <reqid>"
                              : "get <addr> <key> <reqid>";
      }
      return false;
    }
    uint64_t req = 0;
    if (!ParseU64Arg(words.back(), "reqid", &req, error)) {
      return false;
    }
    if (nodes.empty()) {  // remote node: another process runs this line
      return true;
    }
    nodes[0].Call([&](Node* n) {
      if (cmd == "put") {
        DhtPut(n, words[2], words[3], req);
      } else {
        DhtGet(n, words[2], req);
      }
    });
    return true;
  }

  if (cmd == "member") {
    std::vector<NodeHandle> nodes;
    if (words.size() != 3 || !resolve(words[1], &nodes)) {
      if (error->empty()) {
        *error = "member <addr> <peer>";
      }
      return false;
    }
    if (nodes.empty()) {
      return true;
    }
    nodes[0].Call([&](Node* n) { AddMember(n, words[2]); });
    return true;
  }

  if (cmd == "publish") {
    std::vector<NodeHandle> nodes;
    if (words.size() != 4 || !resolve(words[1], &nodes)) {
      if (error->empty()) {
        *error = "publish <addr> <rumor-id> <payload>";
      }
      return false;
    }
    uint64_t rumor = 0;
    if (!ParseU64Arg(words[2], "rumor-id", &rumor, error)) {
      return false;
    }
    if (nodes.empty()) {
      return true;
    }
    nodes[0].Call([&](Node* n) { PublishRumor(n, rumor, words[3]); });
    return true;
  }

  if (cmd == "program" || cmd == "inline") {
    if (words.size() < 3) {
      *error = cmd + " <addr|all> <file or text> ...";
      return false;
    }
    std::vector<NodeHandle> nodes;
    if (!resolve(words[1], &nodes)) {
      return false;
    }
    std::string source;
    ParamMap params;
    if (cmd == "program") {
      std::ifstream f(words[2]);
      if (!f) {
        *error = "cannot open " + words[2];
        return false;
      }
      std::stringstream ss;
      ss << f.rdbuf();
      source = ss.str();
      for (size_t i = 3; i < words.size(); ++i) {
        std::string k;
        std::string v;
        if (!SplitKv(words[i], &k, &v)) {
          *error = "expected k=v param: " + words[i];
          return false;
        }
        Value value;
        if (!ParseLiteralValue(v, &value, error)) {
          return false;
        }
        params[k] = value;
      }
    } else {
      // Re-join everything after the node selector as OverLog text.
      size_t pos = raw.find(words[1]);
      source = raw.substr(pos + words[1].size());
    }
    for (NodeHandle& node : nodes) {
      if (!node.Load(source, params, error)) {
        return false;
      }
    }
    return true;
  }

  if (cmd == "inject") {
    size_t arg = 1;
    double at = 0;
    bool have_at = false;
    std::string k;
    std::string v;
    if (arg < words.size() && SplitKv(words[arg], &k, &v) && k == "t") {
      if (!ParseDoubleArg(v, "t", &at, error)) {
        return false;
      }
      have_at = true;
      ++arg;
    }
    if (arg + 1 >= words.size()) {
      *error = "inject [t=<secs>] <addr> <tuple literal>";
      return false;
    }
    std::vector<NodeHandle> nodes;
    if (!resolve(words[arg], &nodes)) {
      return false;
    }
    if (have_at && at < fleet_->Now()) {
      // The scheduler would clamp a past time to "now", silently reordering the
      // scenario; reject instead.
      *error = StrFormat("t=%g is in the past (virtual time is %g)", at,
                         fleet_->Now());
      return false;
    }
    TupleRef tuple;
    if (!ParseTupleLiteral(words[arg + 1], &tuple, error)) {
      return false;
    }
    for (NodeHandle& node : nodes) {
      if (!have_at) {
        node.Inject(tuple);
      } else {
        // Posted onto the node's own scheduler, so timed injections stay correct
        // under the parallel runtime.
        node.InjectAt(at, tuple);
      }
    }
    return true;
  }

  if (cmd == "run") {
    if (words.size() != 2 || !need_network()) {
      if (*error == "") {
        *error = "run <secs>";
      }
      return false;
    }
    double secs = 0;
    if (!ParseDurationArg(words[1], "run", &secs, error)) {
      return false;
    }
    // Multi-process runs exchange the address map once, before any wall-clock
    // pumping: every local node exists by the first `run`, and no tuple has
    // needed a remote socket address yet.
    if (impl_->have_rendezvous && !impl_->rendezvous_done) {
      UdpDriver* driver = fleet_->udp();
      if (driver == nullptr) {
        *error = "rendezvous requires backend=udp";
        return false;
      }
      std::map<std::string, std::string> full;
      if (!RendezvousExchange(impl_->rendezvous, driver->LocalMap(), &full, error)) {
        return false;
      }
      for (const auto& [name, addr] : full) {
        fleet_->RegisterPeer(name, addr);
      }
      impl_->rendezvous_done = true;
    }
    fleet_->RunFor(secs);
    return true;
  }

  if (cmd == "crash" || cmd == "revive" || cmd == "recover") {
    std::vector<NodeHandle> nodes;
    double at = -1;
    if (words.size() < 2 || words.size() > 3 || !resolve(words[1], &nodes)) {
      if (error->empty()) {
        *error = cmd + " <addr|all> [at=<secs>]";
      }
      return false;
    }
    if (words.size() == 3) {
      std::string k;
      std::string v;
      if (!SplitKv(words[2], &k, &v) || k != "at") {
        *error = cmd + " <addr|all> [at=<secs>]";
        return false;
      }
      if (!ParseDoubleArg(v, "at", &at, error)) {
        return false;
      }
      if (at < fleet_->Now()) {
        *error = StrFormat("at=%g is in the past (virtual time is %g)", at,
                           fleet_->Now());
        return false;
      }
    }
    for (NodeHandle& node : nodes) {
      // The *At variants post onto each node's own scheduler.
      if (cmd == "crash") {
        at < 0 ? node.Crash() : node.CrashAt(at);
      } else if (cmd == "revive") {
        at < 0 ? node.Revive() : node.ReviveAt(at);
      } else {
        at < 0 ? node.Recover() : node.RecoverAt(at);
      }
    }
    return true;
  }

  if (cmd == "linkfault" || cmd == "partition" || cmd == "heal") {
    // The simulated fault pipeline does not exist over real sockets; the udp
    // backend injects loss through UdpDriver::SetEgressLossRate instead
    // (docs/DEPLOYMENT.md).
    if (fleet_ != nullptr && fleet_->udp() != nullptr) {
      *error = cmd + " is not supported with backend=udp";
      return false;
    }
  }

  if (cmd == "linkfault") {
    // linkfault <src> <dst> [loss=X] [dup=X] [reorder=X] [latency=X] — no k=v
    // options clears the link's fault spec.
    if (words.size() < 3 || !need_network()) {
      if (error->empty()) {
        *error = "linkfault <src> <dst> [loss=X] [dup=X] [reorder=X] [latency=X]";
      }
      return false;
    }
    Network::LinkFault fault;
    bool any = false;
    for (size_t i = 3; i < words.size(); ++i) {
      std::string k;
      std::string v;
      if (!SplitKv(words[i], &k, &v)) {
        *error = "expected k=v: " + words[i];
        return false;
      }
      if (k == "loss") {
        if (!ParseRateArg(v, "loss", &fault.loss, error)) {
          return false;
        }
      } else if (k == "dup") {
        if (!ParseRateArg(v, "dup", &fault.dup_rate, error)) {
          return false;
        }
      } else if (k == "reorder") {
        if (!ParseRateArg(v, "reorder", &fault.reorder_rate, error)) {
          return false;
        }
      } else if (k == "latency") {
        if (!ParseDurationArg(v, "latency", &fault.extra_latency, error)) {
          return false;
        }
      } else {
        *error = "unknown linkfault option: " + k;
        return false;
      }
      any = true;
    }
    for (int i = 1; i <= 2; ++i) {
      if (!fleet_->HasNode(words[i])) {
        *error = "unknown node: " + words[i];
        return false;
      }
    }
    if (any) {
      fleet_->SetLinkFault(words[1], words[2], fault);
    } else {
      fleet_->ClearLinkFault(words[1], words[2]);
    }
    return true;
  }

  if (cmd == "partition") {
    // partition <a,b,c> <d,e,f>: cuts every link between the two groups.
    if (words.size() != 3 || !need_network()) {
      if (error->empty()) {
        *error = "partition <a,b,...> <c,d,...>";
      }
      return false;
    }
    std::vector<std::string> group_a = Split(words[1], ',');
    std::vector<std::string> group_b = Split(words[2], ',');
    for (const std::vector<std::string>* group : {&group_a, &group_b}) {
      for (const std::string& addr : *group) {
        if (!fleet_->HasNode(addr)) {
          *error = "unknown node: " + addr;
          return false;
        }
      }
    }
    fleet_->Partition(group_a, group_b);
    return true;
  }

  if (cmd == "heal") {
    if (words.size() != 1 || !need_network()) {
      if (error->empty()) {
        *error = "heal";
      }
      return false;
    }
    fleet_->Heal();
    return true;
  }

  if (cmd == "watchprint") {
    std::vector<NodeHandle> nodes;
    if (words.size() != 2 || !resolve(words[1], &nodes)) {
      return false;
    }
    for (NodeHandle& node : nodes) {
      Impl* impl = impl_.get();
      std::string addr = node.addr();
      node.WatchSink([impl, addr](double t, const TupleRef& tuple) {
        impl->Print(StrFormat("[%9.3f] %s: %s\n", t, addr.c_str(),
                              tuple->ToString().c_str()));
      });
    }
    return true;
  }

  if (cmd == "dump") {
    std::vector<NodeHandle> nodes;
    if (words.size() != 3 || !resolve(words[1], &nodes)) {
      if (*error == "") {
        *error = "dump <addr|all> <table>";
      }
      return false;
    }
    for (NodeHandle& node : nodes) {
      std::vector<TupleRef> rows = node.Query(words[2]);
      impl_->Print(StrFormat("-- %s %s (%zu rows) --\n", node.addr().c_str(),
                             words[2].c_str(), rows.size()));
      for (const TupleRef& t : rows) {
        impl_->Print("  " + t->ToString() + "\n");
      }
    }
    return true;
  }

  if (cmd == "stats") {
    std::vector<NodeHandle> nodes;
    if (words.size() != 2 || !resolve(words[1], &nodes)) {
      return false;
    }
    for (NodeHandle& node : nodes) {
      const NodeStats& s = node.Stats();
      impl_->Print(StrFormat(
          "%s: sent=%llu recv=%llu triggers=%llu emitted=%llu dead=%llu busy=%.3fms\n",
          node.addr().c_str(), static_cast<unsigned long long>(s.msgs_sent),
          static_cast<unsigned long long>(s.msgs_received),
          static_cast<unsigned long long>(s.strand_triggers),
          static_cast<unsigned long long>(s.tuples_emitted),
          static_cast<unsigned long long>(s.dead_letters),
          static_cast<double>(s.busy_ns) / 1e6));
    }
    return true;
  }

  if (cmd == "expect") {
    std::vector<NodeHandle> nodes;
    if (words.size() != 4 || !resolve(words[1], &nodes)) {
      if (*error == "") {
        *error = "expect <addr> <table> <count>";
      }
      return false;
    }
    uint64_t want64 = 0;
    if (!ParseU64Arg(words[3], "count", &want64, error)) {
      return false;
    }
    if (nodes.empty()) {  // remote node: its own process checks this expectation
      return true;
    }
    size_t want = static_cast<size_t>(want64);
    size_t got = nodes[0].Count(words[2]);
    if (got != want) {
      *error = StrFormat("expect failed: %s.%s has %zu rows, wanted %zu",
                         words[1].c_str(), words[2].c_str(), got, want);
      return false;
    }
    ++expectations_passed_;
    return true;
  }

  if (cmd == "forensics") {
    // Two forms (docs/OBSERVABILITY.md):
    //   forensics budget=<bytes> [records=<n>] [span=<secs>] [age=<secs>]
    //     — enables bounded trace retention (implies trace) on every node created
    //       after this line.
    //   forensics query <addr|all> <key> from=<t1> to=<t2> [out=<path>] [min=<n>]
    //     — time-travel query: replays causal chains for tuples matching <key>
    //       ("*", "name", or "name/firstarg") in [t1, t2]; `out` writes a JSONL
    //       chain export, `min` fails the script unless at least <n> chains came
    //       back (counts as a passed expectation otherwise).
    if (words.size() >= 2 && words[1] == "query") {
      std::vector<NodeHandle> nodes;
      if (words.size() < 6 || !resolve(words[2], &nodes)) {
        if (error->empty()) {
          *error = "forensics query <addr|all> <key> from=<t1> to=<t2> [out=<path>] "
                   "[min=<n>]";
        }
        return false;
      }
      const std::string& key = words[3];
      double t1 = 0;
      double t2 = 0;
      bool have_from = false;
      bool have_to = false;
      std::string out_path;
      bool have_min = false;
      uint64_t min_chains = 0;
      for (size_t i = 4; i < words.size(); ++i) {
        std::string k;
        std::string v;
        if (!SplitKv(words[i], &k, &v)) {
          *error = "expected k=v: " + words[i];
          return false;
        }
        if (k == "from") {
          if (!ParseDoubleArg(v, "from", &t1, error)) {
            return false;
          }
          have_from = true;
        } else if (k == "to") {
          if (!ParseDoubleArg(v, "to", &t2, error)) {
            return false;
          }
          have_to = true;
        } else if (k == "out") {
          out_path = v;
        } else if (k == "min") {
          if (!ParseU64Arg(v, "min", &min_chains, error)) {
            return false;
          }
          have_min = true;
        } else {
          *error = "unknown forensics query option: " + k;
          return false;
        }
      }
      if (!have_from || !have_to || t2 < t1) {
        *error = "forensics query needs from=<t1> to=<t2> with t1 <= t2";
        return false;
      }
      std::string jsonl;
      size_t total = 0;
      for (NodeHandle& node : nodes) {
        std::vector<CausalChain> chains = fleet_->ReplayChains(node.addr(), key, t1, t2);
        total += chains.size();
        impl_->Print(StrFormat("forensics: %s %zu chains for %s in [%g, %g]\n",
                               node.addr().c_str(), chains.size(), key.c_str(), t1,
                               t2));
        if (!out_path.empty()) {
          jsonl += ExportChainsJsonl(chains);
        }
      }
      if (!out_path.empty()) {
        std::ofstream f(out_path, std::ios::out | std::ios::trunc);
        if (!f) {
          *error = "cannot open forensics output file: " + out_path;
          return false;
        }
        f << jsonl;
      }
      if (have_min) {
        if (total < min_chains) {
          *error = StrFormat("forensics query returned %zu chains, wanted >= %llu",
                             total, static_cast<unsigned long long>(min_chains));
          return false;
        }
        ++expectations_passed_;
      }
      return true;
    }
    ForensicsOptions fo;
    fo.enabled = true;
    for (size_t i = 1; i < words.size(); ++i) {
      std::string k;
      std::string v;
      if (!SplitKv(words[i], &k, &v)) {
        *error = "expected k=v: " + words[i];
        return false;
      }
      if (k == "budget") {
        uint64_t bytes = 0;
        if (!ParseU64Arg(v, "budget", &bytes, error)) {
          return false;
        }
        fo.budget_bytes = static_cast<size_t>(bytes);
      } else if (k == "records") {
        uint64_t records = 0;
        if (!ParseU64Arg(v, "records", &records, error)) {
          return false;
        }
        if (records == 0) {
          *error = "records must be >= 1";
          return false;
        }
        fo.segment_records = static_cast<size_t>(records);
      } else if (k == "span") {
        if (!ParseDurationArg(v, "span", &fo.segment_span, error)) {
          return false;
        }
      } else if (k == "age") {
        if (!ParseDurationArg(v, "age", &fo.max_age, error)) {
          return false;
        }
      } else {
        *error = "unknown forensics option: " + k;
        return false;
      }
    }
    impl_->pending_forensics = fo;
    return true;
  }

  if (cmd == "limits") {
    // limits [queue=<n>] [low=<n>] [window=<n>] [backlog=<n>] [reorder=<n>]
    //        [degrade=<n>] [lo=<n>] [stretch=<x>]
    // — overload-resilience budgets (docs/ROBUSTNESS.md), applied to every node
    // created after this line. queue/low cap the admission queues (best-effort
    // class sheds first), window/backlog bound the reliable sender per channel,
    // reorder bounds the receiver holdback, degrade arms the watchdog (lo and
    // stretch tune its hysteresis exit threshold and degraded-mode slowdown).
    if (words.size() < 2) {
      *error = "limits [queue=<n>] [low=<n>] [window=<n>] [backlog=<n>] "
               "[reorder=<n>] [degrade=<n>] [lo=<n>] [stretch=<x>]";
      return false;
    }
    Impl::PendingLimits lim;
    for (size_t i = 1; i < words.size(); ++i) {
      std::string k;
      std::string v;
      if (!SplitKv(words[i], &k, &v)) {
        *error = "expected k=v: " + words[i];
        return false;
      }
      if (k == "queue") {
        if (!ParseU64Arg(v, "queue", &lim.queue, error)) {
          return false;
        }
      } else if (k == "low") {
        if (!ParseU64Arg(v, "low", &lim.low, error)) {
          return false;
        }
      } else if (k == "window") {
        if (!ParseU64Arg(v, "window", &lim.window, error)) {
          return false;
        }
      } else if (k == "backlog") {
        if (!ParseU64Arg(v, "backlog", &lim.backlog, error)) {
          return false;
        }
      } else if (k == "reorder") {
        if (!ParseU64Arg(v, "reorder", &lim.reorder, error)) {
          return false;
        }
        lim.reorder_set = true;
      } else if (k == "degrade") {
        if (!ParseU64Arg(v, "degrade", &lim.degrade, error)) {
          return false;
        }
      } else if (k == "lo") {
        if (!ParseU64Arg(v, "lo", &lim.degrade_lo, error)) {
          return false;
        }
      } else if (k == "stretch") {
        if (!ParseDoubleArg(v, "stretch", &lim.stretch, error)) {
          return false;
        }
        if (lim.stretch < 1.0) {
          *error = "stretch must be >= 1";
          return false;
        }
      } else {
        *error = "unknown limits option: " + k;
        return false;
      }
    }
    lim.set = true;
    impl_->pending_limits = lim;
    return true;
  }

  if (cmd == "monitors") {
    // monitors <addr|all> [initiator=<addr>] [snap_period=X] [abort=X] [check=X]
    //          [probe=X] — installs the paper's monitoring programs (ring checks +
    // Chandy-Lamport snapshots) on the selected Chord nodes. The initiator defaults
    // to the first selected node.
    if (words.size() < 2) {
      *error = "monitors <addr|all> [initiator=<addr>] [snap_period=X] [abort=X] "
               "[check=X] [probe=X]";
      return false;
    }
    std::vector<NodeHandle> nodes;
    if (!resolve(words[1], &nodes)) {
      return false;
    }
    if (nodes.empty()) {
      return true;
    }
    std::string initiator;
    SnapshotConfig snap_cfg;
    RingCheckConfig ring_cfg;
    for (size_t i = 2; i < words.size(); ++i) {
      std::string k;
      std::string v;
      if (!SplitKv(words[i], &k, &v)) {
        *error = "expected k=v: " + words[i];
        return false;
      }
      if (k == "initiator") {
        // The initiator may be hosted by another process (fleetd --procs); only
        // local nodes get initiator=true below.
        if (!known_node(v)) {
          *error = "unknown node: " + v;
          return false;
        }
        initiator = v;
      } else if (k == "snap_period") {
        if (!ParseDurationArg(v, "snap_period", &snap_cfg.snap_period, error)) {
          return false;
        }
      } else if (k == "abort") {
        if (!ParseDurationArg(v, "abort", &snap_cfg.abort_timeout, error)) {
          return false;
        }
      } else if (k == "check") {
        if (!ParseDurationArg(v, "check", &snap_cfg.abort_check_period, error)) {
          return false;
        }
      } else if (k == "probe") {
        if (!ParseDurationArg(v, "probe", &ring_cfg.probe_period, error)) {
          return false;
        }
      } else {
        *error = "unknown monitors option: " + k;
        return false;
      }
    }
    if (initiator.empty()) {
      if (impl_->proc_count > 1) {
        // Defaulting per process would elect one initiator per process.
        *error = "monitors needs an explicit initiator= under multi-process "
                 "execution";
        return false;
      }
      initiator = nodes.front().addr();
    }
    for (NodeHandle& node : nodes) {
      if (!node.Install(
              [&ring_cfg](Node* n, std::string* e) {
                return InstallRingChecks(n, ring_cfg, e);
              },
              error)) {
        return false;
      }
      SnapshotConfig cfg = snap_cfg;
      cfg.initiator = (node.addr() == initiator);
      if (!node.Install(
              [&cfg](Node* n, std::string* e) { return InstallSnapshot(n, cfg, e); },
              error)) {
        return false;
      }
    }
    return true;
  }

  *error = "unknown command: " + cmd;
  return false;
}

bool ScenarioRunner::SetMetricsOut(const std::string& path, std::string* error) {
  if (fleet_ == nullptr) {
    impl_->pending_metrics_path = path;
    return true;
  }
  std::unique_ptr<MetricsSink> sink = OpenMetricsSink(path, error);
  if (sink == nullptr) {
    return false;
  }
  impl_->metrics_sink = std::move(sink);
  fleet_->SetMetricsSink(impl_->metrics_sink.get());
  return true;
}

bool RunScenarioFile(const std::string& path, std::string* error,
                     const std::string& metrics_out) {
  std::ifstream f(path);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  ScenarioRunner runner;
  if (!metrics_out.empty() && !runner.SetMetricsOut(metrics_out, error)) {
    return false;
  }
  return runner.RunScript(ss.str(), error);
}

}  // namespace p2
