// p2::Fleet — the embedding facade over Network/Node (docs/SCALING.md).
//
// Fleet is how host programs (examples, tools, benches, the testbed) build and drive
// a simulated deployment. It owns the Network, derives every seed from one fleet
// seed, and hands out NodeHandles whose operations are safe under the parallel
// runtime: anything that must happen at a simulation instant is *posted as an event
// onto the node's own scheduler*, and anything immediate runs host-side between Run
// calls (Run blocks until every thread has quiesced, so host code never overlaps
// the window threads).
//
// Seed derivation (the one meaning of "same seed" across olgrun, testbed, bench,
// and simfuzz):
//   net  seed = DeriveSeed(fleet_seed, "net")           -> per-link streams
//                 (link seed = DeriveSeed(net_seed, "link/<src>><dst>"), network.h)
//   node seed = DeriveSeed(fleet_seed, "node/<addr>") | 1
// Both depend only on (fleet seed, name) — never on creation order or shard count.
//
// Raw Node* access (handle.raw(), fleet.network().GetNode()) stays available but is
// single-thread/test-only: mutating a Node while RunUntil is executing is a data
// race under shards > 1. Production embedders stay on the handle API.

#ifndef SRC_NET_FLEET_H_
#define SRC_NET_FLEET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/trace/replay.h"

namespace p2 {

// Which transport carries inter-node tuples (docs/DEPLOYMENT.md):
//   kSim — the deterministic simulated Network (latency/jitter/loss, shards,
//          fault injection); virtual time advances only inside Run calls.
//   kUdp — real UDP sockets on loopback or a LAN, driven by a non-blocking
//          ppoll() loop (src/net/udp_driver.h) that pumps the virtual clock
//          against the wall clock. RunFor(dt) takes dt *wall* seconds and
//          advances virtual time by the same amount; shards are forced to 1
//          and the simulated fault pipeline is bypassed (the physical network
//          — or UdpDriver::SetEgressLossRate — supplies loss).
enum class FleetBackend { kSim, kUdp };

// The single, layered configuration for a fleet. Replaces the overlapping
// NetworkConfig::seed / TestbedConfig::seed / NodeOptions::seed knobs: set one
// `seed` here and every network, link, and node stream derives from it.
struct FleetConfig {
  uint64_t seed = 42;      // the fleet seed; everything derives from this
  int shards = 1;          // window threads (see NetworkConfig::shards)
  double latency = 0.02;   // base one-way delay, seconds (also the window lookahead)
  double jitter = 0.01;    // uniform extra delay in [0, jitter). The K>1 determinism
                           // contract (docs/SCALING.md) requires jitter > 0.
  double loss_rate = 0.0;  // per-message drop probability
  // Defaults for every node added; per-node overrides go through
  // Fleet::AddNode(addr, options). NodeOptions::seed is ignored — the fleet
  // derives it (see above) so runs replay regardless of add order.
  NodeOptions node_defaults;

  // ---- transport backend (docs/DEPLOYMENT.md) ----
  FleetBackend backend = FleetBackend::kSim;
  // kUdp only: the interface sockets bind on.
  std::string udp_host = "127.0.0.1";
  // kUdp only: 0 binds every node on an ephemeral port; N binds the i-th added
  // node on port N+i (fleetd profiles that pre-share the address map use this).
  uint16_t udp_base_port = 0;
  // kUdp only: datagram payload budget for batched envelope frames. Envelopes
  // bound for one destination coalesce until the frame would exceed this (a
  // single larger envelope still goes out alone). 1400 stays under a typical
  // ethernet MTU; loopback deployments can raise it toward 65507.
  size_t udp_max_datagram = 1400;

  // The NetworkConfig this expands to (seed already derived; shards forced to 1
  // when backend == kUdp).
  NetworkConfig ToNetworkConfig() const;
};

class Fleet;
class UdpDriver;

// A cheap, copyable reference to one node of a Fleet. Immediate methods run
// host-side and are safe between Run calls; the *At variants post the operation
// onto the node's own scheduler to fire at virtual time `t` during a later Run.
class NodeHandle {
 public:
  NodeHandle() = default;

  // False for a default-constructed handle (e.g. UdpDriver::CreateNode after a
  // bind failure); every other accessor requires a valid handle.
  bool valid() const { return node_ != nullptr; }

  const std::string& addr() const { return node_->addr(); }
  bool IsUp() const { return node_->IsUp(); }
  double Now() const;

  // ---- program installation ----
  bool Load(const std::string& source, std::string* error = nullptr);
  bool Load(const std::string& source, const ParamMap& params,
            std::string* error = nullptr);
  bool LoadLowPriority(const std::string& source, const ParamMap& params,
                       std::string* error = nullptr);
  // Posted install: compiles and installs at virtual time `t` on the node.
  // Install failures (parse/plan errors) go to `on_error` when provided; they
  // cannot be returned synchronously from a posted event.
  void LoadAt(double t, std::string source, ParamMap params = ParamMap(),
              std::function<void(const std::string&)> on_error = nullptr);

  // ---- event injection ----
  // Injection is inherently posted: the tuple is routed at the node's current
  // instant once the fleet runs.
  void Inject(const TupleRef& tuple);
  void InjectAt(double t, TupleRef tuple);

  // ---- fault lifecycle ----
  void Crash();
  void Revive();
  void Recover();
  void CrashAt(double t);
  void ReviveAt(double t);
  void RecoverAt(double t);

  // ---- observation ----
  // Contents of a materialized table at the current instant (empty if absent).
  std::vector<TupleRef> Query(const std::string& table);
  size_t Count(const std::string& table);
  // Time-travel forensics (docs/OBSERVABILITY.md): causal chains of tuples
  // matching `key` derived on this node during [t1, t2], cross-node hops stitched
  // through peer stores. Answers from the node's ForensicsStore when retention is
  // enabled (windows older than the live soft state still resolve), falling back
  // to the live ruleExec / tupleTable walk otherwise. Host-side immediate: safe
  // between Run calls only.
  std::vector<CausalChain> ReplayChains(const std::string& key, double t1, double t2);
  const NodeStats& Stats() const { return node_->stats(); }
  void OnEvent(const std::string& name, std::function<void(const TupleRef&)> fn);
  void WatchSink(std::function<void(double, const TupleRef&)> sink);
  const std::deque<Node::WatchEntry>& WatchLog() const { return node_->watch_log(); }
  void MarkReliable(const std::string& name);

  // General escape hatch: runs `fn` on this node at virtual time `t`, on the thread
  // running the node — the only safe way to touch arbitrary Node state mid-run.
  void Post(double t, std::function<void(Node&)> fn);

  // Host-side immediate application of an app installer with the conventional
  // `bool (Node*, std::string*)` signature (InstallChord, InstallDht, ...). Safe
  // between Run calls; for mid-run installation use Post.
  bool Install(const std::function<bool(Node*, std::string*)>& installer,
               std::string* error = nullptr);

  // Host-side call of an app action that only injects events (DhtPut-style):
  // injection posts onto the node's own scheduler, so this is safe between Run calls.
  void Call(const std::function<void(Node*)>& fn) { fn(node_); }

  // The raw node. Single-thread/test-only: never mutate through this while the
  // fleet is running with shards > 1.
  Node* raw() { return node_; }

 private:
  friend class Fleet;
  NodeHandle(Fleet* fleet, Node* node) : fleet_(fleet), node_(node) {}

  Fleet* fleet_ = nullptr;
  Node* node_ = nullptr;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config = FleetConfig());
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const FleetConfig& config() const { return config_; }

  // Adds a node (seed derived from the fleet seed; see file comment). Must be
  // called before Run or between Run calls, never from node callbacks.
  NodeHandle AddNode(const std::string& addr);
  NodeHandle AddNode(const std::string& addr, NodeOptions options);
  // Explicit per-node seed override (scenario `node ... seed=N`, ablation tests);
  // production embedders let the fleet derive the seed.
  NodeHandle AddNodeWithSeed(const std::string& addr, NodeOptions options,
                             uint64_t seed);

  // Handle for an existing node; dies (assert) on unknown addresses.
  NodeHandle Handle(const std::string& addr);
  // Fleet-level entry point for NodeHandle::ReplayChains (same contract).
  std::vector<CausalChain> ReplayChains(const std::string& addr, const std::string& key,
                                        double t1, double t2);
  bool HasNode(const std::string& addr) { return net_.GetNode(addr) != nullptr; }
  // All nodes in address order.
  std::vector<NodeHandle> Handles();

  // Runs the fleet. Sim backend: blocks until every node's clock reaches the
  // target, so host code before/after never overlaps the window threads. Udp backend:
  // pumps sockets and timers for the equivalent *wall* duration — virtual time
  // advances in lockstep with the wall clock (re-anchored per call; wall time
  // spent between calls never leaks into the virtual clock).
  void RunUntil(double t);
  void RunFor(double dt);
  double Now() const { return net_.Now(); }

  // ---- udp backend surface (null / no-op under kSim) ----
  // The real-socket driver: counters (datagrams, envelopes, batching ratio) and
  // fault injection (SetEgressLossRate) live there.
  UdpDriver* udp() { return driver_.get(); }
  // Maps a logical node name from another process to its bound socket address
  // ("host:port"), so tuples addressed to it leave through the gateway. Local
  // nodes self-register when added; fleetd's rendezvous exchange feeds remote
  // entries here (docs/DEPLOYMENT.md).
  void RegisterPeer(const std::string& name, const std::string& socket_addr);

  // ---- network-level fault injection (host-side, between runs) ----
  void SetLinkFault(const std::string& src, const std::string& dst,
                    Network::LinkFault fault) {
    net_.SetLinkFault(src, dst, fault);
  }
  void ClearLinkFault(const std::string& src, const std::string& dst) {
    net_.ClearLinkFault(src, dst);
  }
  void ClearLinkFaults() { net_.ClearLinkFaults(); }
  void Partition(const std::vector<std::string>& a, const std::vector<std::string>& b) {
    net_.Partition(a, b);
  }
  void Heal() { net_.Heal(); }

  // ---- telemetry ----
  void SetMetricsSink(MetricsSink* sink) { net_.SetMetricsSink(sink); }
  uint64_t total_msgs() const { return net_.total_msgs(); }
  uint64_t total_bytes() const { return net_.total_bytes(); }
  uint64_t dropped_msgs() const { return net_.dropped_msgs(); }
  std::vector<Network::ShardStats> ShardStatsSnapshot() const {
    return net_.ShardStatsSnapshot();
  }
  uint64_t SumStats(uint64_t NodeStats::* field) const { return net_.SumStats(field); }

  // The underlying network. Single-thread/test-only escape hatch, like
  // NodeHandle::raw(); fault-injection and counter reads above cover the
  // supported host-side surface.
  Network& network() { return net_; }

 private:
  // Shared tail of AddNode/AddNodeWithSeed once the seed is resolved: creates
  // the node in the simulated Network, or through the udp driver (socket bind +
  // peer self-registration) under the kUdp backend.
  NodeHandle AddSeededNode(const std::string& addr, NodeOptions options);

  FleetConfig config_;
  Network net_;
  // kUdp backend only; declared after net_ so the driver (which unhooks itself
  // from the network) is destroyed first.
  std::unique_ptr<UdpDriver> driver_;
};

}  // namespace p2

#endif  // SRC_NET_FLEET_H_
