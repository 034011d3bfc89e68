// Network: the simulated transport connecting nodes, plus the virtual clock(s).
//
// Substitution (DESIGN.md §2): the paper's testbed ran 21 processes over UDP on two
// Xeon servers. Here nodes exchange genuinely serialized messages over per-(src,dst)
// FIFO channels with configurable latency, jitter, and loss. Message and byte counters
// feed the Tx-message series of Figures 6 and 7.
//
// Parallel execution (docs/SCALING.md): with `NetworkConfig::shards == 1` every node
// shares one discrete-event scheduler — the single-threaded path, which the
// real-socket backend's event loop also pumps. With K > 1, every node has its own
// event heap and K threads (the caller of RunUntil plus K-1 pool threads) advance
// the fleet in lockstep windows of width `latency` (the conservative-PDES
// lookahead: no message can arrive sooner than the minimum link latency, so a
// node's events inside one window touch only that node's state). In each window
// the threads claim nodes from one shared cursor in node-add order, and run each
// claimed node's heap to the window end; a window ends when its work is done.
// Every send made inside a window is parked in the sending thread's outbox and
// inserted at the barrier in one canonical order — per destination by delivery
// time, then the source node's add order, then its send order — so no result
// depends on K or on which thread ran which node. Every random draw on the send
// path comes from a per-link RNG stream seeded by DeriveSeed(seed, "link/src>dst")
// and owned by the source node, so the draw sequence depends only on the order of
// sends on that link. Runs at every K > 1 agree bit for bit; the K = 1 run agrees
// with them too unless two events of one node tie exactly in time (see
// docs/SCALING.md; jitter > 0 makes that vanishingly rare).

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/lang/program_cache.h"
#include "src/net/node.h"
#include "src/net/scheduler.h"
#include "src/net/wire.h"
#include "src/trace/metrics.h"

namespace p2 {

struct NetworkConfig {
  double latency = 0.02;   // base one-way delay, seconds; also the window lookahead
  double jitter = 0.01;    // uniform extra delay in [0, jitter)
  double loss_rate = 0.0;  // per-message drop probability
  uint64_t seed = 42;      // per-link RNG streams derive from this (rng.h DeriveSeed)
  // Threads. 1 = the single-threaded path (one shared heap); K > 1 gives every
  // node its own heap and runs windows on K threads. Requires latency > 0 (the
  // lookahead); clamped to 1 otherwise.
  int shards = 1;
};

class Network {
 public:
  explicit Network(NetworkConfig config = NetworkConfig());
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Creates a node with address `addr`. With shards > 1 it gets its own event heap,
  // whose clock starts at the fleet's current instant. Addresses must be unique.
  // Must not be called while RunUntil is executing.
  Node* AddNode(const std::string& addr, NodeOptions options = NodeOptions());

  // Returns the node with address `addr`, or nullptr.
  Node* GetNode(const std::string& addr);

  // The scheduler every node shares. Single-threaded (shards == 1) use only: with
  // shards > 1 each node has its own heap — schedule through Node::own_scheduler()
  // (or the p2::Fleet facade, which posts onto it) instead.
  Scheduler& scheduler() {
    assert(shared_sched_ != nullptr && "Network::scheduler() needs shards == 1");
    return *shared_sched_;
  }
  double Now() const { return shared_sched_ != nullptr ? shared_sched_->Now() : now_; }

  const NetworkConfig& config() const { return config_; }
  int shard_count() const { return static_cast<int>(workers_.size()); }

  // Serializes `env` and schedules its delivery to `dst` (FIFO per channel, subject to
  // latency/jitter/loss). Returns the encoded size in bytes (counted whether or not the
  // message is subsequently dropped — the sender pays for the transmission). `src`
  // must be a node of this network; during a run this is called only from `src`'s
  // own event handlers, on the thread running it.
  size_t SendReturningSize(const std::string& src, const std::string& dst,
                           const WireEnvelope& env);

  // Runs the simulation until virtual time `t`. With shards > 1 this drives the
  // windowed parallel protocol; it blocks until every node's clock reaches `t`, so
  // callers never observe partially advanced state.
  void RunUntil(double t);
  void RunFor(double dt) { RunUntil(Now() + dt); }
  // Runs the next event of the shared scheduler. Single-threaded use only (engine
  // unit tests).
  bool Step() { return scheduler().Step(); }

  // Fleet-wide counters (summed across nodes; call between runs).
  uint64_t total_msgs() const;
  uint64_t total_bytes() const;
  uint64_t dropped_msgs() const;
  uint64_t duplicated_msgs() const;
  uint64_t reordered_msgs() const;

  // ---- link-level fault injection ----
  //
  // Faults compose with the global loss_rate: a message first survives the global
  // coin, then a partition check, then its link's fault spec. All randomness draws
  // from the link's own seeded RNG stream, so a given seed + fault schedule replays
  // bit-identically at any shard count. Fault specs and partitions are host-side
  // configuration: install them between runs, not from node callbacks.
  struct LinkFault {
    double loss = 0;           // per-message drop probability on this link
    double dup_rate = 0;       // probability a delivered message arrives twice
    double reorder_rate = 0;   // probability a message may overtake earlier ones
    double extra_latency = 0;  // added one-way delay, seconds
  };

  // Installs (or replaces) the fault spec for the directed link src -> dst.
  void SetLinkFault(const std::string& src, const std::string& dst, LinkFault fault);
  // Removes the fault spec for src -> dst (no-op if none).
  void ClearLinkFault(const std::string& src, const std::string& dst);
  // Removes every per-link fault spec.
  void ClearLinkFaults() { link_faults_.clear(); }

  // Cuts every link between a node of `group_a` and a node of `group_b`, both
  // directions: messages across the cut are dropped (and counted dropped). Repeated
  // calls accumulate cuts; Heal() removes them all.
  void Partition(const std::vector<std::string>& group_a,
                 const std::vector<std::string>& group_b);
  void Heal() { partitioned_.clear(); }
  bool IsPartitioned(const std::string& src, const std::string& dst) const {
    return partitioned_.count(std::make_pair(src, dst)) > 0;
  }

  // Per-(src,dst) channel traffic. `msgs`/`bytes` count every transmission attempt
  // (the sender pays whether or not the message is later dropped); `delivered_*`
  // count messages actually scheduled for receipt.
  struct ChannelTraffic {
    std::string src;
    std::string dst;
    uint64_t msgs = 0;
    uint64_t bytes = 0;
    uint64_t delivered_msgs = 0;
    uint64_t delivered_bytes = 0;
  };
  std::vector<ChannelTraffic> ChannelsSnapshot() const;

  // Per-thread runtime statistics (docs/SCALING.md), one entry per thread; entry 0
  // is the thread calling RunUntil. Call between runs.
  struct ShardStats {
    int index = 0;
    uint64_t events = 0;            // events this thread executed
    uint64_t heap_hwm = 0;          // largest event heap's high-water mark (fleet-wide)
    uint64_t busy_ns = 0;           // wall-clock time this thread spent inside windows
    uint64_t sent_cross_shard = 0;  // messages it parked for a window barrier
  };
  std::vector<ShardStats> ShardStatsSnapshot() const;
  // Synchronization windows completed (0 while single-threaded).
  uint64_t windows() const { return windows_; }
  // Modeled parallel wall-clock: sum over windows of the busiest thread's time in
  // that window. On a machine with >= K free cores this is what RunUntil costs
  // minus the barriers.
  uint64_t critical_path_ns() const { return critical_path_ns_; }

  // Structured telemetry export: when set, every node writes one MetricsSnapshot to
  // `sink` per soft-state sweep. Non-owning; the sink must outlive the network. With
  // shards > 1 snapshots are buffered per thread and flushed at window barriers in
  // deterministic (time, node) order, so the sink itself needs no locking.
  void SetMetricsSink(MetricsSink* sink) { metrics_sink_ = sink; }
  MetricsSink* metrics_sink() const { return metrics_sink_; }

  // Called by Node::Sweep before its introspection refresh: publishes the node's own
  // heap counters as shard_* gauges on its registry (no-op while single-threaded,
  // keeping the historical sysStat row set).
  void PublishShardGauges(Node* node);

  // Called by Node::Sweep: routes the node's MetricsSnapshot to the sink, buffering
  // per thread under parallel execution.
  void WriteNodeMetrics(Node* node);

  // Sum of a statistic across nodes.
  uint64_t SumStats(uint64_t NodeStats::* field) const;

  // External gateway: when set, messages addressed to nodes NOT in this Network are
  // handed (destination address, serialized bytes) to this callback instead of being
  // dropped. Real-time drivers (src/net/udp_driver.h) use it to put tuples on actual
  // sockets. Single-threaded use only.
  using ExternalSender =
      std::function<void(const std::string& dst, const std::string& bytes)>;
  void SetExternalSender(ExternalSender sender) { external_sender_ = std::move(sender); }

  // External-only routing: when true, EVERY message whose destination is not the
  // sending node itself goes through the external sender, including messages
  // between nodes of this same Network — real-socket backends set this so a
  // single-process deployment still puts its traffic on actual sockets (self
  // deliveries never reach the Network; Node::RouteTuple short-circuits them).
  // The simulated latency/jitter/loss/fault pipeline is bypassed. Single-threaded
  // use only, like SetExternalSender.
  void SetExternalOnly(bool on) { external_only_ = on; }
  bool external_only() const { return external_only_; }

  // All nodes in address order.
  std::vector<Node*> AllNodes();

  // The fleet's parsed programs (src/lang/program_cache.h): Node::LoadProgram takes
  // its Program from here, so the nodes of this network share one parse of each
  // (source, params). Per network, not per process, so separate fleets in one
  // process each parse for themselves.
  ProgramCache& program_cache() { return program_cache_; }

 private:
  // Per-(src, dst) channel state: the link's private RNG stream, FIFO enforcement
  // (last scheduled delivery time), and traffic counters. Owned by the *source*
  // node — sends on a link always execute on the thread running that node.
  struct ChannelState {
    explicit ChannelState(uint64_t link_seed) : rng(link_seed) {}
    Rng rng;
    double last_delivery = -std::numeric_limits<double>::infinity();
    uint64_t msgs = 0;
    uint64_t bytes = 0;
    uint64_t delivered_msgs = 0;
    uint64_t delivered_bytes = 0;
  };

  // A delivery made inside a window (shards > 1), parked until the barrier. Its
  // first four fields, in order, are its canonical merge order.
  struct ParkedMsg {
    size_t dst = 0;          // destination's add index
    double deliver_at = 0;
    size_t src = 0;          // source's add index
    uint64_t src_seq = 0;    // source's send sequence
    std::string bytes;
  };

  // Per-thread window state; entry 0 is the coordinator (the thread calling
  // RunUntil), entries 1..K-1 the pool threads. Only its own thread writes it
  // inside a window.
  struct alignas(64) Worker {
    std::vector<ParkedMsg> outbox;
    std::vector<MetricsSnapshot> metrics_buf;
    uint64_t events = 0;
    uint64_t busy_ns = 0;
    uint64_t window_busy_ns = 0;  // last window only (critical-path accounting)
    uint64_t parked = 0;
  };

  // Everything the network keeps per node. Only the thread running the node writes
  // it inside a window, so nothing here is shared between threads.
  struct alignas(64) NodeSlot {
    std::unique_ptr<Node> node;
    std::unique_ptr<Scheduler> sched;  // its own heap (shards > 1), else null
    size_t add_index = 0;
    uint64_t send_seq = 0;             // parked sends so far
    std::map<std::string, ChannelState> channels;  // by destination
    Worker* runner = nullptr;  // the thread that last ran it (receives its parks)
    uint64_t total_msgs = 0;
    uint64_t total_bytes = 0;
    uint64_t dropped_msgs = 0;
    uint64_t duplicated_msgs = 0;
    uint64_t reordered_msgs = 0;
    uint64_t parked = 0;   // shard_xmsgs gauge
    uint64_t busy_ns = 0;  // wall-clock time running its heap (shard_busy_ms gauge)
  };

  NodeSlot* FindSlot(const std::string& addr) const;
  ChannelState& ChannelFor(NodeSlot& from, const std::string& dst);
  void Deliver(NodeSlot& from, NodeSlot& to, double deliver_at, std::string bytes);
  uint64_t SumSlots(uint64_t NodeSlot::* field) const;

  // ---- windowed parallel runtime (shards > 1) ----
  void RunUntilParallel(double t);
  void RunClaims(Worker& worker);  // claim and run nodes up to window_end_
  void ExchangeWindow();           // barrier step: merge parked sends, flush metrics
  void FlushMetricsBuffers();
  void EnsureThreads();
  void WorkerLoop(size_t index);

  NetworkConfig config_;
  ProgramCache program_cache_;
  std::unique_ptr<Scheduler> shared_sched_;  // shards == 1 only
  double now_ = 0;                           // fleet clock (shards > 1)
  std::map<std::string, std::unique_ptr<NodeSlot>> nodes_;
  std::vector<NodeSlot*> slots_;  // add order: the claim order and merge tie-break
  std::vector<std::unique_ptr<Worker>> workers_;
  std::map<std::pair<std::string, std::string>, LinkFault> link_faults_;
  std::set<std::pair<std::string, std::string>> partitioned_;
  uint64_t windows_ = 0;
  uint64_t critical_path_ns_ = 0;
  ExternalSender external_sender_;
  bool external_only_ = false;
  MetricsSink* metrics_sink_ = nullptr;

  // Thread pool: workers 1..K-1 each get a thread, parked on `pool_cv_` between
  // RunUntil sessions and synchronized by an epoch-counter barrier within one
  // (bounded spin, then yield — see network.cc). Worker 0 runs on the calling thread.
  std::vector<std::thread> threads_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  bool shutdown_ = false;
  std::atomic<bool> session_active_{false};
  std::atomic<uint64_t> window_epoch_{0};
  std::atomic<size_t> window_done_{0};
  std::atomic<size_t> next_claim_{0};  // index into slots_ of the next node to run
  double window_end_ = 0;  // written by coordinator before each epoch bump
};

}  // namespace p2

#endif  // SRC_NET_NETWORK_H_
