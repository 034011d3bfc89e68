#include "src/net/network.h"

#include <algorithm>
#include <cassert>

namespace p2 {

namespace {

// Barrier wait helper: a short pause-spin (cheap when the other threads are about to
// arrive), then yield so single-core hosts make progress instead of burning a whole
// timeslice per window.
inline void SpinWait(int* spins) {
  if (++*spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  } else {
    std::this_thread::yield();
  }
}

}  // namespace

Network::Network(NetworkConfig config) : config_(config) {
  int shards = std::max(1, config_.shards);
  // The conservative window width is the minimum link latency; with zero latency
  // there is no lookahead and the protocol degenerates, so fall back to one thread.
  if (config_.latency <= 0) {
    shards = 1;
  }
  config_.shards = shards;
  if (shards == 1) {
    shared_sched_ = std::make_unique<Scheduler>();
  }
  workers_.reserve(shards);
  for (int i = 0; i < shards; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
}

Network::~Network() {
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      shutdown_ = true;
    }
    pool_cv_.notify_all();
    for (std::thread& thread : threads_) {
      thread.join();
    }
  }
}

Node* Network::AddNode(const std::string& addr, NodeOptions options) {
  assert(!session_active_.load(std::memory_order_relaxed) &&
         "AddNode must not be called while the network is running");
  auto [it, inserted] = nodes_.emplace(addr, nullptr);
  if (!inserted) {
    return it->second->node.get();
  }
  auto slot = std::make_unique<NodeSlot>();
  slot->add_index = slots_.size();
  slot->runner = workers_[0].get();
  Scheduler* sched = shared_sched_.get();
  if (sched == nullptr) {
    slot->sched = std::make_unique<Scheduler>();
    slot->sched->RunUntil(now_);  // a node added between runs joins at the fleet's now
    sched = slot->sched.get();
  }
  slot->node = std::make_unique<Node>(addr, this, options, sched);
  slots_.push_back(slot.get());
  it->second = std::move(slot);
  return it->second->node.get();
}

Node* Network::GetNode(const std::string& addr) {
  NodeSlot* slot = FindSlot(addr);
  return slot == nullptr ? nullptr : slot->node.get();
}

Network::NodeSlot* Network::FindSlot(const std::string& addr) const {
  auto it = nodes_.find(addr);
  return it == nodes_.end() ? nullptr : it->second.get();
}

Network::ChannelState& Network::ChannelFor(NodeSlot& from, const std::string& dst) {
  auto it = from.channels.find(dst);
  if (it == from.channels.end()) {
    // The stream depends only on (network seed, link name) — never on creation
    // order or shard count — so "same seed" replays the same link behavior at any K.
    uint64_t link_seed =
        DeriveSeed(config_.seed, "link/" + from.node->addr() + ">" + dst);
    it = from.channels.emplace(dst, ChannelState(link_seed)).first;
  }
  return it->second;
}

size_t Network::SendReturningSize(const std::string& src, const std::string& dst,
                                  const WireEnvelope& env) {
  std::string bytes = EncodeEnvelope(env);
  size_t size = bytes.size();
  // Sends always originate from a node's own event handler, so this runs on the
  // thread running `src` and may touch only its slot (and that thread's outbox).
  NodeSlot* from_slot = FindSlot(src);
  assert(from_slot != nullptr && "SendReturningSize: unknown source node");
  NodeSlot& from = *from_slot;
  ++from.total_msgs;
  from.total_bytes += size;
  ChannelState& channel = ChannelFor(from, dst);
  ++channel.msgs;
  channel.bytes += size;
  // External-only routing (real-socket backends): every non-self message leaves
  // through the gateway — even when the destination node lives in this same
  // Network — so single-process deployments still exercise the real transport.
  // The simulated fault pipeline is skipped: the physical network (or the
  // driver's own egress-loss injector) supplies loss and latency.
  if (external_only_) {
    if (external_sender_) {
      external_sender_(dst, bytes);
    } else {
      ++from.dropped_msgs;
    }
    return size;
  }
  // Fault pipeline: global loss first, then partition cuts, then the link's own
  // fault spec. Every draw comes from the link's stream, in a fixed per-message
  // order, so the sequence depends only on this link's send history.
  if (config_.loss_rate > 0 && channel.rng.NextDouble() < config_.loss_rate) {
    ++from.dropped_msgs;
    return size;
  }
  if (!partitioned_.empty() && IsPartitioned(src, dst)) {
    ++from.dropped_msgs;
    return size;
  }
  const LinkFault* fault = nullptr;
  if (!link_faults_.empty()) {
    auto it = link_faults_.find(std::make_pair(src, dst));
    if (it != link_faults_.end()) {
      fault = &it->second;
    }
  }
  if (fault != nullptr && fault->loss > 0 && channel.rng.NextDouble() < fault->loss) {
    ++from.dropped_msgs;
    return size;
  }
  NodeSlot* to = FindSlot(dst);
  if (to == nullptr) {
    if (external_sender_) {
      external_sender_(dst, bytes);
    } else {
      ++from.dropped_msgs;
    }
    return size;
  }
  double deliver_at =
      from.node->Now() + config_.latency + config_.jitter * channel.rng.NextDouble();
  if (fault != nullptr) {
    deliver_at += fault->extra_latency;
  }
  if (fault != nullptr && fault->reorder_rate > 0 &&
      channel.rng.NextDouble() < fault->reorder_rate) {
    // Reordered: an extra random delay, no FIFO clamp, and `last_delivery` is left
    // alone — this message can overtake earlier ones and later ones can overtake it.
    ++from.reordered_msgs;
    deliver_at += (config_.latency + config_.jitter) * channel.rng.NextDouble();
  } else {
    if (deliver_at <= channel.last_delivery) {
      deliver_at = channel.last_delivery + 1e-9;  // FIFO: never overtake an earlier message
    }
    channel.last_delivery = deliver_at;
  }
  ++channel.delivered_msgs;
  channel.delivered_bytes += size;
  if (fault != nullptr && fault->dup_rate > 0 &&
      channel.rng.NextDouble() < fault->dup_rate) {
    // Duplicate: a second copy trails the original by a random fraction of a hop.
    ++from.duplicated_msgs;
    ++channel.delivered_msgs;
    channel.delivered_bytes += size;
    double dup_at = deliver_at +
                    (config_.latency + config_.jitter) * channel.rng.NextDouble() + 1e-9;
    Deliver(from, *to, dup_at, bytes);
  }
  Deliver(from, *to, deliver_at, std::move(bytes));
  return size;
}

void Network::Deliver(NodeSlot& from, NodeSlot& to, double deliver_at,
                      std::string bytes) {
  if (shared_sched_ == nullptr) {
    // Parallel: park until the window barrier. Every deliver_at is >= send time +
    // latency >= the current window's end, so the destination heap never receives
    // an event in its past.
    ++from.parked;
    ++from.runner->parked;
    from.runner->outbox.push_back(ParkedMsg{to.add_index, deliver_at, from.add_index,
                                            from.send_seq++, std::move(bytes)});
    return;
  }
  Node* node = to.node.get();
  shared_sched_->At(deliver_at,
                    [node, bytes = std::move(bytes)] { node->ReceiveBytes(bytes); });
}

void Network::RunUntil(double t) {
  if (shared_sched_ != nullptr) {
    uint64_t start = MonotonicNs();
    shared_sched_->RunUntil(t);
    uint64_t elapsed = MonotonicNs() - start;
    workers_[0]->busy_ns += elapsed;
    critical_path_ns_ += elapsed;
    return;
  }
  RunUntilParallel(t);
}

void Network::RunUntilParallel(double t) {
  EnsureThreads();
  // Sends made host-side since the last run (NodeHandle::Call, injections routed
  // between runs) enter their heaps before the first window picks its end.
  ExchangeWindow();
  session_active_.store(true, std::memory_order_release);
  {
    // Empty critical section: pairs with the wait in WorkerLoop so the notify
    // cannot slip between a worker's predicate check and its sleep.
    std::lock_guard<std::mutex> lock(pool_mu_);
  }
  pool_cv_.notify_all();
  const double lookahead = config_.latency;
  while (now_ < t) {
    // Window end: at least one lookahead ahead, fast-forwarded to the globally
    // earliest pending event when every node is idle beyond that, capped at t.
    double earliest = std::numeric_limits<double>::infinity();
    for (const NodeSlot* slot : slots_) {
      earliest = std::min(earliest, slot->sched->NextEventTime());
    }
    double wend = std::min(t, std::max(now_ + lookahead, earliest));
    window_end_ = wend;
    next_claim_.store(0, std::memory_order_relaxed);
    window_done_.store(0, std::memory_order_relaxed);
    window_epoch_.fetch_add(1, std::memory_order_acq_rel);
    RunClaims(*workers_[0]);
    int spins = 0;
    while (window_done_.load(std::memory_order_acquire) != workers_.size() - 1) {
      SpinWait(&spins);
    }
    ++windows_;
    uint64_t max_busy = 0;
    for (const auto& worker : workers_) {
      max_busy = std::max(max_busy, worker->window_busy_ns);
    }
    critical_path_ns_ += max_busy;
    ExchangeWindow();
    now_ = wend;
  }
  session_active_.store(false, std::memory_order_release);
}

void Network::RunClaims(Worker& worker) {
  // Every node is run each window (an idle one only advances its clock), claimed
  // one at a time in add order by whichever thread asks next. A node's events
  // inside the window touch only its own slot, so any thread may run it; the
  // epoch handshake orders one window's writes before the next window's reads.
  uint64_t start = MonotonicNs();
  uint64_t clock = start;
  while (true) {
    size_t index = next_claim_.fetch_add(1, std::memory_order_relaxed);
    if (index >= slots_.size()) {
      break;
    }
    NodeSlot& slot = *slots_[index];
    slot.runner = &worker;
    uint64_t executed = slot.sched->ExecutedCount();
    slot.sched->RunUntil(window_end_);
    worker.events += slot.sched->ExecutedCount() - executed;
    uint64_t end = MonotonicNs();
    slot.busy_ns += end - clock;
    clock = end;
  }
  worker.window_busy_ns = clock - start;
  worker.busy_ns += worker.window_busy_ns;
}

void Network::ExchangeWindow() {
  // Coordinator-only, while the pool threads spin at the barrier: gather every
  // thread's parked sends into the coordinator's outbox and insert them in the
  // canonical order — per destination by delivery time, then source add order,
  // then source send order — so heap sequence numbers (the equal-time tie-break)
  // never depend on K or on which thread ran which node.
  std::vector<ParkedMsg>& parked = workers_[0]->outbox;
  for (size_t i = 1; i < workers_.size(); ++i) {
    std::vector<ParkedMsg>& outbox = workers_[i]->outbox;
    parked.insert(parked.end(), std::make_move_iterator(outbox.begin()),
                  std::make_move_iterator(outbox.end()));
    outbox.clear();
  }
  std::sort(parked.begin(), parked.end(), [](const ParkedMsg& a, const ParkedMsg& b) {
    if (a.dst != b.dst) {
      return a.dst < b.dst;
    }
    if (a.deliver_at != b.deliver_at) {
      return a.deliver_at < b.deliver_at;
    }
    if (a.src != b.src) {
      return a.src < b.src;
    }
    return a.src_seq < b.src_seq;
  });
  for (ParkedMsg& msg : parked) {
    NodeSlot& slot = *slots_[msg.dst];
    Node* node = slot.node.get();
    slot.sched->At(msg.deliver_at,
                   [node, bytes = std::move(msg.bytes)] { node->ReceiveBytes(bytes); });
  }
  parked.clear();
  FlushMetricsBuffers();
}

void Network::FlushMetricsBuffers() {
  if (metrics_sink_ == nullptr) {
    return;
  }
  std::vector<MetricsSnapshot> all;
  for (auto& worker : workers_) {
    all.insert(all.end(), std::make_move_iterator(worker->metrics_buf.begin()),
               std::make_move_iterator(worker->metrics_buf.end()));
    worker->metrics_buf.clear();
  }
  if (all.empty()) {
    return;
  }
  // (time, node) is a total order here — a node sweeps at most once per instant —
  // so the JSONL stream is byte-identical at any shard count.
  std::stable_sort(all.begin(), all.end(),
                   [](const MetricsSnapshot& a, const MetricsSnapshot& b) {
                     if (a.time != b.time) {
                       return a.time < b.time;
                     }
                     return a.node < b.node;
                   });
  for (MetricsSnapshot& snap : all) {
    metrics_sink_->Write(snap);
  }
}

void Network::EnsureThreads() {
  if (!threads_.empty() || workers_.size() <= 1) {
    return;
  }
  threads_.reserve(workers_.size() - 1);
  for (size_t i = 1; i < workers_.size(); ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void Network::WorkerLoop(size_t index) {
  uint64_t seen_epoch = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock, [this] {
        return shutdown_ || session_active_.load(std::memory_order_acquire);
      });
      if (shutdown_) {
        return;
      }
    }
    int spins = 0;
    while (true) {
      uint64_t epoch = window_epoch_.load(std::memory_order_acquire);
      if (epoch == seen_epoch) {
        if (!session_active_.load(std::memory_order_acquire)) {
          break;  // session over: park on the condvar again
        }
        SpinWait(&spins);
        continue;
      }
      seen_epoch = epoch;
      RunClaims(*workers_[index]);
      spins = 0;
      window_done_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
}

uint64_t Network::SumSlots(uint64_t NodeSlot::* field) const {
  uint64_t total = 0;
  for (const NodeSlot* slot : slots_) {
    total += slot->*field;
  }
  return total;
}

uint64_t Network::total_msgs() const { return SumSlots(&NodeSlot::total_msgs); }
uint64_t Network::total_bytes() const { return SumSlots(&NodeSlot::total_bytes); }
uint64_t Network::dropped_msgs() const { return SumSlots(&NodeSlot::dropped_msgs); }
uint64_t Network::duplicated_msgs() const { return SumSlots(&NodeSlot::duplicated_msgs); }
uint64_t Network::reordered_msgs() const { return SumSlots(&NodeSlot::reordered_msgs); }

void Network::SetLinkFault(const std::string& src, const std::string& dst,
                           LinkFault fault) {
  link_faults_[std::make_pair(src, dst)] = fault;
}

void Network::ClearLinkFault(const std::string& src, const std::string& dst) {
  link_faults_.erase(std::make_pair(src, dst));
}

void Network::Partition(const std::vector<std::string>& group_a,
                        const std::vector<std::string>& group_b) {
  for (const std::string& a : group_a) {
    for (const std::string& b : group_b) {
      partitioned_.insert(std::make_pair(a, b));
      partitioned_.insert(std::make_pair(b, a));
    }
  }
}

std::vector<Network::ChannelTraffic> Network::ChannelsSnapshot() const {
  // Each (src,dst) pair lives in exactly one slot (the source node's); walking the
  // slots in address order and their channels in destination order yields the rows
  // sorted by (src, dst).
  std::vector<ChannelTraffic> out;
  for (const auto& [addr, slot] : nodes_) {
    for (const auto& [dst, state] : slot->channels) {
      out.push_back({addr, dst, state.msgs, state.bytes, state.delivered_msgs,
                     state.delivered_bytes});
    }
  }
  return out;
}

std::vector<Network::ShardStats> Network::ShardStatsSnapshot() const {
  uint64_t heap_hwm = 0;
  if (shared_sched_ != nullptr) {
    heap_hwm = shared_sched_->HeapHighWaterMark();
  }
  for (const NodeSlot* slot : slots_) {
    if (slot->sched != nullptr) {
      heap_hwm = std::max(heap_hwm, slot->sched->HeapHighWaterMark());
    }
  }
  std::vector<ShardStats> out;
  out.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    const Worker& worker = *workers_[i];
    ShardStats stats;
    stats.index = static_cast<int>(i);
    stats.events =
        shared_sched_ != nullptr ? shared_sched_->ExecutedCount() : worker.events;
    stats.heap_hwm = heap_hwm;
    stats.busy_ns = worker.busy_ns;
    stats.sent_cross_shard = worker.parked;
    out.push_back(stats);
  }
  return out;
}

void Network::PublishShardGauges(Node* node) {
  if (shared_sched_ != nullptr) {
    return;
  }
  // Runs during the node's own sweep, on the thread running it — which owns every
  // value read here (windows_ is coordinator-written only at barriers, ordered by
  // the epoch handshake).
  const NodeSlot& slot = *FindSlot(node->addr());
  MetricsRegistry& reg = node->metrics();
  reg.GetGauge("shard_events")->Set(static_cast<int64_t>(slot.sched->ExecutedCount()));
  reg.GetGauge("shard_heap_hwm")
      ->Set(static_cast<int64_t>(slot.sched->HeapHighWaterMark()));
  reg.GetGauge("shard_windows")->Set(static_cast<int64_t>(windows_));
  reg.GetGauge("shard_xmsgs")->Set(static_cast<int64_t>(slot.parked));
  reg.GetGauge("shard_busy_ms")->Set(static_cast<int64_t>(slot.busy_ns / 1000000));
}

void Network::WriteNodeMetrics(Node* node) {
  if (metrics_sink_ == nullptr) {
    return;
  }
  MetricsSnapshot snap = SnapshotNodeMetrics(node);
  if (shared_sched_ != nullptr) {
    metrics_sink_->Write(snap);
    return;
  }
  FindSlot(node->addr())->runner->metrics_buf.push_back(std::move(snap));
}

uint64_t Network::SumStats(uint64_t NodeStats::* field) const {
  uint64_t total = 0;
  for (const NodeSlot* slot : slots_) {
    total += slot->node->stats().*field;
  }
  return total;
}

std::vector<Node*> Network::AllNodes() {
  std::vector<Node*> out;
  out.reserve(nodes_.size());
  for (auto& [addr, slot] : nodes_) {
    out.push_back(slot->node.get());
  }
  return out;
}

}  // namespace p2
