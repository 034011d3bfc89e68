// ShardedCounters: process-wide counters that many threads bump without sharing a
// cache line.
//
// Every tuple the engine creates or frees bumps process-global counters (live tuples
// and bytes, arena blocks). Held in one atomic word each, they would put every thread of
// a sharded fleet on the same cache lines. Instead each thread adds into one of kShards
// cache-line-aligned shards, picked once per thread, and a read sums the shards; reads
// are rare (host-side, between runs). The shards are static storage, not owned by any
// thread, so totals stay exact when a thread exits. A counter decremented on another
// thread than the one that incremented it wraps within its shard, and the sum over all
// shards is still exact (modulo 2^64).

#ifndef SRC_RUNTIME_COUNTER_SHARDS_H_
#define SRC_RUNTIME_COUNTER_SHARDS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace p2 {

inline constexpr size_t kCounterShards = 64;

// The calling thread's shard: threads take shards round-robin on first use.
inline size_t ThisThreadCounterShard() {
  static std::atomic<size_t> next{0};
  static thread_local size_t shard = kCounterShards;  // constant-initialized
  if (shard == kCounterShards) {
    shard = next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  }
  return shard;
}

// N counters, indexed 0..N-1.
template <size_t N>
class ShardedCounters {
 public:
  void Add(size_t counter, uint64_t delta) {
    shards_[ThisThreadCounterShard()].value[counter].fetch_add(delta,
                                                               std::memory_order_relaxed);
  }

  void Sub(size_t counter, uint64_t delta) {
    shards_[ThisThreadCounterShard()].value[counter].fetch_sub(delta,
                                                               std::memory_order_relaxed);
  }

  uint64_t Sum(size_t counter) const {
    uint64_t sum = 0;
    for (const Shard& shard : shards_) {
      sum += shard.value[counter].load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, N> value{};
  };
  std::array<Shard, kCounterShards> shards_{};
};

}  // namespace p2

#endif  // SRC_RUNTIME_COUNTER_SHARDS_H_
