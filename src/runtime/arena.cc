#include "src/runtime/arena.h"

#include <new>

#include "src/runtime/counter_shards.h"

namespace p2 {

namespace {

// 64-byte size classes up to 4 KiB cover every tuple block the engine mints
// (control block + Tuple, ValueList buffers, vector growth steps); anything
// bigger is rare enough to pay the heap round trip.
constexpr std::size_t kClassBytes = 64;
constexpr std::size_t kNumClasses = 64;
constexpr std::size_t kMaxClassSize = kClassBytes * kNumClasses;

inline std::size_t ClassIndex(std::size_t size) {
  return (size + kClassBytes - 1) / kClassBytes - 1;  // size >= 1
}

inline std::size_t ClassSize(std::size_t idx) { return (idx + 1) * kClassBytes; }

// Freed blocks double as singly-linked list nodes (every class is >= 64 bytes,
// comfortably holding a pointer at suitable alignment).
struct FreeNode {
  FreeNode* next;
};

struct ThreadCache {
  FreeNode* head[kNumClasses] = {};
  std::size_t count = 0;

  ~ThreadCache() {
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      FreeNode* node = head[c];
      while (node != nullptr) {
        FreeNode* next = node->next;
        ::operator delete(node);
        node = next;
      }
      head[c] = nullptr;
    }
    count = 0;
  }
};

ThreadCache& Cache() {
  static thread_local ThreadCache cache;
  return cache;
}

enum : std::size_t { kFreshBytes, kFreshBlocks, kRecycledBlocks };
constinit ShardedCounters<3> counters;

}  // namespace

std::atomic<bool> TupleArena::enabled_{true};

void* TupleArena::Allocate(std::size_t size) {
  if (size == 0) {
    size = 1;
  }
  if (size > kMaxClassSize) {
    counters.Add(kFreshBytes, size);
    counters.Add(kFreshBlocks, 1);
    return ::operator new(size);
  }
  const std::size_t idx = ClassIndex(size);
  if (Enabled()) {
    ThreadCache& cache = Cache();
    FreeNode* node = cache.head[idx];
    if (node != nullptr) {
      cache.head[idx] = node->next;
      --cache.count;
      counters.Add(kRecycledBlocks, 1);
      return node;
    }
  }
  const std::size_t bytes = ClassSize(idx);
  counters.Add(kFreshBytes, bytes);
  counters.Add(kFreshBlocks, 1);
  return ::operator new(bytes);
}

void TupleArena::Deallocate(void* p, std::size_t size) noexcept {
  if (p == nullptr) {
    return;
  }
  if (size == 0) {
    size = 1;
  }
  if (size > kMaxClassSize) {
    ::operator delete(p);
    return;
  }
  if (Enabled()) {
    ThreadCache& cache = Cache();
    const std::size_t idx = ClassIndex(size);
    FreeNode* node = static_cast<FreeNode*>(p);
    node->next = cache.head[idx];
    cache.head[idx] = node;
    ++cache.count;
    return;
  }
  ::operator delete(p);
}

std::uint64_t TupleArena::FreshBytes() { return counters.Sum(kFreshBytes); }
std::uint64_t TupleArena::FreshBlocks() { return counters.Sum(kFreshBlocks); }
std::uint64_t TupleArena::RecycledBlocks() { return counters.Sum(kRecycledBlocks); }

std::size_t TupleArena::ThreadCachedBlocks() { return Cache().count; }

void TupleArena::TrimThreadCache() {
  ThreadCache& cache = Cache();
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    FreeNode* node = cache.head[c];
    while (node != nullptr) {
      FreeNode* next = node->next;
      ::operator delete(node);
      node = next;
    }
    cache.head[c] = nullptr;
  }
  cache.count = 0;
}

}  // namespace p2
