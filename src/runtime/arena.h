// TupleArena: pooled allocation for the engine's tuple storage hot path.
//
// Every tuple the engine creates is short-lived relative to the run (intermediate
// derivations dominate — the paper's stated driver of process-memory growth under
// monitoring load), so the same handful of block sizes is allocated and freed
// millions of times. TupleArena intercepts those allocations: blocks are rounded up
// to 64-byte size classes and, once freed, parked on a thread-local free list
// instead of returning to the heap. The next allocation of the same class pops the
// cached block — no malloc, no lock. Everything larger than the biggest class falls
// through to plain operator new/delete.
//
// Ownership rules (docs/SCALING.md "Memory model & hot-path batching"):
//  * The arena is a recycler, not an owner: every block is ordinary
//    operator-new memory, and a block's lifetime is still governed by whoever
//    holds the TupleRef / ValueList that lives in it. Refcounted sharing across
//    tables, queues, and trace stores works exactly as before — a recycled block
//    is only ever one whose last reference was dropped.
//  * Free lists are per-thread. In the parallel fleet runtime nodes are not
//    pinned to threads — each window's threads claim whichever node is next — so
//    a block is often freed on a different thread than the one that allocated
//    it; it then simply joins the freeing thread's cache, as a block freed
//    host-side (e.g. while digesting) does. Caches release to the heap on thread
//    exit.
//  * SetEnabled is process-global and only gates recycling. Blocks allocated
//    while enabled are freed correctly after disabling and vice versa, because
//    class rounding is applied identically in both states.
//
// FreshBytes() counts bytes actually obtained from the heap (recycled pops count
// zero), in both enabled and disabled states — this is the allocation-rate column
// reported by bench_parallel_fleet: with the arena disabled it tracks raw tuple
// churn; enabled, it drops to the steady-state miss rate.

#ifndef SRC_RUNTIME_ARENA_H_
#define SRC_RUNTIME_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace p2 {

class TupleArena {
 public:
  // Gates recycling only; allocation stays correct across toggles. Effectively
  // process-global — the per-node ablation toggle (NodeOptions::tuple_arenas)
  // writes through to this and is documented as fleet-uniform.
  static void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  // Returns a block of at least `size` bytes (class-rounded). Never null for
  // reasonable sizes; allocation failure throws std::bad_alloc like operator new.
  static void* Allocate(std::size_t size);
  // Returns a block obtained from Allocate with the same `size`.
  static void Deallocate(void* p, std::size_t size) noexcept;

  // Bytes / blocks actually obtained from the heap since process start
  // (class-rounded; recycled pops excluded). Monotonic, fleet-wide. These readers sum
  // per-thread shards (src/runtime/counter_shards.h): call them between runs.
  static std::uint64_t FreshBytes();
  static std::uint64_t FreshBlocks();
  // Blocks served from a free list since process start.
  static std::uint64_t RecycledBlocks();

  // Blocks currently parked on the calling thread's free lists.
  static std::size_t ThreadCachedBlocks();
  // Releases the calling thread's cached blocks back to the heap (tests).
  static void TrimThreadCache();

 private:
  static std::atomic<bool> enabled_;
};

// Minimal stateless STL allocator routing through TupleArena. Used for the
// ValueList element buffer and the allocate_shared block behind Tuple::Make, so
// the whole storage of a tuple recycles through the same free lists.
template <typename T>
struct ArenaAllocator {
  using value_type = T;

  ArenaAllocator() = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    return static_cast<T*>(TupleArena::Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    TupleArena::Deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const ArenaAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>&) const {
    return false;
  }
};

}  // namespace p2

#endif  // SRC_RUNTIME_ARENA_H_
