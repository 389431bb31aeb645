// Contention-sharded counters and cacheline hygiene primitives.
//
// The fig sweeps in BENCH_RESULTS/ showed the engine scaling *backwards*
// with threads; the shared culprits were single hot atomics written on every
// operation (JiffyMap::size_, the harness counter block) sharing cachelines
// with each other and with read-mostly state.
// This header provides the two building blocks the fix is made of:
//
//   * CachePadded<T> — a value alone on its own destructive-interference
//     cacheline. Placing two of them next to each other *guarantees* the
//     contained atomics never false-share (alignas pads the tail too, since
//     sizeof is always a multiple of alignof). The layout contract is
//     static_asserted here and exercised by tests/test_striped_counter.cpp.
//
//   * StripedCounter<Shards> — a signed counter striped over Shards
//     cacheline-aligned slots, indexed by a cheap per-thread shard id. add()
//     touches only the caller's slot (no cross-core coherence traffic on the
//     fast path; on a collision two threads share a slot, which costs
//     contention but never correctness). read() aggregates lazily over the
//     slots: every delta lands in exactly one fetch_add, so the sum over all
//     slots is exact once writers are quiescent, and transiently off by at
//     most the ops in flight during the sweep — the same contract
//     JiffyMap::approx_size() documents.
//
// Memory-order note: all slot traffic is relaxed on purpose. The counters
// are statistics — nothing is published *through* them, and every consumer
// (approx_size, the obs event counters, the harness post-join readout)
// either tolerates approximate values or is ordered by a stronger external
// edge (thread join, the purge flag). See DESIGN.md §10 justified-relaxed
// classes and §14 for the fast-path contention budget this enforces.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

namespace jiffy {

// Destructive interference distance. std::hardware_destructive_interference_
// size exists but is not usable in headers compiled into differently-tuned
// TUs (GCC warns -Winterference-size for exactly that reason); 64 bytes is
// correct for every x86-64 and most AArch64 parts this runs on, and padding
// to 128 would double the striped-slot footprint for no measured gain.
inline constexpr std::size_t kCacheLineBytes = 64;

// A T alone on its own cacheline: alignas rounds sizeof up to the alignment,
// so consecutive CachePadded members (or array elements) can never share a
// line. Keep T trivially small (an atomic, a pointer pair); the point is the
// padding, not storage.
template <class T>
struct alignas(kCacheLineBytes) CachePadded {
  T value{};
};

static_assert(sizeof(CachePadded<std::atomic<std::uint64_t>>) ==
                  kCacheLineBytes,
              "CachePadded must occupy exactly one cacheline for small T");
static_assert(alignof(CachePadded<std::atomic<bool>>) == kCacheLineBytes,
              "CachePadded alignment is the false-sharing guarantee");

namespace detail {

// Dense per-thread shard id: the first Shards distinct threads get distinct
// slots, later ones wrap. Ids are process-global (one sequence shared by
// every StripedCounter) so a thread hits the same slot index in every
// counter — one line per counter stays resident in its cache.
inline unsigned thread_shard_id() {
  static std::atomic<unsigned> next{0};
  // relaxed: id allocation only needs uniqueness, which fetch_add gives at
  // any order; nothing is published through the ticket value.
  thread_local const unsigned id =
      next.fetch_add(1u, std::memory_order_relaxed);
  return id;
}

}  // namespace detail

// A signed counter sharded over cacheline-aligned slots. Exact under
// concurrent add() (every delta is one atomic RMW on one slot); read() is an
// unsynchronized sweep and therefore approximate while writers run —
// documented slack: the ops in flight during the sweep.
template <std::size_t Shards = 64>
class StripedCounter {
  static_assert(Shards != 0 && (Shards & (Shards - 1)) == 0,
                "Shards must be a power of two for the mask index");

 public:
  void add(std::int64_t delta) {
    // relaxed: sharded statistic; only per-slot totals matter and no payload
    // is published through the counter (see header note).
    slot().fetch_add(delta, std::memory_order_relaxed);
  }

  void increment() { add(1); }
  void decrement() { add(-1); }

  // Lazy aggregate over the slots. Exact when writers are quiescent;
  // otherwise off by at most the ops in flight during the sweep.
  std::int64_t read() const {
    std::int64_t sum = 0;
    for (const Slot& s : slots_)
      // relaxed: sharded statistic readout; the sum is approximate by
      // contract while writers run (see class comment).
      sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(kCacheLineBytes) Slot {
    std::atomic<std::int64_t> v{0};
  };
  static_assert(sizeof(Slot) == kCacheLineBytes,
                "one slot per cacheline is the whole point of striping");

  std::atomic<std::int64_t>& slot() {
    return slots_[detail::thread_shard_id() & (Shards - 1)].v;
  }

  Slot slots_[Shards];
};

// Shard count for the engine's hot counters: wide enough that the benchmark
// grids (<= 96 threads, almost always <= 16) rarely collide, small enough
// that a sweep stays a few KB.
inline constexpr std::size_t kCounterShards = 64;

}  // namespace jiffy
