// Always-on engine event counters (ISSUE 10, DESIGN.md §15).
//
// A fixed compile-time registry of named process-global event counters the
// engine bumps at protocol-interesting sites: CAS install losses, help
// stamps, batch-replay group claims/duplications, purge sweeps, EBR valve
// donations, block-cache hits/misses, splits and merges — plus one striped
// max-gauge (limbo_peak) tracking the deepest EBR limbo bucket ever seen.
//
// Design constraints (same budget DESIGN.md §14 set for the engine itself):
//
//   * Zero shared-cacheline writes on the fast path. Every counter is a
//     StripedCounter over kCounterShards cacheline-aligned slots indexed by
//     the process-global thread shard id, so a bump is one relaxed RMW on a
//     line only the calling thread (modulo shard collisions) touches.
//   * Counters are statistics, never publication: nothing is ordered
//     through them and every reader (the harness MetricsSnapshot, tests
//     after join) is ordered by a stronger external edge (thread join).
//     This is the DESIGN.md §10 justified-relaxed "sharded statistic" class.
//   * JIFFY_OBS=0 compiles the whole layer to nothing: JIFFY_COUNT expands
//     to (void)0 and snapshot() returns zeros, so the obs-off twin benches
//     (BENCH_RESULTS/README overhead table) measure the true
//     zero-instrumentation baseline.
//
// Usage from engine code:
//
//   JIFFY_COUNT(cas_install_lost);        // bump by 1
//   JIFFY_COUNT_MAX_LIMBO(bucket_size);   // raise the limbo max-gauge
//
// The harness snapshots before/after each bench cell and serializes the
// delta to JSON under --metrics=<file> (schema: jiffy-metrics-v1).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/striped_counter.h"

// Observability master switch. Default ON — the counters are cheap enough
// to ship enabled (the acceptance gate pins fig6 a_update within 3% of the
// obs-off twin). Define JIFFY_OBS=0 to compile the layer out entirely.
#ifndef JIFFY_OBS
#define JIFFY_OBS 1
#endif

namespace jiffy::obs {

// Counter registry. Enumerators are deliberately snake_case (against the
// repo's kCamel enum style): the identifier IS the schema name — it appears
// verbatim in JIFFY_COUNT() call sites, kEventNames, the metrics JSON, and
// tools/check_scaling.py. Append-only; renames are schema changes.
enum class Ev : unsigned {
  cas_install_lost = 0,     // put/erase lost a head-revision install CAS
  help_stamp,               // helped stamp another writer's pending version
  replay_group_claimed,     // batch replay: this thread's group install won
  replay_group_duplicated,  // batch replay: rebuilt a group a rival installed
  purge_sweeps,             // cooperative purge passes started
  valve_donations,          // EBR pressure-valve yield donations
  block_cache_hit,          // thread block cache served an allocation
  block_cache_miss,         // cacheable size fell through to ::operator new
  split,                    // revision split committed
  merge,                    // node merge committed
  // Tower descents (JiffyMap::locate), sampled 1 in 64 per thread; each
  // sample adds its own counts, so ratios to descent_sampled are per-descent
  // means.
  descent_sampled,            // sampled descents
  descent_anchor_loads,       // successor anchors loaded in the tower
  descent_level0_passed,      // level-0 nodes walked past
  descent_tombstones_passed,  // ... of which dead merge shells
  kCount
};

inline constexpr unsigned kEventCount = static_cast<unsigned>(Ev::kCount);

inline constexpr const char* kEventNames[kEventCount] = {
    "cas_install_lost", "help_stamp",       "replay_group_claimed",
    "replay_group_duplicated", "purge_sweeps", "valve_donations",
    "block_cache_hit",  "block_cache_miss", "split",
    "merge",            "descent_sampled",  "descent_anchor_loads",
    "descent_level0_passed", "descent_tombstones_passed"};

// True on every 64th call per thread: the sampling gate for counts taken on
// every operation (the descent counters above). Always false under
// JIFFY_OBS=0, so the sampled code folds away.
inline bool sample_tick() {
#if JIFFY_OBS
  thread_local std::uint32_t tick = 0;
  return (++tick & 63u) == 0;
#else
  return false;
#endif
}

// One extra striped *max* gauge (not a sum): deepest EBR limbo bucket
// observed by any thread. Kept out of Ev because its merge operator is max,
// not +, so snapshots carry it as a high-water mark.
inline constexpr const char* kLimboPeakName = "limbo_peak";

#if JIFFY_OBS

namespace detail {

// A max-gauge striped like StripedCounter: raise() lifts only the caller's
// slot, read() takes the max over slots. Monotone per slot, so the sweep is
// exact once writers are quiescent (same contract as StripedCounter::read).
template <std::size_t Shards = kCounterShards>
class StripedMax {
  static_assert(Shards != 0 && (Shards & (Shards - 1)) == 0,
                "Shards must be a power of two for the mask index");

 public:
  void raise(std::int64_t v) {
    std::atomic<std::int64_t>& s =
        slots_[jiffy::detail::thread_shard_id() & (Shards - 1)].v;
    // relaxed: sharded statistic (DESIGN.md §10); the gauge publishes no
    // payload and readers are ordered by thread join. The CAS loop reloads
    // its expected value through the failure writeback.
    std::int64_t cur = s.load(std::memory_order_relaxed);
    while (cur < v && !s.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {  // relaxed: stat max
    }
  }

  std::int64_t read() const {
    std::int64_t m = 0;
    for (const Slot& s : slots_)
      // relaxed: sharded statistic readout; approximate while writers run,
      // exact after join (see class comment).
      if (std::int64_t v = s.v.load(std::memory_order_relaxed); v > m) m = v;
    return m;
  }

 private:
  struct alignas(kCacheLineBytes) Slot {
    std::atomic<std::int64_t> v{0};
  };
  Slot slots_[Shards];
};

struct Registry {
  StripedCounter<kCounterShards> events[kEventCount];
  StripedMax<kCounterShards> limbo_peak;
};

inline Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace detail

inline void count(Ev e, std::int64_t delta = 1) {
  detail::registry().events[static_cast<unsigned>(e)].add(delta);
}

inline void limbo_peak_raise(std::int64_t v) {
  detail::registry().limbo_peak.raise(v);
}

#else  // !JIFFY_OBS

inline void count(Ev, std::int64_t = 1) {}
inline void limbo_peak_raise(std::int64_t) {}

#endif  // JIFFY_OBS

// Point-in-time aggregate of every counter plus the limbo-peak gauge.
// operator- yields the per-window delta the harness attributes to one bench
// cell (cells run sequentially, so process-global deltas are exact). Note
// limbo_peak is a high-water mark, not a sum: its "delta" is the end-window
// absolute peak, which dominates the start-window one.
struct MetricsSnapshot {
  std::array<std::int64_t, kEventCount> events{};
  std::int64_t limbo_peak = 0;

  MetricsSnapshot operator-(const MetricsSnapshot& base) const {
    MetricsSnapshot d;
    for (unsigned i = 0; i < kEventCount; ++i)
      d.events[i] = events[i] - base.events[i];
    d.limbo_peak = limbo_peak;  // high-water mark: absolute, not differenced
    return d;
  }

  std::int64_t operator[](Ev e) const {
    return events[static_cast<unsigned>(e)];
  }
};

inline MetricsSnapshot snapshot() {
  MetricsSnapshot s;
#if JIFFY_OBS
  for (unsigned i = 0; i < kEventCount; ++i)
    s.events[i] = detail::registry().events[i].read();
  s.limbo_peak = detail::registry().limbo_peak.read();
#endif
  return s;
}

}  // namespace jiffy::obs

// Engine-side bump macros. Expand to nothing under JIFFY_OBS=0 so hot paths
// carry literally zero instrumentation in the obs-off configuration.
#if JIFFY_OBS
#define JIFFY_COUNT(name_) ::jiffy::obs::count(::jiffy::obs::Ev::name_)
#define JIFFY_COUNT_N(name_, n_) \
  ::jiffy::obs::count(::jiffy::obs::Ev::name_, (n_))
#define JIFFY_COUNT_MAX_LIMBO(v_) ::jiffy::obs::limbo_peak_raise((v_))
#else
#define JIFFY_COUNT(name_) ((void)0)
#define JIFFY_COUNT_N(name_, n_) ((void)0)
#define JIFFY_COUNT_MAX_LIMBO(v_) ((void)0)
#endif
