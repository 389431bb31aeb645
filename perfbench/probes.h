// Per-layer probes and host attribution for the perfbench traced run.
//
// The layer probes time single-threaded direct calls into each module's
// public functions (tsc, ebr, core revision format, common block cache,
// workload key choice) after the measured window, with every worker
// stopped. They report the cost of one call on this host at the sizes the
// run actually produced (e.g. the measured average revision size), so a
// change that moves an end-to-end metric can be traced to the layer whose
// call got cheaper. Host helpers read what the kernel knows about a run:
// steal time, involuntary context switches and heap bytes in use.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/block_cache.h"
#include "core/jiffy.h"
#include "ebr/ebr.h"
#include "tsc/clock.h"
#include "workload/rng.h"

namespace perfbench {

// ---- host attribution -------------------------------------------------------

struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

// Aggregate CPU jiffies from the first line of /proc/stat.
inline CpuTimes read_cpu_times() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

// Involuntary context switches of the calling thread so far.
inline std::uint64_t thread_nivcsw() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_nivcsw);
}

// Heap bytes handed out by malloc and not yet freed, over every arena.
inline std::uint64_t heap_in_use() {
#if defined(__GLIBC__)
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
#else
  return 0;
#endif
}

// ---- timing helpers ---------------------------------------------------------

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nanoseconds per call of f(i) for i in [0, n): the median of five timed
// loops, so one preempted loop does not set the figure.
template <class F>
double ns_per_call(std::size_t n, F&& f) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) f(i);
    reps.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
  }
  return median(reps);
}

// Keeps a probe's result alive without a store the optimizer could drop.
inline void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

// ---- layer probes -----------------------------------------------------------

struct LayerProbes {
  double tsc_read_ns = 0;
  double guard_ns = 0;
  double retire_ns = 0;
  double ticket_ns = 0;
  double build_ns_per_entry = 0;
  double find_hash_ns = 0;
  double find_binary_ns = 0;
  double block_alloc_ns = 0;
  double keygen_ns = 0;
};

// Runs every direct-call probe for revisions of `rev_size` entries of
// (K, V) and the workload's key chooser. `keys` maps a key index to a key.
template <class K, class V, class KeyOf>
LayerProbes run_layer_probes(std::uint32_t rev_size,
                             const jiffy::KeyChooser& chooser,
                             const KeyOf& keys, std::uint64_t space,
                             std::uint64_t seed) {
  using Rev = jiffy::Revision<K, V>;
  using Builder = jiffy::RevisionBuilder<K, V, std::hash<K>>;
  constexpr std::size_t kCalls = 200'000;
  LayerProbes p;
  const std::uint32_t n = std::max<std::uint32_t>(rev_size, 1);

  const jiffy::TscClock tsc;
  p.tsc_read_ns = ns_per_call(kCalls, [&](std::size_t) { keep(tsc.read()); });
  p.guard_ns = ns_per_call(kCalls, [](std::size_t) { jiffy::ebr::Guard g; });
  static int retire_token = 0;
  p.retire_ns = ns_per_call(kCalls, [](std::size_t) {
    jiffy::ebr::retire_fn(&retire_token, [](void*) {});
  });
  jiffy::ebr::quiesce();
  p.ticket_ns = ns_per_call(kCalls, [](std::size_t i) {
    jiffy::ebr::VersionTicket t;
    t.publish(i + 1);
  });

  // A pool of revisions larger than one core's L1, holding keys spread
  // evenly over the key space; lookups hit random entries of random
  // revisions.
  constexpr std::size_t kPool = 256;
  const std::uint64_t spread = std::max<std::uint64_t>(space / (kPool * n), 1);
  std::vector<Rev*> pool;
  std::vector<K> pool_keys;
  for (std::size_t r = 0; r < kPool; ++r) {
    Builder b(jiffy::RevKind::kPlain, n);
    for (std::uint32_t e = 0; e < n; ++e) {
      const K k = keys((r * n + e) * spread);
      b.emit(k, V{});
      pool_keys.push_back(k);
    }
    pool.push_back(b.finish());
  }
  const std::size_t builds = std::max<std::size_t>(kCalls / n, 64);
  p.build_ns_per_entry =
      ns_per_call(builds,
                  [&](std::size_t i) {
                    const std::size_t base = (i % kPool) * n;
                    Builder b(jiffy::RevKind::kPlain, n);
                    for (std::uint32_t e = 0; e < n; ++e)
                      b.emit(pool_keys[base + e], V{});
                    Rev::dispose(b.finish());
                  }) /
      n;

  jiffy::Rng rng(seed);
  std::vector<std::uint32_t> probe(kCalls);
  for (std::uint32_t& x : probe)
    x = static_cast<std::uint32_t>(rng.next_below(pool_keys.size()));
  const std::less<K> less;
  p.find_hash_ns = ns_per_call(kCalls, [&](std::size_t i) {
    const K& k = pool_keys[probe[i]];
    const Rev* r = pool[probe[i] / n];
    keep(reinterpret_cast<std::uintptr_t>(
        r->find(k, jiffy::fold_hash16(std::hash<K>{}(k)), less)));
  });
  p.find_binary_ns = ns_per_call(kCalls, [&](std::size_t i) {
    const K& k = pool_keys[probe[i]];
    const Rev* r = pool[probe[i] / n];
    keep(reinterpret_cast<std::uintptr_t>(r->find_binary(k, less)));
  });
  const std::size_t block = jiffy::ThreadBlockCache::usable_size(
      pool.front()->alloc_bytes);
  for (Rev* r : pool) Rev::dispose(r);

  p.block_alloc_ns = ns_per_call(kCalls, [&](std::size_t) {
    void* m = jiffy::ThreadBlockCache::allocate(block);
    keep(reinterpret_cast<std::uintptr_t>(m));
    jiffy::ThreadBlockCache::deallocate(m, block);
  });
  p.keygen_ns = ns_per_call(kCalls, [&](std::size_t) {
    keep(chooser.next_index(rng));
  });
  return p;
}

struct CursorProbes {
  double open_us = 0;
  double seek_us = 0;
  double step_ns = 0;
};

// Single-threaded snapshot reads against the run's own map: open a
// snapshot, seek to a random key, step up to kSteps entries forward.
// Medians over kReps reads, converted from TSC ticks over the probe's own
// wall span.
template <class Map, class KeyOf>
CursorProbes run_cursor_probes(const Map& map, const KeyOf& keys,
                               std::uint64_t space, std::uint64_t seed) {
  constexpr int kReps = 2000;
  constexpr int kSteps = 100;
  const jiffy::TscClock tsc;
  jiffy::Rng rng(seed);
  std::vector<double> open, seek, step;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t c0 = tsc.read();
  for (int r = 0; r < kReps; ++r) {
    const auto k = keys(rng.next_below(space));
    const std::uint64_t a = tsc.read();
    auto snap = map.snapshot();
    const std::uint64_t b = tsc.read();
    auto c = snap.seek(k);
    const std::uint64_t d = tsc.read();
    int steps = 0;
    for (; steps < kSteps && c.valid(); ++steps) c.next();
    const std::uint64_t e = tsc.read();
    open.push_back(static_cast<double>(b - a));
    seek.push_back(static_cast<double>(d - b));
    if (steps > 0) step.push_back(static_cast<double>(e - d) / steps);
  }
  const double ticks_per_ns =
      static_cast<double>(tsc.read() - c0) / (seconds_since(t0) * 1e9);
  CursorProbes p;
  p.open_us = median(std::move(open)) / ticks_per_ns / 1e3;
  p.seek_us = median(std::move(seek)) / ticks_per_ns / 1e3;
  p.step_ns = median(std::move(step)) / ticks_per_ns;
  return p;
}

}  // namespace perfbench
