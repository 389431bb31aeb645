// Component microbenchmarks (google-benchmark):
//   * clock sources — the paper quotes ~10 ns for RDTSCP and relies on it
//     being far cheaper than a contended atomic counter;
//   * revision operations — build and binary-search lookup, across the
//     paper's 25..300 size range;
//   * EBR guard and retire costs;
//   * single-threaded map operations at the repository benchmark's shape.
//
// Build with -DJIFFY_BUILD_MICRO=ON (needs google-benchmark). The system
// libbenchmark 1.7 takes --benchmark_min_time in seconds without a unit.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/jiffy.h"
#include "ebr/ebr.h"
#include "tsc/clock.h"
#include "workload/keyvalue.h"
#include "workload/rng.h"

namespace {

using namespace jiffy;

// ---- clocks -----------------------------------------------------------------

TscClock g_tsc;
SteadyClock g_steady;
AtomicCounterClock g_counter;

void BM_ClockTsc(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(g_tsc.read());
}
BENCHMARK(BM_ClockTsc)->Threads(1)->Threads(2)->Threads(4);

void BM_ClockSteady(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(g_steady.read());
}
BENCHMARK(BM_ClockSteady)->Threads(1)->Threads(2)->Threads(4);

void BM_ClockAtomicCounter(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(g_counter.read());
}
BENCHMARK(BM_ClockAtomicCounter)->Threads(1)->Threads(2)->Threads(4);

// ---- revisions ----------------------------------------------------------------

using Rev = Revision<std::uint64_t, std::uint64_t>;
using Bld = RevisionBuilder<std::uint64_t, std::uint64_t>;

Rev* make_revision(std::uint32_t n) {
  Bld b(RevKind::kPlain, n, 1);
  for (std::uint32_t i = 0; i < n; ++i) b.emit(i * 2, i);
  return b.finish();
}

void BM_RevisionBuild(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Rev* r = make_revision(n);
    Rev::unref(r, /*immediate=*/true);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RevisionBuild)->Arg(25)->Arg(100)->Arg(300);

void BM_RevisionFindBinary(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rev* r = make_revision(n);
  Rng rng(5);
  std::less<std::uint64_t> lt;
  for (auto _ : state) {
    const std::uint64_t k = rng.next_below(n) * 2;
    benchmark::DoNotOptimize(r->find_binary(k, lt));
  }
  Rev::unref(r, true);
}
BENCHMARK(BM_RevisionFindBinary)->Arg(25)->Arg(100)->Arg(300);

// ---- EBR ------------------------------------------------------------------------

void BM_EbrGuard(benchmark::State& state) {
  for (auto _ : state) {
    ebr::Guard g;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EbrGuard)->Threads(1)->Threads(4);

void BM_EbrRetire(benchmark::State& state) {
  for (auto _ : state) {
    auto* p = new std::uint64_t(1);
    ebr::retire(p);
  }
}
BENCHMARK(BM_EbrRetire);

// ---- end-to-end map ops (single thread reference numbers) -----------------------

// The repository benchmark's cached shape (perfbench/README.md): 64k 4 B/4 B
// keys, every other index of a 128k key space, preloaded in a seeded
// shuffle. A get there is the EBR guard, the tower descent and one binary
// search, so the descent is what remains after the perfbench probes
// ebr.guard_ns and core.revision.find_binary_ns.
using SmallMap = JiffyMap<std::uint32_t, std::uint32_t>;
constexpr std::uint64_t kSmallSpace = 131'072;

std::uint32_t small_key(std::uint64_t i) {
  return KeyCodec<std::uint32_t>::encode(i, kSmallSpace);
}

void preload_small(SmallMap& m) {
  std::vector<std::uint64_t> order;
  for (std::uint64_t i = 0; i < kSmallSpace; i += 2) order.push_back(i);
  Rng rng(1);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);
  for (std::uint64_t i : order)
    m.put(small_key(i), static_cast<std::uint32_t>(i));
}

// Overwrites of preloaded keys: the map keeps its preload shape, so every
// iteration is one descent, one revision rebuild, install and retire.
void BM_JiffyPut(benchmark::State& state) {
  SmallMap m;
  preload_small(m);
  Rng rng(3);
  for (auto _ : state)
    m.put(small_key(rng.next_below(kSmallSpace / 2) * 2), 1);
}
BENCHMARK(BM_JiffyPut);

// Uniform over the whole key space, so half the gets miss (as in perfbench).
void BM_JiffyGet(benchmark::State& state) {
  SmallMap m;
  preload_small(m);
  Rng rng(3);
  for (auto _ : state)
    benchmark::DoNotOptimize(m.get(small_key(rng.next_below(kSmallSpace))));
}
BENCHMARK(BM_JiffyGet);

void BM_JiffySnapshotAcquire(benchmark::State& state) {
  JiffyMap<std::uint64_t, std::uint64_t> m;
  m.put(1, 1);
  for (auto _ : state) {
    Snapshot s = m.snapshot();
    benchmark::DoNotOptimize(s.version());
  }
}
BENCHMARK(BM_JiffySnapshotAcquire);

void BM_JiffyScan100(benchmark::State& state) {
  JiffyMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 100'000; ++i) m.put(i, i);
  Rng rng(3);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    m.scan_n(rng.next_below(100'000), 100,
             [&](const std::uint64_t&, const std::uint64_t& v) { acc += v; });
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_JiffyScan100);

}  // namespace

BENCHMARK_MAIN();
