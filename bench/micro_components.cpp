// Component microbenchmarks (google-benchmark):
//   * clock sources — the paper quotes ~10 ns for RDTSCP and relies on it
//     being far cheaper than a contended atomic counter;
//   * revision operations — build and binary-search lookup, across the
//     paper's 25..300 size range;
//   * EBR guard and retire costs.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/jiffy.h"
#include "ebr/ebr.h"
#include "tsc/clock.h"
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
  Rev* r = b.finish();
  r->link_refs.store(1, std::memory_order_relaxed);
  return r;
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

void BM_JiffyPut(benchmark::State& state) {
  JiffyMap<std::uint64_t, std::uint64_t> m;
  Rng rng(3);
  for (auto _ : state) m.put(rng.next_below(100'000), 1);
}
BENCHMARK(BM_JiffyPut);

void BM_JiffyGet(benchmark::State& state) {
  JiffyMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 100'000; ++i) m.put(i, i);
  Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(m.get(rng.next_below(100'000)));
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
