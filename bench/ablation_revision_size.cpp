// Ablation A3 — revision sizing (paper §3.3.6).
//
// Part 1: fixed revision sizes 25..300 vs the autoscaler, under a write-heavy
// and a read-heavy mix. The paper's claim: small revisions win for updates,
// large ones for reads, and the autoscaler tracks the better setting (it
// reported ~35-entry revisions in write-only runs vs ~130 with 75% lookups).
//
// Part 2: adaptation trace — switch the workload from write-heavy to
// read-heavy mid-run and print the average head-revision size over time.
#include <cstdio>

#include "bench/harness.h"  // run_mix
#include "core/jiffy.h"
#include "workload/keyvalue.h"

namespace {

using namespace jiffy;
using Map = JiffyMap<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kEntries = 20'000;
constexpr std::uint64_t kSpace = kEntries * 2;

// bench::run_mix at this file's shape: 4 workers seeded 23 + t.
double run_mix(Map& map, double read_fraction, double seconds) {
  return bench::run_mix(map, kSpace, read_fraction, seconds, 4, 23);
}

void preload(Map& m) {
  for (std::uint64_t i = 0; i < kEntries; ++i)
    m.put(KeyCodec<std::uint64_t>::encode(2 * i, kSpace), i);  // interleave
}

}  // namespace

int main() {
  std::printf("bench,config,mix,mops,avg_rev_size\n");

  for (double rf : {0.0, 0.9}) {
    for (std::uint32_t fixed : {25u, 50u, 100u, 200u, 300u}) {
      JiffyConfig cfg;
      cfg.autoscaler.enabled = false;
      cfg.autoscaler.fixed_size = fixed;
      Map m(cfg);
      preload(m);
      const double mops = run_mix(m, rf, 0.2);
      std::printf("ablation_revsize,fixed%u,reads%.0f%%,%.3f,%.1f\n", fixed,
                  rf * 100, mops, m.debug_stats().avg_revision_size);
    }
    {
      Map m;  // autoscaler on
      preload(m);
      run_mix(m, rf, 0.3);  // warm up the EMAs
      const double mops = run_mix(m, rf, 0.2);
      std::printf("ablation_revsize,autoscale,reads%.0f%%,%.3f,%.1f\n",
                  rf * 100, mops, m.debug_stats().avg_revision_size);
    }
    std::fflush(stdout);
  }

  // Part 2: adaptation over time (write-heavy -> read-heavy).
  {
    Map m;
    preload(m);
    std::printf("bench,phase,t,avg_rev_size\n");
    for (int step = 0; step < 5; ++step) {
      run_mix(m, 0.0, 0.1);
      std::printf("ablation_adapt,writes,%d,%.1f\n", step,
                  m.debug_stats().avg_revision_size);
    }
    for (int step = 0; step < 5; ++step) {
      run_mix(m, 0.95, 0.1);
      std::printf("ablation_adapt,reads,%d,%.1f\n", step,
                  m.debug_stats().avg_revision_size);
    }
  }
  return 0;
}
