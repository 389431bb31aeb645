// Ablation A1 — version-number source (paper §3.2 + footnote 3).
//
// The paper reports that the first Jiffy, which used a shared atomic counter
// for version numbers, "did not scale past 4-8 threads", which motivated the
// TSC design. This bench runs the same map under its three clock sources:
//   tsc      RDTSCP (the paper's design)
//   steady   std::chrono::steady_clock (portable fallback, a vDSO call)
//   counter  shared fetch_add counter (the design the paper rejects)
// and prints update-only and mixed throughput per thread count. Expect the
// counter to flatten or regress as threads grow while tsc keeps scaling.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"  // cli_number
#include "core/jiffy.h"
#include "tsc/clock.h"
#include "workload/keyvalue.h"
#include "workload/rng.h"

namespace {

using namespace jiffy;

struct Options {
  double seconds = 0.2;
  std::uint64_t entries = 20'000;
  std::vector<int> threads = {1, 2, 4, 8};
};

template <class Clock>
void run(const char* name, const Options& o, double read_fraction) {
  JiffyMap<std::uint64_t, std::uint64_t, std::less<std::uint64_t>, Clock> map;
  const std::uint64_t space = o.entries * 2;
  for (std::uint64_t i = 0; i < o.entries; ++i)
    map.put(KeyCodec<std::uint64_t>::encode(2 * i, space), i);  // interleave

  for (int threads : o.threads) {
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> ops{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        Rng rng(17 + t);
        std::uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t i = rng.next_below(space);
          const auto k = KeyCodec<std::uint64_t>::encode(i, space);
          if (rng.next_double() < read_fraction)
            map.get(k);
          else if (rng.next_bool(0.5))
            map.put(k, rng.next());
          else
            map.erase(k);
          ++n;
        }
        ops.fetch_add(n, std::memory_order_relaxed);
      });
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(o.seconds));
    stop.store(true);
    for (auto& th : ts) th.join();
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("ablation_clock,%s,reads%.0f%%,%d,%.3f\n", name,
                read_fraction * 100, threads,
                static_cast<double>(ops.load()) / dt / 1e6);
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  // Other flags are ignored, not rejected: run_all.sh hands every ablation
  // the figure flags. The two numbers read here must parse, or exit 2.
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto number = [&]<class T>(T& out) {
      const std::optional<T> v = jiffy::bench::cli_number<T>(a.substr(10));
      if (v) {
        out = *v;
        return;
      }
      std::fprintf(stderr,
                   "%s: malformed number in '%s'\n"
                   "usage: %s [--seconds=S] [--entries=N] "
                   "(other flags are ignored)\n",
                   argv[0], a.c_str(), argv[0]);
      std::exit(2);
    };
    if (a.rfind("--seconds=", 0) == 0) number(o.seconds);
    if (a.rfind("--entries=", 0) == 0) number(o.entries);
  }
  std::printf("bench,clock,mix,threads,mops\n");
  for (double rf : {0.0, 0.75}) {
    run<jiffy::TscClock>("tsc", o, rf);
    run<jiffy::SteadyClock>("steady", o, rf);
    run<jiffy::AtomicCounterClock>("counter", o, rf);
  }
  return 0;
}
