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
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"  // cli_number, run_mix
#include "core/jiffy.h"
#include "tsc/clock.h"
#include "workload/keyvalue.h"

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
    std::printf("ablation_clock,%s,reads%.0f%%,%d,%.3f\n", name,
                read_fraction * 100, threads,
                bench::run_mix(map, space, read_fraction, o.seconds, threads,
                               17));
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  // Other flags are ignored, not rejected: run_all.sh hands every ablation
  // the figure flags. The two numbers read here must parse, and --entries
  // must be at least 1, or exit 2.
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto usage = [&](const char* why) {
      std::fprintf(stderr,
                   "%s: %s '%s'\n"
                   "usage: %s [--seconds=S] [--entries=N] "
                   "(other flags are ignored)\n",
                   argv[0], why, a.c_str(), argv[0]);
      std::exit(2);
    };
    auto number = [&]<class T>(T& out) {
      if (const std::optional<T> v = jiffy::bench::cli_number<T>(a.substr(10)))
        out = *v;
      else
        usage("malformed number in");
    };
    if (a.rfind("--seconds=", 0) == 0) number(o.seconds);
    if (a.rfind("--entries=", 0) == 0) {
      number(o.entries);
      if (o.entries == 0) usage("an empty key space from");
    }
  }
  std::printf("bench,clock,mix,threads,mops\n");
  for (double rf : {0.0, 0.75}) {
    run<jiffy::TscClock>("tsc", o, rf);
    run<jiffy::SteadyClock>("steady", o, rf);
    run<jiffy::AtomicCounterClock>("counter", o, rf);
  }
  return 0;
}
