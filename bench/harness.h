// Figure-regeneration harness (paper §4).
//
// Reproduces the microbenchmark of the evaluation: per-thread single-role
// workloads (update / lookup / range-scan threads), four scenarios, batch
// modes (simple, 10-op, 100-op × sequential/random), uniform or Zipfian key
// choice, both key/value shapes, swept over a thread grid for every index.
//
// Scenarios (paper §4.2, plus the range/reverse extension):
//   a: 100% update threads
//   b: 25% update, 75% lookup
//   c: 25% update, 50% lookup, 25% scan (100 entries)
//   d: 25% update, 50% lookup, 25% scan (10000 entries)
//   e: 25% update, 25% lookup, 25% bounded-range scan ([k, k+100)),
//      25% reverse scan (100 entries descending) — exercises the
//      MapApi range_scan/rscan_n surface on every index
//
// Reported numbers are millions of *basic operations* per second: one
// put/remove/get counts 1, a scan over n entries counts n, a B-op batch
// counts B. Each row also reports the update-only throughput — the appendix
// figures (7-10) are the same runs with that second series plotted.
//
// Scale: defaults target a small machine (see DESIGN.md §2 scale note); the
// paper's sizes are reached with --entries, --threads and --seconds.
// Latency columns (DESIGN.md §15): every CSV row carries p50/p99/p999
// microseconds over the cell's sampled per-op latencies: the service time of
// 1 op in 4, two TSC reads per sampled op — cheap enough to stay inside the
// §15 overhead budget, but a stalled op delays the next op's start, so tails
// are understated under saturation (classic coordinated omission).
// --metrics=<file> additionally dumps per-cell counter deltas + per-role
// histograms as JSON (schema jiffy-metrics-v1; read by check_scaling.py).
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/cslm.h"
#include "common/striped_counter.h"  // CachePadded
#include "core/jiffy.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "tsc/clock.h"
#include "workload/keyvalue.h"
#include "workload/rng.h"

namespace jiffy::bench {

// The surface the harness drives every index through. `scan_n` visits up to
// n entries with key >= from in ascending order; `rscan_n` up to n entries
// with key <= from in descending order; `range_scan` every entry in the
// half-open range [lo, hi) ascending. All three return the visit count.
// `apply` consumes a typed Batch (atomic only on JiffyMap).
template <class M>
concept MapApi = requires(M& m, const M& cm, const typename M::key_type& k,
                          const typename M::mapped_type& v,
                          Batch<typename M::key_type,
                                typename M::mapped_type> b) {
  { m.put(k, v) } -> std::same_as<bool>;
  { m.erase(k) } -> std::same_as<bool>;
  { cm.get(k) } -> std::same_as<std::optional<typename M::mapped_type>>;
  { m.apply(std::move(b)) } -> std::same_as<void>;
  { cm.scan_n(k, std::size_t{1},
              [](const typename M::key_type&,
                 const typename M::mapped_type&) {}) }
      -> std::same_as<std::size_t>;
  { cm.rscan_n(k, std::size_t{1},
               [](const typename M::key_type&,
                  const typename M::mapped_type&) {}) }
      -> std::same_as<std::size_t>;
  { cm.range_scan(k, k,
                  [](const typename M::key_type&,
                     const typename M::mapped_type&) {}) }
      -> std::same_as<std::size_t>;
};

enum class Scenario {
  kUpdateOnly,
  kUpdateLookup,
  kMixedShortScan,
  kMixedLongScan,
  kMixedRange,
};

inline const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kUpdateOnly: return "a_update";
    case Scenario::kUpdateLookup: return "b_lookup75";
    case Scenario::kMixedShortScan: return "c_scan100";
    case Scenario::kMixedLongScan: return "d_scan10k";
    case Scenario::kMixedRange: return "e_range";
  }
  return "?";
}

struct BatchMode {
  std::size_t size = 0;  // 0 = simple put/remove
  bool sequential = false;

  std::string name() const {
    if (size == 0) return "simple";
    return "b" + std::to_string(size) + (sequential ? "_seq" : "_rand");
  }
};

struct RunConfig {
  std::string figure;
  std::string kv_shape;
  KeyChooser::Kind dist = KeyChooser::Kind::Uniform;
  std::uint64_t entries = 20'000;
  double seconds = 0.15;
  // Jiffy's autoscaler EMAs are time-weighted (paper §3.3.6 reports ~1-10 s
  // adjustment time); the warmup runs the mix once so measured cells see the
  // adapted revision sizes, not the transient.
  double warmup = 0.5;
  std::vector<int> threads = {1, 2, 4};
  Scenario scenario = Scenario::kUpdateOnly;
  BatchMode batch;
  // Repetitions per cell; the best rep is reported. Short cells on a shared
  // (or single-core, oversubscribed) box are scheduler-noise-dominated, and
  // max-of-N is the standard robust estimator for "what the code can do".
  int reps = 1;

  // 2x entries, like the paper's 20M keys over 10M entries.
  std::uint64_t key_space() const { return entries * 2; }
};

// Latency op classes: one histogram per per-thread role kind, merged across
// workers after join. A scan/range op is one whole scan call.
enum LatClass { kLatPut = 0, kLatGet, kLatScan, kLatBatch, kLatClassCount };
inline constexpr const char* kLatClassNames[kLatClassCount] = {"put", "get",
                                                               "scan", "batch"};

struct RowResult {
  double total_mops = 0;
  double update_mops = 0;
  obs::LatHistogram lat[kLatClassCount];  // TSC ticks; see ticks_per_us
  double ticks_per_us = 1.0;              // per-cell calibration
};

inline double hist_pct_us(const obs::LatHistogram& h, double p,
                          double ticks_per_us) {
  if (h.count() == 0 || ticks_per_us <= 0) return 0;
  return static_cast<double>(h.value_at_percentile(p)) / ticks_per_us;
}

// Per-worker latency instrumentation: the service time of 1 op in 4 (see the
// header comment). Strictly single-threaded (one LatMeter per worker, merged
// after join). Compiles to nothing under JIFFY_OBS=0 so the obs-off twin
// bench measures the bare op loop.
struct LatMeter {
  obs::LatHistogram hist;
  TscClock tsc;
  std::uint64_t t0 = 0;
  std::uint64_t n = 0;

  // Call before the op.
  void begin() {
#if JIFFY_OBS
    t0 = (n & 3) == 0 ? tsc.read() : 0;
#endif
  }

  // Call after the op completes.
  void end() {
#if JIFFY_OBS
    ++n;
    if (t0 != 0) hist.record(tsc.read() - t0);
#endif
  }
};

// Thread-role split of the paper: indices below are "percent * threads".
// scan_len / range_span are defaulted: only the scan scenarios set them, and
// the update-only branches spell out the no-scanner split explicitly.
struct RoleSplit {
  int updaters = 0;
  int lookups = 0;
  int scanners = 0;
  int rev_scanners = 0;    // rscan_n threads (descending, scan_len entries)
  int rangers = 0;         // range_scan threads ([k, k+range_span) half-open)
  std::size_t scan_len = 0;
  std::uint64_t range_span = 0;  // key-index width of each bounded range
};

inline RoleSplit roles_for(Scenario s, int threads) {
  auto pct = [&](double p) {
    int n = static_cast<int>(p * threads + 0.5);
    return n < 1 ? 1 : n;
  };
  switch (s) {
    case Scenario::kUpdateOnly:
      return {.updaters = threads, .lookups = 0, .scanners = 0};
    case Scenario::kUpdateLookup: {
      const int upd = threads >= 4 ? pct(0.25) : 1;
      return {.updaters = upd, .lookups = threads - upd, .scanners = 0};
    }
    case Scenario::kMixedShortScan:
    case Scenario::kMixedLongScan: {
      int upd = threads >= 4 ? pct(0.25) : 1;
      int scan = threads >= 4 ? pct(0.25) : 1;
      int look = threads - upd - scan;
      if (look < 0) {
        look = 0;
        scan = threads - upd;
        if (scan < 0) scan = 0;
      }
      return {.updaters = upd, .lookups = look, .scanners = scan,
              .scan_len = s == Scenario::kMixedShortScan ? std::size_t{100}
                                                         : std::size_t{10'000}};
    }
    case Scenario::kMixedRange: {
      RoleSplit r;
      r.scan_len = 100;
      r.range_span = 100;
      if (threads < 4) {
        r.updaters = 1;
        if (threads >= 2) r.rangers = 1;
        if (threads >= 3) r.rev_scanners = 1;
        return r;
      }
      r.updaters = pct(0.25);
      r.rangers = pct(0.25);
      r.rev_scanners = pct(0.25);
      r.lookups = threads - r.updaters - r.rangers - r.rev_scanners;
      if (r.lookups < 0) r.lookups = 0;
      return r;
    }
  }
  return {.updaters = threads};
}

// Runs one (index, config, thread-count) cell against a preloaded index.
// The chooser is passed in: it is immutable and identical for the whole
// sweep, and constructing it is O(key_space) for Zipf (the zeta sum), which
// at the paper's 10M entries would otherwise be paid once per cell.
template <MapApi Map>
RowResult run_cell(Map& idx, const RunConfig& cfg, int threads,
                   const KeyChooser& chooser) {
  using K = typename Map::key_type;
  using V = typename Map::mapped_type;
  const RoleSplit roles = roles_for(cfg.scenario, threads);
  const std::uint64_t space = cfg.key_space();

  // start and stop are written by the coordinator while every worker polls
  // them; padded apart so the stop store does not invalidate the line the
  // start spin reads.
  CachePadded<std::atomic<bool>> start_pad;
  CachePadded<std::atomic<bool>> stop_pad;
  std::atomic<bool>& start = start_pad.value;
  std::atomic<bool>& stop = stop_pad.value;
  // One record per worker, written (plainly) once by its owner after its
  // loop and read only after join(). Cold until then, so unpadded.
  struct WorkerRecord {
    std::uint64_t ops = 0;  // basic operations (see the header comment)
    LatClass cls = kLatPut;
    obs::LatHistogram hist;
  };
  std::vector<WorkerRecord> records(
      static_cast<std::size_t>(threads > 0 ? threads : 1));

  // The one worker loop: starts n workers of one role, tids in spawn order.
  // Each seeds its Rng with seed + tid, waits for start, calls op (which
  // returns the basic operations it did) until stop, times 1 call in 4 and
  // writes its record. op is the role's own lambda type, so the call
  // inlines. start is a release/acquire edge (pairs: harness-start-stop) so
  // workers cannot observe it before t0 is taken; stop is relaxed and the
  // records are plain because the joins below order everything written.
  std::vector<std::thread> ts;
  int next_tid = 0;
  auto spawn = [&](int n, std::uint64_t seed, LatClass cls, auto op) {
    for (int i = 0; i < n; ++i) {
      ts.emplace_back([&start, &stop, &records, op, seed, cls,
                       tid = next_tid++] {
        Rng rng(seed + static_cast<std::uint64_t>(tid));
        std::uint64_t ops = 0;
        LatMeter lm;
        // pairs: harness-start-stop
        while (!start.load(std::memory_order_acquire))
          std::this_thread::yield();  // oversubscribed: let the coordinator run
        // relaxed: advisory stop flag; thread join orders the record writes.
        while (!stop.load(std::memory_order_relaxed)) {
          lm.begin();
          ops += op(rng);
          lm.end();
        }
        records[static_cast<std::size_t>(tid)] = {ops, cls, lm.hist};
      });
    }
  };

  if (cfg.batch.size == 0) {
    spawn(roles.updaters, 0xBEEF, kLatPut, [&](Rng& rng) -> std::uint64_t {
      const std::uint64_t i = chooser.next_index(rng);
      const K k = KeyCodec<K>::encode(i, space);
      if (rng.next_bool(0.5))
        idx.put(k, ValueCodec<V>::make(i, rng.next()));
      else
        idx.erase(k);
      return 1;
    });
  } else {
    spawn(roles.updaters, 0xBEEF, kLatBatch, [&](Rng& rng) -> std::uint64_t {
      Batch<K, V> b;
      b.reserve(cfg.batch.size);
      std::uint64_t i = chooser.next_index(rng);
      for (std::size_t j = 0; j < cfg.batch.size; ++j) {
        if (!cfg.batch.sequential) i = chooser.next_index(rng);
        const K k = KeyCodec<K>::encode(i % space, space);
        if (rng.next_bool(0.5))
          b.put(k, ValueCodec<V>::make(i, rng.next()));
        else
          b.erase(k);
        if (cfg.batch.sequential) ++i;
      }
      idx.apply(std::move(b));
      return cfg.batch.size;
    });
  }
  spawn(roles.lookups, 0xFACE, kLatGet, [&](Rng& rng) -> std::uint64_t {
    idx.get(KeyCodec<K>::encode(chooser.next_index(rng), space));
    return 1;
  });
  spawn(roles.scanners, 0x5CA9, kLatScan, [&](Rng& rng) {
    return idx.scan_n(KeyCodec<K>::encode(chooser.next_index(rng), space),
                      roles.scan_len, [](const K&, const V&) {});
  });
  spawn(roles.rev_scanners, 0xD15C, kLatScan, [&](Rng& rng) {
    return idx.rscan_n(KeyCodec<K>::encode(chooser.next_index(rng), space),
                       roles.scan_len, [](const K&, const V&) {});
  });
  spawn(roles.rangers, 0x7A11, kLatScan, [&](Rng& rng) {
    const std::uint64_t lo_i = chooser.next_index(rng);
    const std::uint64_t hi_i = std::min(lo_i + roles.range_span, space - 1);
    return idx.range_scan(KeyCodec<K>::encode(lo_i, space),
                          KeyCodec<K>::encode(hi_i, space),
                          [](const K&, const V&) {});
  });

  const TscClock cal;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t c0 = cal.read();
  start.store(true, std::memory_order_release);  // pairs: harness-start-stop
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.seconds));
  // relaxed: advisory stop flag; thread join orders the record writes.
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : ts) t.join();
  const std::uint64_t c1 = cal.read();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  RowResult r;
  // Every worker has been joined, so the plain record reads are race-free.
  std::uint64_t total = 0;
  std::uint64_t updates = 0;
  for (const WorkerRecord& w : records) {
    total += w.ops;
    if (w.cls == kLatPut || w.cls == kLatBatch) updates += w.ops;
    r.lat[w.cls].merge(w.hist);
  }
  r.total_mops = static_cast<double>(total) / dt / 1e6;
  r.update_mops = static_cast<double>(updates) / dt / 1e6;
  // Ticks→µs calibration over this cell's own wall span, so percentile
  // conversion tracks the actual tick rate of the run, not a boot estimate.
  r.ticks_per_us =
      dt > 0 ? static_cast<double>(c1 - c0) / (dt * 1e6) : 1.0;
  return r;
}

// ---- metrics JSON sink (--metrics=<file>) --------------------------------
// Cells are appended as pre-serialized JSON objects while the figure runs
// and flushed once at the end (schema jiffy-metrics-v1, read by
// tools/check_scaling.py --metrics=). A process-global sink keeps the
// plumbing out of the templated run_index/run_cell signatures.
struct MetricsSink {
  std::string path;                // empty = metrics disabled
  std::vector<std::string> cells;  // serialized JSON objects
};

inline MetricsSink& metrics_sink() {
  static MetricsSink s;
  return s;
}

inline void append_json_hist(std::string& out, const char* hist_name,
                             const obs::LatHistogram& h, double ticks_per_us) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"%s\":{\"count\":%llu,\"p50_us\":%.3f,\"p99_us\":%.3f,"
                "\"p999_us\":%.3f,\"max_us\":%.3f}",
                hist_name, static_cast<unsigned long long>(h.count()),
                hist_pct_us(h, 50.0, ticks_per_us),
                hist_pct_us(h, 99.0, ticks_per_us),
                hist_pct_us(h, 99.9, ticks_per_us),
                ticks_per_us > 0
                    ? static_cast<double>(h.max()) / ticks_per_us
                    : 0.0);
  out += buf;
}

inline void append_metrics_cell(const RunConfig& cfg, const char* index_name,
                                int threads, const RowResult& r,
                                const obs::MetricsSnapshot& delta,
                                const std::string& map_json) {
  MetricsSink& sink = metrics_sink();
  if (sink.path.empty()) return;
  std::string c = "{";
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "\"figure\":\"%s\",\"scenario\":\"%s\",\"batch\":\"%s\","
      "\"dist\":\"%s\",\"kv\":\"%s\",\"index\":\"%s\",\"threads\":%d,"
      "\"seconds\":%.3f,\"reps\":%d,\"total_mops\":%.3f,\"update_mops\":%.3f",
      cfg.figure.c_str(), scenario_name(cfg.scenario),
      cfg.batch.name().c_str(),
      cfg.dist == KeyChooser::Kind::Uniform ? "uniform" : "zipf",
      cfg.kv_shape.c_str(), index_name, threads, cfg.seconds, cfg.reps,
      r.total_mops, r.update_mops);
  c += buf;
  c += ",\"counters\":{";
  for (unsigned i = 0; i < obs::kEventCount; ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":%lld", i ? "," : "",
                  obs::kEventNames[i],
                  static_cast<long long>(delta.events[i]));
    c += buf;
  }
  std::snprintf(buf, sizeof buf, ",\"%s\":%lld}", obs::kLimboPeakName,
                static_cast<long long>(delta.limbo_peak));
  c += buf;
  obs::LatHistogram all;
  for (int i = 0; i < kLatClassCount; ++i) all.merge(r.lat[i]);
  c += ",\"latency\":{";
  append_json_hist(c, "all", all, r.ticks_per_us);
  for (int i = 0; i < kLatClassCount; ++i) {
    if (r.lat[i].count() == 0) continue;
    c += ",";
    append_json_hist(c, kLatClassNames[i], r.lat[i], r.ticks_per_us);
  }
  c += "}";
  if (!map_json.empty()) c += ",\"map\":" + map_json;
  c += "}";
  sink.cells.push_back(std::move(c));
}

inline void write_metrics_file() {
  MetricsSink& sink = metrics_sink();
  if (sink.path.empty()) return;
  std::FILE* f = std::fopen(sink.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics: cannot open %s\n", sink.path.c_str());
    return;
  }
  std::fprintf(f, "{\"schema\":\"jiffy-metrics-v1\",\"obs\":%d,\"cells\":[\n",
               static_cast<int>(JIFFY_OBS));
  for (std::size_t i = 0; i < sink.cells.size(); ++i)
    std::fprintf(f, "%s%s\n", sink.cells[i].c_str(),
                 i + 1 < sink.cells.size() ? "," : "");
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// Sweeps the thread grid. Every thread-count cell gets its OWN index,
// preloaded identically and warmed with the cell's own thread count: cells
// used to share one instance, so cell N measured the map state (and heap
// state) left behind by cells 1..N-1 — the higher thread counts, which run
// last, absorbed the whole churn history of the run, and the "scaling"
// ratio conflated map aging with threads (measured on fig10: a shared-map
// 8-thread cell ran ~25% slower than the identical fresh-map cell). Reps
// within a cell still share the cell's index — every cell ages the same
// way, so best-of-N stays comparable across thread counts.
template <MapApi Map>
void run_index(const RunConfig& cfg, const char* name) {
  using K = typename Map::key_type;
  using V = typename Map::mapped_type;
  const auto preload = [&cfg](Map& idx) {
    // Shuffled preload: ascending insertion would land every split on the
    // right edge. Indices are strided across the whole key space (every
    // other lattice point of the 2x domain) so present and absent keys
    // interleave — otherwise every miss would route to the node past the
    // last key.
    std::vector<std::uint64_t> order(cfg.entries);
    for (std::uint64_t i = 0; i < cfg.entries; ++i) order[i] = i * 2;
    Rng rng(1);
    for (std::uint64_t i = cfg.entries; i > 1; --i)
      std::swap(order[i - 1], order[rng.next_below(i)]);
    for (const std::uint64_t i : order)
      idx.put(KeyCodec<K>::encode(i, cfg.key_space()),
              ValueCodec<V>::make(i, 0));
  };
  // Zipfian draws use KeyChooser's theta, the paper's 0.99.
  const KeyChooser chooser(cfg.dist, cfg.key_space());
  for (int threads : cfg.threads) {
    Map idx;
    preload(idx);
    if (cfg.warmup > 0) {
      RunConfig warm = cfg;
      warm.seconds = cfg.warmup;
      run_cell(idx, warm, threads, chooser);
    }
    // Counter deltas are taken AFTER warmup so the attributed window covers
    // exactly the measured reps (cells run sequentially; see MetricsSnapshot).
    const obs::MetricsSnapshot snap0 = obs::snapshot();
    RowResult r = run_cell(idx, cfg, threads, chooser);
    for (int rep = 1; rep < cfg.reps; ++rep) {
      const RowResult q = run_cell(idx, cfg, threads, chooser);
      if (q.total_mops > r.total_mops) r = q;
    }
    const obs::MetricsSnapshot delta = obs::snapshot() - snap0;
    obs::LatHistogram all;
    for (int c = 0; c < kLatClassCount; ++c) all.merge(r.lat[c]);
    std::printf("%s,%s,%s,%s,%s,%s,%d,%.3f,%.3f,%.2f,%.2f,%.2f\n",
                cfg.figure.c_str(), scenario_name(cfg.scenario),
                cfg.batch.name().c_str(),
                cfg.dist == KeyChooser::Kind::Uniform ? "uniform" : "zipf",
                cfg.kv_shape.c_str(), name, threads, r.total_mops,
                r.update_mops, hist_pct_us(all, 50.0, r.ticks_per_us),
                hist_pct_us(all, 99.0, r.ticks_per_us),
                hist_pct_us(all, 99.9, r.ticks_per_us));
    std::fflush(stdout);
    if (!metrics_sink().path.empty()) {
      std::string map_json;
      if constexpr (requires { idx.debug_stats(); }) {
        const auto ds = idx.debug_stats();
        char buf[512];
        std::snprintf(
            buf, sizeof buf,
            "{\"node_count\":%zu,\"entry_count\":%zu,"
            "\"avg_revision_size\":%.2f,\"target_revision_size\":%u,"
            "\"read_fraction_ema\":%.3f,\"tombstone_count\":%zu,"
            "\"dead_shell_estimate\":%zu,\"purged_total\":%llu,"
            "\"revision_bytes\":%zu,\"revision_slack_bytes\":%zu,"
            "\"node_bytes\":%zu}",
            ds.node_count, ds.entry_count, ds.avg_revision_size,
            ds.target_revision_size, ds.read_fraction_ema, ds.tombstone_count,
            ds.dead_shell_estimate,
            static_cast<unsigned long long>(ds.purged_total),
            ds.revision_bytes, ds.revision_slack_bytes, ds.node_bytes);
        map_json = buf;
      }
      append_metrics_cell(cfg, name, threads, r, delta, map_json);
    }
  }
}

struct CliOptions {
  RunConfig run;  // --seconds, --warmup, --entries, --threads and --reps
  std::string only_index;     // run just one index: jiffy or cslm
  std::string only_scenario;  // run just one scenario: a..e
  bool skip_batches = false;
  std::string metrics_path;  // --metrics=<file>: JSON counter/latency dump
  std::string trace_path;    // --trace=<file>: binary event-trace dump
};

inline constexpr const char* kCliFlags =
    "flags: --seconds=S | --warmup=S | --entries=N | "
    "--threads=a,b,c | --index=jiffy|cslm | --scenario=a|b|c|d|e | "
    "--no-batches | --reps=N | "
    "--metrics=FILE (per-cell counter/latency JSON) | "
    "--trace=FILE (binary event trace, see tools/traceview.py)\n";

// All of `s` as a T, or nullopt: from_chars takes no sign on unsigned types,
// no blanks and no trailing junk. Durations must be finite, >= 0.
template <class T>
std::optional<T> cli_number(const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc{} || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(v) || v < 0) return std::nullopt;
  return v;
}

// The ablations' closed loop: `threads` workers, worker t seeded seed + t,
// each drawing a get at `read_fraction`, else a put or an erase at even odds,
// on keys uniform over [0, space), for `seconds`. Returns Mops. No latency
// meter: ablation_clock compares clock-read costs, and an rdtsc per sampled
// op would add to every variant.
template <class Map>
double run_mix(Map& map, std::uint64_t space, double read_fraction,
               double seconds, int threads, std::uint64_t seed) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> op_count{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      Rng rng(seed + static_cast<std::uint64_t>(t));
      std::uint64_t n = 0;
      // relaxed: advisory stop flag; thread join orders the op total.
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
      // relaxed: only the total matters, read after join.
      op_count.fetch_add(n, std::memory_order_relaxed);
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  // relaxed: advisory stop flag; thread join orders the op total.
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : ts) th.join();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // relaxed: every adder has been joined.
  const std::uint64_t total = op_count.load(std::memory_order_relaxed);
  return static_cast<double>(total) / dt / 1e6;
}

// Unknown flags and malformed numbers exit 2 with a usage line, before any
// CSV row: a typo must not silently run the default grid.
inline CliOptions parse_cli(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const std::size_t eq = a.find('=');
    const std::string flag = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    auto usage = [&](const char* why) {
      std::fprintf(stderr, "%s: %s '%s'\nusage: %s [flags]\n%s", argv[0], why,
                   a.c_str(), argv[0], kCliFlags);
      std::exit(2);
    };
    auto number = [&]<class T>(T& out, const std::string& s) {
      if (const std::optional<T> v = cli_number<T>(s))
        out = *v;
      else
        usage("malformed number in");
    };
    if (flag == "--seconds") {
      number(o.run.seconds, val);
    } else if (flag == "--warmup") {
      number(o.run.warmup, val);
    } else if (flag == "--entries") {
      number(o.run.entries, val);
      if (o.run.entries == 0) usage("an empty key space from");
    } else if (flag == "--threads") {
      o.run.threads.clear();
      for (std::size_t pos = 0; pos <= val.size();) {
        const std::size_t comma = std::min(val.find(',', pos), val.size());
        number(o.run.threads.emplace_back(), val.substr(pos, comma - pos));
        if (o.run.threads.back() < 1) usage("malformed number in");
        pos = comma + 1;
      }
    } else if (flag == "--index") {
      o.only_index = val;
      if (o.only_index != "jiffy" && o.only_index != "cslm") {
        std::fprintf(stderr, "unknown --index=%s (valid: jiffy, cslm)\n",
                     o.only_index.c_str());
        std::exit(2);
      }
    } else if (flag == "--scenario") {
      o.only_scenario = val;
      if (o.only_scenario.size() != 1 || o.only_scenario[0] < 'a' ||
          o.only_scenario[0] > 'e') {
        std::fprintf(stderr,
                     "unknown --scenario=%s (valid: a, b, c, d, e)\n",
                     o.only_scenario.c_str());
        std::exit(2);
      }
    } else if (a == "--no-batches") {
      o.skip_batches = true;
    } else if (flag == "--reps") {
      number(o.run.reps, val);
      o.run.reps = std::max(1, o.run.reps);
    } else if (flag == "--metrics" && eq != std::string::npos) {
      o.metrics_path = val;
    } else if (flag == "--trace" && eq != std::string::npos) {
      o.trace_path = val;
    } else if (a == "--help") {
      std::printf("%s", kCliFlags);
      std::exit(0);
    } else {
      usage("unknown flag");
    }
  }
  return o;
}

// Runs one complete figure: the simple-update row for every index, then the
// batch rows for Jiffy, the one index whose apply() is atomic.
template <class K, class V>
void run_figure(const char* figure, const char* kv_shape,
                KeyChooser::Kind dist, const CliOptions& cli) {
  RunConfig base = cli.run;
  base.figure = figure;
  base.kv_shape = kv_shape;
  base.dist = dist;
  metrics_sink().path = cli.metrics_path;
  if (!cli.trace_path.empty()) obs::trace_enable(true);

  std::printf(
      "figure,scenario,batch,dist,kv,index,threads,total_mops,update_mops,"
      "p50_us,p99_us,p999_us\n");

  const Scenario scenarios[] = {Scenario::kUpdateOnly, Scenario::kUpdateLookup,
                                Scenario::kMixedShortScan,
                                Scenario::kMixedLongScan,
                                Scenario::kMixedRange};
  auto scenario_enabled = [&](Scenario s) {
    return cli.only_scenario.empty() ||
           cli.only_scenario[0] == scenario_name(s)[0];
  };
  auto index_enabled = [&](const char* n) {
    return cli.only_index.empty() || cli.only_index == n;
  };

  for (Scenario s : scenarios) {
    if (!scenario_enabled(s)) continue;
    RunConfig cfg = base;
    cfg.scenario = s;

    // Simple put/remove row: every index (Figure top rows).
    cfg.batch = BatchMode{};
    if (index_enabled("jiffy")) run_index<JiffyMap<K, V>>(cfg, "jiffy");
    if (index_enabled("cslm")) run_index<baselines::CslmMap<K, V>>(cfg, "cslm");

    // Batch rows (Figure middle/bottom): CSLM's apply() is a plain loop.
    if (cli.skip_batches || !index_enabled("jiffy")) continue;
    for (std::size_t bsz : {std::size_t{10}, std::size_t{100}}) {
      for (bool seq : {true, false}) {
        cfg.batch = BatchMode{bsz, seq};
        run_index<JiffyMap<K, V>>(cfg, "jiffy");
      }
    }
  }

  write_metrics_file();
  if (!cli.trace_path.empty()) {
    const std::uint64_t n = obs::trace_dump(cli.trace_path.c_str());
    std::fprintf(stderr, "trace: wrote %llu events to %s\n",
                 static_cast<unsigned long long>(n), cli.trace_path.c_str());
  }
}

}  // namespace jiffy::bench
