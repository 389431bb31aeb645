// perfbench: the repository benchmark program (see README.md beside it).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process, one fresh JiffyMap per run. It generates its inputs
// from --seed, builds and preloads the map single-threaded (several times,
// timing each as set-up), then runs kWorkers closed-loop worker threads on
// the workload's op mix: an unmeasured warm-up, then a window of --seconds
// split into kSubWindows equal sub-windows. Every operation's output is
// checked exactly (check.h) and the map is compared with the writers'
// shadows after the join.
//
// --trace 0 reports the end-to-end metrics. Throughput is the median over
// the sub-windows, so a stall confined to part of the window does not set
// the figure; latency percentiles cover the whole window.
// --trace 1 reports the per-layer metrics: it alternates plain and traced
// sub-windows (the gap between their throughputs is the tracing overhead),
// takes the engine's own counters over the window, its structure after it,
// host attribution, and the direct-call layer probes (probes.h).
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// The exit code is 0 only when every check passed.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check.h"
#include "core/jiffy.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "probes.h"
#include "workload/keyvalue.h"
#include "workload/rng.h"

namespace perfbench {
namespace {

using SteadyTime = std::chrono::steady_clock::time_point;
using jiffy::KeyChooser;

constexpr int kWorkers = static_cast<int>(kWriters);
constexpr int kSubWindows = 10;
constexpr std::size_t kBatchOps = 100;
constexpr int kScanLen = 100;
constexpr std::uint32_t kMixScale = 100'000;

// Calls per kMixScale; each mix comes from its workload's reason (README.md).
// A run reports the latency and per-layer metrics of the op classes its mix
// contains. batch_zipf, read_large and scan_snapshot are kept runnable but
// out of BENCHMARK.json: concurrent batches trip the output check through an
// engine defect, read_large's figures follow the host's drifting memory
// latency, and scan_snapshot's swing with the linked tombstones its seeks
// stop at (README.md).
struct Mix {
  std::uint32_t put, erase, get, batch, scan_fwd, scan_rev;
};

struct Workload {
  const char* name;
  bool wide;              // 8-byte keys and values; otherwise 4-byte
  std::uint64_t entries;  // preloaded keys; the key space is twice this
  KeyChooser::Kind dist;
  Mix mix;
  double warmup_s;
  int setup_reps;  // set-ups per run; setup_s is their median
};

constexpr Workload kWorkloads[] = {
    {"update_cached", false, 65'536, KeyChooser::Kind::Uniform,
     {40'000, 40'000, 20'000, 0, 0, 0}, 1.0, 9},
    {"read_cached", false, 65'536, KeyChooser::Kind::Uniform,
     {5'000, 5'000, 90'000, 0, 0, 0}, 4.0, 9},
    {"batch_zipf", true, 1u << 20, KeyChooser::Kind::Zipfian,
     {0, 0, 90'000, 10'000, 0, 0}, 1.0, 3},
    {"read_large", true, 1u << 20, KeyChooser::Kind::Uniform,
     {5'000, 5'000, 90'000, 0, 0, 0}, 4.0, 3},
    {"scan_snapshot", true, 1u << 20, KeyChooser::Kind::Uniform,
     {5'000, 5'000, 80'000, 0, 7'000, 3'000}, 4.0, 3},
};

enum OpClass { kGet, kUpdate, kBatch, kScan, kClasses };
constexpr const char* kClassNames[kClasses] = {"get", "update", "batch",
                                               "scan"};

// One worker's tallies for one phase (index 0 is the warm-up, 1..kSubWindows
// the measured sub-windows). Written only by its worker; read after join.
struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t keys = 0;    // keys read or written (paper §4's unit)
  std::uint64_t writes = 0;  // single-key put/erase calls
  std::uint64_t batches = 0;
  std::uint64_t batch_ops = 0;
  std::uint64_t batch_ticks = 0;
  std::uint64_t iter_ticks = 0;  // traced sub-windows: whole loop iterations
  std::uint64_t core_ticks = 0;  // traced sub-windows: their core calls
  jiffy::obs::LatHistogram lat[kClasses];
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

template <class K, class V>
class Bench {
 public:
  using Map = jiffy::JiffyMap<K, V>;
  using Value = TaggedValue<V>;

  explicit Bench(const Args& a)
      : a_(a),
        w_(*a.workload),
        keys_(2 * w_.entries),
        chooser_(w_.dist, keys_.space()),
        shadows_(kWriters, Shadow<V>(keys_.space())),
        tallies_(kWorkers, std::vector<Tally>(kSubWindows + 1)) {}

  int run() {
    setup();
    window();
    return report();
  }

 private:
  // ---- set-up ---------------------------------------------------------------

  void setup() {
    // Inputs: every other index of the key space, in a seeded shuffle.
    std::vector<std::uint64_t> order;
    for (std::uint64_t i = 0; i < keys_.space(); i += 2) order.push_back(i);
    jiffy::Rng rng(a_.seed);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next_below(i)]);
    for (std::uint64_t i : order) shadows_[i % kWriters].set(i, Value::make(i, 0));

    for (int r = 0; r < w_.setup_reps; ++r) {
      map_.reset();
      const SteadyTime t0 = std::chrono::steady_clock::now();
      map_ = std::make_unique<Map>();
      for (std::uint64_t i : order) map_->put(keys_.key(i), Value::make(i, 0));
      setup_s_.push_back(seconds_since(t0));
    }
  }

  // ---- measured window -----------------------------------------------------

  void window() {
    std::vector<std::thread> workers;
    for (int t = 0; t < kWorkers; ++t)
      workers.emplace_back([this, t] { worker(static_cast<unsigned>(t)); });
    const jiffy::TscClock tsc;
    start_.store(true, std::memory_order_release);  // pairs: perfbench-start
    std::this_thread::sleep_for(std::chrono::duration<double>(w_.warmup_s));

    counters0_ = jiffy::obs::snapshot();
    cpu0_ = read_cpu_times();
    const SteadyTime w0 = std::chrono::steady_clock::now();
    const std::uint64_t c0 = tsc.read();
    bounds_.push_back(w0);
    // relaxed: advisory phase index; join orders every tally read below.
    phase_.store(1, std::memory_order_relaxed);
    const auto sub = std::chrono::duration<double>(a_.seconds / kSubWindows);
    for (int s = 1; s <= kSubWindows; ++s) {
      std::this_thread::sleep_until(
          w0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   sub * s));
      bounds_.push_back(std::chrono::steady_clock::now());
      // relaxed: see above; kSubWindows + 1 stops the workers.
      phase_.store(s + 1, std::memory_order_relaxed);
    }
    ticks_per_us_ = static_cast<double>(tsc.read() - c0) /
                    (seconds_since(w0) * 1e6);
    counters1_ = jiffy::obs::snapshot();
    cpu1_ = read_cpu_times();
    for (std::thread& t : workers) t.join();
  }

  void worker(unsigned t) {
    jiffy::Rng rng(jiffy::splitmix64(a_.seed * 0x9E3779B97F4A7C15ull + t + 1));
    Shadow<V>& mine = shadows_[t];
    std::vector<Tally>& tally = tallies_[t];
    const jiffy::TscClock tsc;
    const Mix& m = w_.mix;
    const std::uint32_t c_put = m.put, c_erase = c_put + m.erase,
                        c_get = c_erase + m.get, c_batch = c_get + m.batch,
                        c_fwd = c_batch + m.scan_fwd;
    std::uint64_t seq = 0;
    std::uint64_t failed = 0;
    std::uint64_t nivcsw0 = 0;
    int seen = 0;
    struct BatchSlot {
      std::uint64_t index;
      V value;
      bool put;
    };
    std::array<BatchSlot, kBatchOps> slots{};
    std::array<std::pair<K, V>, kScanLen> seen_entries{};

    auto fail = [&](const char* what, std::uint64_t i) {
      if (failed++ < 5)
        std::fprintf(stderr, "perfbench: worker %u: %s check failed at key "
                     "index %llu\n", t, what,
                     static_cast<unsigned long long>(i));
    };
    auto owned = [&] {
      return owned_near(chooser_.next_index(rng), t, keys_.space());
    };

    while (!start_.load(std::memory_order_acquire))  // pairs: perfbench-start
      std::this_thread::yield();
    for (;;) {
      // relaxed: advisory phase index (see window()).
      const int ph = phase_.load(std::memory_order_relaxed);
      if (ph > kSubWindows) break;
      if (ph != seen && seen == 0) nivcsw0 = thread_nivcsw();
      seen = ph;
      Tally& w = tally[static_cast<std::size_t>(ph)];
      const bool traced = a_.trace && ph > 0 && ph % 2 == 0;
      const std::uint64_t it0 = traced ? tsc.read() : 0;
      const std::uint32_t dice =
          static_cast<std::uint32_t>(rng.next_below(kMixScale));
      std::uint64_t t0 = 0, t1 = 0;
      OpClass cls;
      if (dice < c_erase) {
        cls = kUpdate;
        const std::uint64_t i = owned();
        const K k = keys_.key(i);
        if (dice < c_put) {
          const V v = Value::make(i, ++seq);
          t0 = tsc.read();
          const bool inserted = map_->put(k, v);
          t1 = tsc.read();
          if (inserted == mine.has(i)) fail("put", i);
          mine.set(i, v);
        } else {
          t0 = tsc.read();
          const bool erased = map_->erase(k);
          t1 = tsc.read();
          if (erased != mine.has(i)) fail("erase", i);
          mine.clear(i);
        }
        ++w.writes;
        w.keys += 1;
      } else if (dice < c_get) {
        cls = kGet;
        const std::uint64_t i = chooser_.next_index(rng);
        const K k = keys_.key(i);
        t0 = tsc.read();
        const std::optional<V> got = map_->get(k);
        t1 = tsc.read();
        if ((got && Value::index_of(*got) != i) ||
            (i % kWriters == t && !mine.agrees(i, got ? &*got : nullptr)))
          fail("get", i);
        w.keys += 1;
      } else if (dice < c_batch) {
        cls = kBatch;
        jiffy::Batch<K, V> b;
        b.reserve(kBatchOps);
        for (std::size_t j = 0; j < kBatchOps; ++j) {
          BatchSlot& s = slots[j];
          s.index = owned();
          s.put = (j & 1) == 0;
          if (s.put) {
            s.value = Value::make(s.index, ++seq);
            b.put(keys_.key(s.index), s.value);
          } else {
            b.erase(keys_.key(s.index));
          }
        }
        t0 = tsc.read();
        map_->apply(std::move(b));
        t1 = tsc.read();
        for (const BatchSlot& s : slots) {
          if (s.put)
            mine.set(s.index, s.value);
          else
            mine.clear(s.index);
        }
        ++w.batches;
        w.batch_ops += kBatchOps;
        w.batch_ticks += t1 - t0;
        w.keys += kBatchOps;
      } else {
        cls = kScan;
        const bool forward = dice < c_fwd;
        const std::uint64_t i = chooser_.next_index(rng);
        const K k = keys_.key(i);
        int got = 0;
        t0 = tsc.read();
        {
          auto snap = map_->snapshot();
          if (forward) {
            for (auto c = snap.seek(k); c.valid() && got < kScanLen; c.next())
              seen_entries[got++] = {c.key(), c.value()};
          } else {
            for (auto c = snap.seek_for_prev(k); c.valid() && got < kScanLen;
                 c.prev())
              seen_entries[got++] = {c.key(), c.value()};
          }
        }
        t1 = tsc.read();
        for (int e = 0; e < got; ++e) {
          const auto& [ek, ev] = seen_entries[e];
          const bool ordered =
              e == 0 || (forward ? seen_entries[e - 1].first < ek
                                 : ek < seen_entries[e - 1].first);
          if (!ordered || keys_.index(ek) != Value::index_of(ev)) {
            fail("scan", i);
            break;
          }
        }
        w.keys += static_cast<std::uint64_t>(got);
      }
      ++w.ops;
      w.lat[cls].record(t1 - t0);
      if (traced) {
        w.iter_ticks += tsc.read() - it0;
        w.core_ticks += t1 - t0;
      }
    }
    nivcsw_[t] = thread_nivcsw() - nivcsw0;
    failed_[t] = failed;
    // Drain this thread's EBR limbo once no worker can hold a guard, so the
    // memory figure counts the map rather than reclamation timing.
    // relaxed: a counting barrier; the EBR epoch protocol orders the drain.
    done_.fetch_add(1, std::memory_order_relaxed);
    while (done_.load(std::memory_order_relaxed) < kWorkers)  // relaxed: see above
      std::this_thread::yield();
    jiffy::ebr::quiesce();
  }

  // ---- results --------------------------------------------------------------

  double sub_seconds(int s) const {
    return std::chrono::duration<double>(bounds_[s] - bounds_[s - 1]).count();
  }

  std::vector<double> sub_mkeys(bool want_traced) const {
    std::vector<double> v;
    for (int s = 1; s <= kSubWindows; ++s) {
      if (a_.trace && (s % 2 == 0) != want_traced) continue;
      std::uint64_t keys = 0;
      for (const auto& tw : tallies_) keys += tw[s].keys;
      v.push_back(static_cast<double>(keys) / sub_seconds(s) / 1e6);
    }
    return v;
  }

  bool runs(OpClass c) const {
    const Mix& m = w_.mix;
    switch (c) {
      case kGet: return m.get > 0;
      case kUpdate: return m.put + m.erase > 0;
      case kBatch: return m.batch > 0;
      default: return m.scan_fwd + m.scan_rev > 0;
    }
  }

  // The window's latency histogram of one op class, over every worker.
  jiffy::obs::LatHistogram window_latency(OpClass c) const {
    jiffy::obs::LatHistogram h;
    for (const auto& tw : tallies_)
      for (int s = 1; s <= kSubWindows; ++s) h.merge(tw[s].lat[c]);
    return h;
  }

  Tally window_sum() const {
    Tally sum;
    for (const auto& tw : tallies_) {
      for (int s = 1; s <= kSubWindows; ++s) {
        sum.ops += tw[s].ops;
        sum.keys += tw[s].keys;
        sum.writes += tw[s].writes;
        sum.batches += tw[s].batches;
        sum.batch_ops += tw[s].batch_ops;
        sum.batch_ticks += tw[s].batch_ticks;
        sum.iter_ticks += tw[s].iter_ticks;
        sum.core_ticks += tw[s].core_ticks;
      }
    }
    return sum;
  }

  int report() {
    const double window_s =
        std::chrono::duration<double>(bounds_.back() - bounds_.front()).count();
    const auto stats = map_->debug_stats();
    const auto ev = counters1_ - counters0_;
    std::uint64_t live = 0;
    for (const Shadow<V>& s : shadows_) live += s.size();

    // Exact final-state check, then the checker's self-test: the same
    // comparison against a shadow with one flipped bit must fail.
    std::vector<std::pair<K, V>> scan;
    scan.reserve(live);
    {
      auto snap = map_->snapshot();
      for (auto c = snap.first(); c.valid(); c.next())
        scan.emplace_back(c.key(), c.value());
    }
    const std::uint64_t final_bad = compare_final(scan, shadows_, keys_);
    shadows_[0].toggle_first_value();
    const std::uint64_t corrupted_bad = compare_final(scan, shadows_, keys_);
    shadows_[0].toggle_first_value();
    const bool self_test_ok = corrupted_bad > 0;

    std::uint64_t attempted = live, failed = final_bad;
    for (int t = 0; t < kWorkers; ++t) {
      failed += failed_[t];
      for (const Tally& tw : tallies_[t]) attempted += tw.ops;
    }
    const bool correct = failed == 0 && self_test_ok;
    std::printf("workload %s seed %llu: window %.3f s, %d workers\n", w_.name,
                static_cast<unsigned long long>(a_.seed), window_s, kWorkers);
    std::printf("setup:");
    for (double x : setup_s_) std::printf(" %.4f", x);
    std::printf(" s\n");
    std::printf("structure: %zu nodes, %.2f entries per revision (target %u), "
                "%zu tombstones, read fraction %.3f\n",
                stats.node_count, stats.avg_revision_size,
                stats.target_revision_size, stats.tombstone_count,
                stats.read_fraction_ema);
    const double steal_pct =
        100.0 * static_cast<double>(cpu1_.steal - cpu0_.steal) /
        static_cast<double>(std::max<std::uint64_t>(cpu1_.total - cpu0_.total, 1));
    std::printf("host: steal %.3f %% of CPU time; involuntary context switches "
                "per worker:", steal_pct);
    for (std::uint64_t x : nivcsw_)
      std::printf(" %llu", static_cast<unsigned long long>(x));
    std::printf("\n");
    std::printf("check: %llu failed of %llu attempted; %llu final-state "
                "mismatches over %llu live keys; self-test %s (%llu "
                "mismatches against a corrupted shadow)\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(final_bad),
                static_cast<unsigned long long>(live),
                self_test_ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(corrupted_bad));

    std::vector<Metric> out;
    if (!a_.trace) {
      out.push_back({"setup_s", median(setup_s_), "s"});
      out.push_back({"keys_mops", median(sub_mkeys(false)), "Mkeys/s"});
      for (int c = 0; c < kClasses; ++c) {
        if (!runs(static_cast<OpClass>(c))) continue;
        const jiffy::obs::LatHistogram h = window_latency(static_cast<OpClass>(c));
        for (const double p : {50.0, 99.0}) {
          char name[32];
          std::snprintf(name, sizeof name, "%s_p%.0f_us", kClassNames[c], p);
          const double us =
              static_cast<double>(h.value_at_percentile(p)) / ticks_per_us_;
          std::printf("%s %.4f us (%llu samples)\n", name, us,
                      static_cast<unsigned long long>(h.count()));
          // The update p99 is printed but not reported: its run-to-run
          // spread on this host exceeds any allowed bound (README.md).
          if (c != kUpdate || p != 99.0) out.push_back({name, us, "us"});
        }
      }
      // Heap bytes the map holds: what destroying it gives back, with every
      // worker gone and this thread's EBR limbo drained first.
      jiffy::ebr::quiesce();
      const double before = static_cast<double>(heap_in_use());
      map_.reset();
      const double held = before - static_cast<double>(heap_in_use());
      out.push_back({"mem_bytes_per_key", live ? held / live : 0, "B"});
    } else {
      traced_metrics(out, window_sum(), stats, ev, window_s, steal_pct);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double v = std::isfinite(out[i].value) ? out[i].value : 0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", out[i].name.c_str(), v, out[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

  template <class Stats>
  void traced_metrics(std::vector<Metric>& out, const Tally& sum,
                      const Stats& stats, const jiffy::obs::MetricsSnapshot& ev,
                      double window_s, double steal_pct) {
    using jiffy::obs::Ev;
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
    const double kwrites = static_cast<double>(sum.writes) / 1e3;
    const double kkeys_written =
        static_cast<double>(sum.writes + sum.batch_ops) / 1e3;
    const double batches = static_cast<double>(sum.batches);
    const double claimed = static_cast<double>(ev[Ev::replay_group_claimed]);

    const CursorProbes cur =
        run_cursor_probes(*map_, [&](std::uint64_t i) { return keys_.key(i); },
                          keys_.space(), a_.seed);
    const LayerProbes lp = run_layer_probes<K, V>(
        static_cast<std::uint32_t>(std::lround(stats.avg_revision_size)),
        chooser_, [&](std::uint64_t i) { return keys_.key(i); },
        keys_.space(), a_.seed);

    const double untraced = median(sub_mkeys(false));
    const double traced = median(sub_mkeys(true));
    std::uint64_t nivcsw = 0;
    for (std::uint64_t x : nivcsw_) nivcsw += x;
    const double hits = static_cast<double>(ev[Ev::block_cache_hit]);
    const double misses = static_cast<double>(ev[Ev::block_cache_miss]);

    out.push_back({"core.snapshot.open_us", cur.open_us, "us"});
    out.push_back({"core.cursor.seek_us", cur.seek_us, "us"});
    out.push_back({"core.cursor.step_ns", cur.step_ns, "ns"});
    if (runs(kBatch)) {
      out.push_back({"core.apply.us_per_op",
                     static_cast<double>(sum.batch_ticks) / ticks_per_us_ /
                         static_cast<double>(sum.batch_ops),
                     "us"});
      out.push_back({"core.batch.help_stamp_per_batch",
                     ratio(static_cast<double>(ev[Ev::help_stamp]), batches),
                     "1/batch"});
      out.push_back({"core.batch.replay_claimed_per_batch",
                     ratio(claimed, batches), "1/batch"});
      out.push_back({"core.batch.replay_dup_ratio",
                     ratio(static_cast<double>(ev[Ev::replay_group_duplicated]),
                           claimed),
                     "ratio"});
    }
    out.push_back({"core.install.lost_per_kwrite",
                   ratio(static_cast<double>(ev[Ev::cas_install_lost]), kwrites),
                   "1/kwrite"});
    out.push_back({"core.split_per_kwrite",
                   ratio(static_cast<double>(ev[Ev::split]), kkeys_written),
                   "1/kwrite"});
    out.push_back({"core.merge_per_kwrite",
                   ratio(static_cast<double>(ev[Ev::merge]), kkeys_written),
                   "1/kwrite"});
    out.push_back({"core.purge.sweeps",
                   static_cast<double>(ev[Ev::purge_sweeps]), "count"});
    out.push_back({"core.revision.entries_avg", stats.avg_revision_size,
                   "entries"});
    out.push_back({"core.revision.target",
                   static_cast<double>(stats.target_revision_size), "entries"});
    out.push_back({"core.autoscaler.read_fraction", stats.read_fraction_ema,
                   "ratio"});
    out.push_back({"core.nodes", static_cast<double>(stats.node_count),
                   "count"});
    out.push_back({"core.tombstones",
                   static_cast<double>(stats.tombstone_count), "count"});
    out.push_back({"core.revision.build_ns_per_entry", lp.build_ns_per_entry,
                   "ns"});
    out.push_back({"core.revision.find_hash_ns", lp.find_hash_ns, "ns"});
    out.push_back({"core.revision.find_binary_ns", lp.find_binary_ns, "ns"});
    out.push_back({"ebr.guard_ns", lp.guard_ns, "ns"});
    out.push_back({"ebr.retire_ns", lp.retire_ns, "ns"});
    out.push_back({"ebr.ticket_ns", lp.ticket_ns, "ns"});
    out.push_back({"ebr.limbo_peak", static_cast<double>(ev.limbo_peak),
                   "count"});
    out.push_back({"ebr.valve_donations",
                   static_cast<double>(ev[Ev::valve_donations]), "count"});
    out.push_back({"tsc.read_ns", lp.tsc_read_ns, "ns"});
    out.push_back({"common.block_cache.hit_ratio", ratio(hits, hits + misses),
                   "ratio"});
    out.push_back({"common.block_cache.alloc_ns", lp.block_alloc_ns, "ns"});
    out.push_back({"workload.keygen_ns", lp.keygen_ns, "ns"});
    out.push_back({"bench.self_pct",
                   100 * ratio(static_cast<double>(sum.iter_ticks - sum.core_ticks),
                               static_cast<double>(sum.iter_ticks)),
                   "%"});
    out.push_back({"bench.steal_pct", steal_pct, "%"});
    out.push_back({"bench.nivcsw_per_s",
                   ratio(static_cast<double>(nivcsw), window_s), "1/s"});
    out.push_back({"bench.trace_overhead_pct",
                   100 * ratio(untraced - traced, untraced), "%"});
    for (const Metric& m : out)
      std::printf("%-38s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }

  const Args a_;
  const Workload& w_;
  const KeyIndex<K> keys_;
  const KeyChooser chooser_;
  std::vector<Shadow<V>> shadows_;
  std::vector<std::vector<Tally>> tallies_;
  std::unique_ptr<Map> map_;
  std::vector<double> setup_s_;

  std::atomic<bool> start_{false};
  std::atomic<int> phase_{0};
  std::atomic<int> done_{0};
  std::vector<SteadyTime> bounds_;
  double ticks_per_us_ = 1;
  jiffy::obs::MetricsSnapshot counters0_, counters1_;
  CpuTimes cpu0_, cpu1_;
  std::array<std::uint64_t, kWorkers> nivcsw_{};
  std::array<std::uint64_t, kWorkers> failed_{};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (!*s || *end) usage((std::string("bad value for ") + flag).c_str());
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + f).c_str());
    const char* v = argv[++i];
    if (f == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, v) == 0) a.workload = &w;
      if (!a.workload) usage((std::string("unknown workload ") + v).c_str());
    } else if (f == "--seed") {
      a.seed = parse_u64(v, "--seed");
    } else if (f == "--seconds") {
      const std::uint64_t s = parse_u64(v, "--seconds");
      if (s < 1 || s > 60) usage("--seconds must be 1..60");
      a.seconds = static_cast<double>(s);
    } else if (f == "--trace") {
      const std::uint64_t t = parse_u64(v, "--trace");
      if (t > 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
    } else {
      usage(("unknown flag " + f).c_str());
    }
  }
  if (!a.workload) usage("--workload is required");
  const Mix& m = a.workload->mix;
  if (m.put + m.erase + m.get + m.batch + m.scan_fwd + m.scan_rev != kMixScale)
    usage("workload mix does not sum to kMixScale");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  if (a.workload->wide) {
    static_assert(TaggedValue<std::uint64_t>::kMaxSpace >= 2 * (1u << 20));
    return std::make_unique<Bench<std::uint64_t, std::uint64_t>>(a)->run();
  }
  static_assert(TaggedValue<std::uint32_t>::kMaxSpace >= 2 * 65'536);
  return std::make_unique<Bench<std::uint32_t, std::uint32_t>>(a)->run();
}
