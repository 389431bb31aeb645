// Cursor / range API v2 guarantees:
//   * randomized differential test of Snapshot cursors (seek, seek_for_prev,
//     first/last, next/prev) and range(lo, hi) views against a std::map
//     oracle, single-threaded, across revision-size configs;
//   * under concurrent writers: the reverse cursor returns exactly the
//     reversed sequence of the forward cursor for the same version, and a
//     range view equals the forward sequence clipped to [lo, hi);
//   * snapshot stability while iterating backward: a Snapshot re-walked
//     backward gives identical results while the map mutates underneath;
//   * every versioned read holds exactly one version ticket (the one-shot
//     scans, a Snapshot's own reads, a range-for over a temporary
//     snapshot's view);
//   * the map surface shared by every concurrent map (contains /
//     approx_size / rscan_n / range_scan) on the Jiffy and CSLM maps
//     against the same oracle.
// 1 writer + 3 readers where concurrent, so the TSan preset drives 4-way
// races.
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "baselines/cslm.h"
#include "core/jiffy.h"
#include "tests/test_util.h"
#include "workload/keyvalue.h"

using namespace jiffy;

namespace {

using Map = JiffyMap<std::uint64_t, std::uint64_t>;
using KV = std::pair<std::uint64_t, std::uint64_t>;

JiffyConfig cfg_fixed(std::uint32_t size) {
  JiffyConfig c;
  c.autoscaler.enabled = false;
  c.autoscaler.fixed_size = size;
  return c;
}

std::vector<KV> collect_forward(const Map::SnapshotT& s) {
  std::vector<KV> out;
  for (auto c = s.first(); c.valid(); c.next())
    out.emplace_back(c.key(), c.value());
  return out;
}

std::vector<KV> collect_reverse(const Map::SnapshotT& s) {
  std::vector<KV> out;
  for (auto c = s.last(); c.valid(); c.prev())
    out.emplace_back(c.key(), c.value());
  return out;
}

// Single-threaded randomized differential vs std::map.
void test_cursor_oracle(const JiffyConfig& cfg) {
  Map m(cfg);
  std::map<std::uint64_t, std::uint64_t> oracle;
  Rng rng(2024);
  constexpr std::uint64_t kSpace = 2'000;

  for (int round = 0; round < 40; ++round) {
    // A burst of mixed mutations (including batches) on both maps.
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t k = splitmix64(rng.next_below(kSpace));
      switch (rng.next_below(5)) {
        case 0:
        case 1: {
          const std::uint64_t v = rng.next();
          m.put(k, v);
          oracle[k] = v;
          break;
        }
        case 2:
          m.erase(k);
          oracle.erase(k);
          break;
        default: {
          Batch<std::uint64_t, std::uint64_t> b;
          for (int j = 0; j < 6; ++j) {
            const std::uint64_t bk = splitmix64(rng.next_below(kSpace));
            if (rng.next_bool(0.6)) {
              const std::uint64_t v = rng.next();
              b.put(bk, v);
              oracle[bk] = v;
            } else {
              b.erase(bk);
              oracle.erase(bk);
            }
          }
          m.apply(std::move(b));
          break;
        }
      }
    }

    Snapshot s = m.snapshot();

    // Full forward == oracle, full reverse == reversed oracle.
    const std::vector<KV> fwd = collect_forward(s);
    CHECK_EQ(fwd.size(), oracle.size());
    {
      auto it = oracle.begin();
      for (const auto& [k, v] : fwd) {
        CHECK_EQ(k, it->first);
        CHECK_EQ(v, it->second);
        ++it;
      }
    }
    std::vector<KV> rev = collect_reverse(s);
    std::reverse(rev.begin(), rev.end());
    CHECK(rev == fwd);

    // Single-threaded: the maintained counter is exact.
    CHECK_EQ(m.approx_size(), oracle.size());

    // Random seek / seek_for_prev probes vs lower_bound / upper_bound.
    for (int probe = 0; probe < 50; ++probe) {
      const std::uint64_t k = splitmix64(rng.next_below(kSpace)) + rng.next_below(3) - 1;
      auto c = s.seek(k);
      auto lb = oracle.lower_bound(k);
      CHECK_EQ(c.valid(), lb != oracle.end());
      if (c.valid()) {
        CHECK_EQ(c.key(), lb->first);
        CHECK_EQ(c.value(), lb->second);
      }
      auto p = s.seek_for_prev(k);
      auto ub = oracle.upper_bound(k);
      CHECK_EQ(p.valid(), ub != oracle.begin());
      if (p.valid()) {
        --ub;
        CHECK_EQ(p.key(), ub->first);
        CHECK_EQ(p.value(), ub->second);
      }
      // Direction switch: next() after seek_for_prev lands on seek(k+1)'s
      // position; prev() after seek lands on the strict predecessor.
      if (p.valid()) {
        auto q = p;
        q.next();
        auto nxt = oracle.upper_bound(p.key());
        CHECK_EQ(q.valid(), nxt != oracle.end());
        if (q.valid()) CHECK_EQ(q.key(), nxt->first);
      }
    }

    // Stepping an invalid cursor is a harmless no-op, not a crash.
    {
      auto c = s.cursor();  // unpositioned
      CHECK(!c.valid());
      c.next();
      c.prev();
      CHECK(!c.valid());
      auto e = s.seek(~0ull);  // usually past the last key
      if (e.valid()) e.next();
      e.next();
      CHECK(!e.valid() || e.key() <= ~0ull);
    }

    // Range view over a *temporary* snapshot: the view's own EBR guard must
    // keep the version's revisions alive (C++20 destroys the temporary
    // before begin() runs).
    {
      std::size_t n = 0;
      std::uint64_t prev_k = 0;
      for (auto [k, v] : m.snapshot().range(0, ~0ull)) {
        CHECK(n == 0 || k > prev_k);
        prev_k = k;
        (void)v;
        ++n;
      }
      CHECK_EQ(n, oracle.size());  // no oracle key is ~0ull with these seeds
    }

    // Random half-open range views vs the oracle slice.
    for (int probe = 0; probe < 20; ++probe) {
      const std::uint64_t lo = splitmix64(rng.next_below(kSpace));
      const std::uint64_t hi = lo + (std::uint64_t{1} << (20 + rng.next_below(40)));
      std::vector<KV> got;
      for (auto [k, v] : s.range(lo, hi)) got.emplace_back(k, v);
      std::vector<KV> want;
      for (auto it = oracle.lower_bound(lo);
           it != oracle.end() && it->first < hi; ++it)
        want.emplace_back(it->first, it->second);
      CHECK(got == want);
      // range_scan agrees with the view.
      std::vector<KV> scan;
      m.range_scan(lo, hi, [&](const std::uint64_t& k, const std::uint64_t& v) {
        scan.emplace_back(k, v);
      });
      CHECK(scan == want);
      // rscan_n from hi-1 is the tail of `want`, reversed.
      std::vector<KV> rsc;
      s.rscan_n(hi - 1, want.size() + 5,
                [&](const std::uint64_t& k, const std::uint64_t& v) {
                  rsc.emplace_back(k, v);
                });
      std::size_t checked = 0;
      for (auto it = want.rbegin(); it != want.rend() && checked < rsc.size();
           ++it, ++checked)
        CHECK(rsc[checked] == *it);
      CHECK(checked == want.size() || rsc.size() >= want.size());
    }
  }
}

// Acceptance: under concurrent mutation, the reverse cursor of a snapshot
// returns exactly the reversed forward sequence at the same version, and
// range views are the clipped forward sequence.
void test_reverse_equals_forward_concurrent() {
  JiffyConfig cfg = cfg_fixed(8);  // tiny revisions: many splits/merges
  Map m(cfg);
  constexpr std::uint64_t kSpace = 4'000;
  for (std::uint64_t i = 0; i < kSpace / 2; ++i)
    m.put(splitmix64(i % kSpace), i);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t k = splitmix64(rng.next_below(kSpace));
      switch (rng.next_below(4)) {
        case 0:
          m.put(k, rng.next());
          break;
        case 1:
          m.erase(k);
          break;
        default: {
          Batch<std::uint64_t, std::uint64_t> b;
          for (int j = 0; j < 8; ++j) {
            const std::uint64_t bk = splitmix64(rng.next_below(kSpace));
            if (rng.next_bool(0.5))
              b.put(bk, rng.next());
            else
              b.erase(bk);
          }
          m.apply(std::move(b));
          break;
        }
      }
    }
  });

  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> rounds{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(31 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        Snapshot s = m.snapshot();
        std::vector<KV> fwd, rev;
        // Bounded window so rounds stay fast: forward from a random key,
        // then reverse from the last forward key back to the first.
        const std::uint64_t from = splitmix64(rng.next_below(kSpace));
        auto c = s.seek(from);
        for (int i = 0; c.valid() && i < 48; ++i, c.next())
          fwd.emplace_back(c.key(), c.value());
        if (fwd.empty()) continue;
        auto r = s.seek_for_prev(fwd.back().first);
        for (std::size_t i = 0; r.valid() && i < fwd.size(); ++i, r.prev())
          rev.emplace_back(r.key(), r.value());
        std::reverse(rev.begin(), rev.end());
        CHECK(rev == fwd);  // exactly the reversed forward sequence
        // Half-open range view over the same window matches forward minus
        // the right endpoint.
        std::vector<KV> ranged;
        for (auto [k, v] : s.range(from, fwd.back().first))
          ranged.emplace_back(k, v);
        CHECK_EQ(ranged.size(), fwd.size() - 1);
        for (std::size_t i = 0; i < ranged.size(); ++i)
          CHECK(ranged[i] == fwd[i]);
        rounds.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  stop.store(true);
  writer.join();
  for (auto& r : readers) r.join();
  CHECK(rounds.load() > 10);
  std::printf("  reverse==forward: %llu rounds\n",
              static_cast<unsigned long long>(rounds.load()));
}

// Snapshot stability iterating backward: a snapshot's reverse walk is frozen
// while the map mutates underneath (including splits and merges).
void test_backward_snapshot_stability() {
  JiffyConfig cfg = cfg_fixed(6);
  Map m(cfg);
  constexpr std::uint64_t kSpace = 3'000;
  for (std::uint64_t i = 0; i < kSpace / 2; ++i) m.put(splitmix64(i), i);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(13);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t k = splitmix64(rng.next_below(kSpace));
      if (rng.next_bool(0.6))
        m.put(k, rng.next());
      else
        m.erase(k);
    }
  });

  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> rounds{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(41 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        Snapshot s = m.snapshot();
        const std::uint64_t from = splitmix64(rng.next_below(kSpace));
        std::vector<KV> first, second;
        s.rscan_n(from, 64, [&](const std::uint64_t& k, const std::uint64_t& v) {
          first.emplace_back(k, v);
        });
        // Walk it again, slower, through the cursor: identical sequence.
        auto c = s.seek_for_prev(from);
        for (; c.valid() && second.size() < 64; c.prev())
          second.emplace_back(c.key(), c.value());
        CHECK(first == second);  // the snapshot did not move
        for (std::size_t i = 0; i < first.size(); ++i) {
          CHECK(first[i].first <= from);
          if (i) CHECK(first[i - 1].first > first[i].first);  // descending
          auto got = s.get(first[i].first);
          CHECK(got.has_value());
          CHECK_EQ(*got, first[i].second);
        }
        rounds.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  stop.store(true);
  writer.join();
  for (auto& r : readers) r.join();
  CHECK(rounds.load() > 10);
  std::printf("  backward snapshot stability: %llu rounds\n",
              static_cast<unsigned long long>(rounds.load()));
}

// Version tickets in use right now, over every thread's registrations.
std::size_t live_tickets() {
  std::size_t n = 0;
  for (auto* s = ebr::detail::version_registry().first(); s; s = s->next)
    n += s->in_use.load(std::memory_order_acquire) ? 1 : 0;
  return n;
}

// While set, ProbedLess records the live ticket count at every comparison:
// the probe for the reads that take no visitor.
std::vector<std::size_t>* probe_seen = nullptr;
struct ProbedLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const {
    if (probe_seen) probe_seen->push_back(live_tickets());
    return a < b;
  }
};

// Every read holds exactly one version ticket: the one-shot scans and a
// Snapshot's own reads, and a range-for over a temporary snapshot's view.
// Counted inside each visitor or loop body and at every comparison the read
// makes, single-threaded with no other ticket live.
void test_one_ticket_per_read() {
  using PMap = JiffyMap<std::uint64_t, std::uint64_t, ProbedLess>;
  PMap m(cfg_fixed(8));  // many nodes, so every walk hops
  for (std::uint64_t i = 0; i < 400; ++i) m.put(i * 3, i);
  CHECK_EQ(live_tickets(), 0u);
  auto expect_one = [](const char* read, auto&& run) {
    std::vector<std::size_t> seen;
    probe_seen = &seen;
    run(seen);
    probe_seen = nullptr;
    CHECK(!seen.empty());
    for (std::size_t n : seen) {
      if (n != 1)
        std::fprintf(stderr, "%s held %zu version tickets\n", read, n);
      CHECK_EQ(n, 1u);
    }
  };
  auto visit = [](std::vector<std::size_t>& seen) {
    return [&seen](const std::uint64_t&, const std::uint64_t&) {
      seen.push_back(live_tickets());
    };
  };
  expect_one("scan_n", [&](auto& seen) { m.scan_n(100, 50, visit(seen)); });
  expect_one("rscan_n", [&](auto& seen) { m.rscan_n(900, 50, visit(seen)); });
  expect_one("range_scan",
             [&](auto& seen) { m.range_scan(100, 400, visit(seen)); });
  expect_one("range-for over snapshot().range", [&](auto& seen) {
    for (auto [k, v] : m.snapshot().range(100, 400)) {
      (void)k;
      (void)v;
      seen.push_back(live_tickets());
    }
  });
  {
    const PMap::SnapshotT s = m.snapshot();
    expect_one("Snapshot::scan_n",
               [&](auto& seen) { s.scan_n(100, 50, visit(seen)); });
    expect_one("Snapshot::rscan_n",
               [&](auto& seen) { s.rscan_n(900, 50, visit(seen)); });
    expect_one("Snapshot::get", [&](auto&) { CHECK(s.get(300).has_value()); });
    expect_one("Snapshot::contains", [&](auto&) { CHECK(!s.contains(301)); });
  }
  CHECK_EQ(live_tickets(), 0u);
  std::puts("  one version ticket per read OK");
}

// The shared map surface on every concurrent map vs one oracle.
template <class M>
void check_map_surface(const char* name) {
  M a;
  std::map<std::uint64_t, std::uint64_t> oracle;
  Rng rng(99);
  for (int i = 0; i < 4'000; ++i) {
    const std::uint64_t k = splitmix64(rng.next_below(1'500));
    if (rng.next_bool(0.7)) {
      const std::uint64_t v = rng.next();
      a.put(k, v);
      oracle[k] = v;
    } else {
      a.erase(k);
      oracle.erase(k);
    }
  }
  {
    Batch<std::uint64_t, std::uint64_t> b;
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t k = splitmix64(rng.next_below(1'500));
      const std::uint64_t v = rng.next();
      b.put(k, v);
      oracle[k] = v;
    }
    a.apply(std::move(b));
  }
  CHECK_EQ(a.approx_size(), oracle.size());
  for (int probe = 0; probe < 200; ++probe) {
    const std::uint64_t k = splitmix64(rng.next_below(1'500));
    CHECK_EQ(a.contains(k), oracle.find(k) != oracle.end());
  }
  // rscan_n descending == oracle tail reversed; range_scan == oracle slice.
  const std::uint64_t from = splitmix64(700);
  std::vector<KV> rsc;
  a.rscan_n(from, 25, [&](const std::uint64_t& k, const std::uint64_t& v) {
    rsc.emplace_back(k, v);
  });
  {
    auto it = oracle.upper_bound(from);
    for (const auto& [k, v] : rsc) {
      CHECK(it != oracle.begin());
      --it;
      CHECK_EQ(k, it->first);
      CHECK_EQ(v, it->second);
    }
  }
  const std::uint64_t lo = splitmix64(100);
  const std::uint64_t hi = lo + (std::uint64_t{1} << 60);
  std::vector<KV> got;
  a.range_scan(lo, hi, [&](const std::uint64_t& k, const std::uint64_t& v) {
    got.emplace_back(k, v);
  });
  std::vector<KV> want;
  for (auto it = oracle.lower_bound(lo); it != oracle.end() && it->first < hi;
       ++it)
    want.emplace_back(it->first, it->second);
  CHECK(got == want);
  std::printf("  map surface OK: %s (%zu entries)\n", name,
              oracle.size());
}

}  // namespace

int main() {
  test_one_ticket_per_read();
  test_cursor_oracle(cfg_fixed(8));
  test_cursor_oracle(cfg_fixed(64));
  {
    JiffyConfig auto_cfg;  // autoscaler on, default sizes
    test_cursor_oracle(auto_cfg);
  }
  test_reverse_equals_forward_concurrent();
  test_backward_snapshot_stability();
  check_map_surface<Map>("jiffy");
  check_map_surface<baselines::CslmMap<std::uint64_t, std::uint64_t>>("cslm");
  std::puts("test_cursor_range OK");
  return 0;
}
