// Batch updates (§3.4): sequential semantics (apply, last-wins dedupe,
// put/remove mix) and the core concurrency guarantee — a concurrent reader
// never observes a partially applied batch. Runs with 1 writer + 3 readers
// so the TSan preset exercises it at 4 threads.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/jiffy.h"
#include "tests/test_util.h"
#include "workload/keyvalue.h"

using namespace jiffy;

namespace {

using Map = JiffyMap<std::uint64_t, std::uint64_t>;
using B = Batch<std::uint64_t, std::uint64_t>;

void test_sequential() {
  JiffyConfig cfg;
  cfg.autoscaler.enabled = false;
  cfg.autoscaler.fixed_size = 8;  // force batches to span many nodes
  Map m(cfg);
  for (std::uint64_t i = 0; i < 1'000; ++i) m.put(splitmix64(i), 1);

  // Mixed put/erase batch through the typed builder.
  B ops;
  for (std::uint64_t i = 0; i < 500; ++i) {
    if (i % 2 == 0)
      ops.put(splitmix64(i), 100 + i);
    else
      ops.erase(splitmix64(i));
  }
  m.apply(std::move(ops));
  for (std::uint64_t i = 0; i < 500; ++i) {
    auto got = m.get(splitmix64(i));
    if (i % 2 == 0) {
      CHECK(got.has_value());
      CHECK_EQ(*got, 100 + i);
    } else {
      CHECK(!got.has_value());
    }
  }
  for (std::uint64_t i = 500; i < 1'000; ++i) CHECK(m.get(splitmix64(i)).has_value());

  // Last-wins per key within one batch, regardless of submission order.
  B dup;
  dup.put(7, 1).erase(7).put(7, 3);
  dup.put(9, 1).put(9, 2);
  dup.erase(11).put(11, 5);
  dup.put(13, 1).erase(13);
  m.apply(std::move(dup));
  CHECK_EQ(*m.get(7), std::uint64_t{3});
  CHECK_EQ(*m.get(9), std::uint64_t{2});
  CHECK_EQ(*m.get(11), std::uint64_t{5});
  CHECK(!m.get(13).has_value());

  // Batch on an empty map / empty batch.
  Map m2;
  m2.apply({});
  B two;
  two.put(1, 1).put(2, 2);
  m2.apply(std::move(two));
  CHECK_EQ(m2.debug_stats().entry_count, std::size_t{2});
  CHECK_EQ(m2.approx_size(), std::size_t{2});
}

// One writer applies batches that set a *group* of keys to the same nonce;
// readers snapshot the group and require a uniform nonce — any mix means a
// torn batch was observed.
void test_concurrent_atomicity() {
  JiffyConfig cfg;
  cfg.autoscaler.enabled = false;
  cfg.autoscaler.fixed_size = 6;  // groups straddle several fat nodes
  Map m(cfg);

  constexpr std::uint64_t kGroup = 24;       // keys 0..23, scrambled
  constexpr std::uint64_t kSpace = 1 << 14;  // plus background churn keys
  for (std::uint64_t i = 0; i < kGroup; ++i) m.put(splitmix64(i), 0);
  for (std::uint64_t i = 100; i < 2'000; ++i) m.put(splitmix64(i), i);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checks{0};

  std::thread writer([&] {
    Rng rng(1);
    for (std::uint64_t nonce = 1; !stop.load(std::memory_order_relaxed);
         ++nonce) {
      B ops;
      ops.reserve(kGroup + 4);
      for (std::uint64_t i = 0; i < kGroup; ++i)
        ops.put(splitmix64(i), nonce);
      // Unrelated churn mixed into the same batch.
      for (int j = 0; j < 4; ++j) {
        const std::uint64_t k = splitmix64(100 + rng.next_below(kSpace));
        if (rng.next_bool(0.5))
          ops.put(k, nonce);
        else
          ops.erase(k);
      }
      m.apply(std::move(ops));
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(77 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        // Snapshot get across the whole group: one consistent version.
        Snapshot s = m.snapshot();
        std::uint64_t nonce = ~0ull;
        for (std::uint64_t i = 0; i < kGroup; ++i) {
          auto got = s.get(splitmix64(i));
          CHECK(got.has_value());  // group keys are never removed
          if (nonce == ~0ull) nonce = *got;
          CHECK_EQ(*got, nonce);
        }
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  stop.store(true);
  writer.join();
  for (auto& r : readers) r.join();
  CHECK(checks.load() > 10);
  std::printf("  concurrent atomicity: %llu group checks\n",
              static_cast<unsigned long long>(checks.load()));
}

// Same guarantee through scan_n: a consistent scan over the group region
// must see a uniform nonce.
void test_scan_sees_whole_batch() {
  JiffyConfig cfg;
  cfg.autoscaler.enabled = false;
  cfg.autoscaler.fixed_size = 5;
  Map m(cfg);

  // Contiguous keys so one scan covers exactly the group.
  constexpr std::uint64_t kGroup = 40;
  for (std::uint64_t k = 0; k < kGroup; ++k) m.put(k, 0);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checks{0};

  std::thread writer([&] {
    for (std::uint64_t nonce = 1; !stop.load(std::memory_order_relaxed);
         ++nonce) {
      B ops;
      for (std::uint64_t k = 0; k < kGroup; ++k) ops.put(k, nonce);
      m.apply(std::move(ops));
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t nonce = ~0ull;
        std::size_t seen = 0;
        m.scan_n(0, kGroup, [&](const std::uint64_t&, const std::uint64_t& v) {
          if (nonce == ~0ull) nonce = v;
          CHECK_EQ(v, nonce);
          ++seen;
        });
        CHECK_EQ(seen, std::size_t{kGroup});
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  stop.store(true);
  writer.join();
  for (auto& r : readers) r.join();
  CHECK(checks.load() > 10);
  std::printf("  scan atomicity: %llu scans\n",
              static_cast<unsigned long long>(checks.load()));
}

}  // namespace

int main() {
  test_sequential();
  test_concurrent_atomicity();
  test_scan_sees_whole_batch();
  std::puts("test_batch_atomicity OK");
  return 0;
}
