// StripedCounter / CachePadded: the layout contract (one cacheline per slot,
// no false sharing between padded members) and the counting contract (no
// lost updates under concurrent add from 8 threads; drain moves every delta
// into exactly one window). Runs under TSan in the sanitizer presets — the
// relaxed slot traffic must be free of data races, not just "close enough".
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/striped_counter.h"
#include "test_util.h"

namespace {

using jiffy::CachePadded;
using jiffy::kCacheLineBytes;
using jiffy::StripedCounter;

// ---- layout: the static contracts the padding types promise -----------------

static_assert(alignof(CachePadded<std::atomic<std::uint64_t>>) ==
              kCacheLineBytes);
static_assert(sizeof(CachePadded<std::atomic<std::uint64_t>>) ==
              kCacheLineBytes);
static_assert(alignof(CachePadded<std::atomic<bool>>) == kCacheLineBytes);
static_assert(sizeof(CachePadded<std::atomic<bool>>) == kCacheLineBytes);
// sizeof is a multiple of alignof, so array elements / adjacent members of
// CachePadded types can never straddle into each other's cachelines — the
// property the harness start/stop flags and the JiffyMap hot members rely on.
static_assert(sizeof(CachePadded<std::uint64_t[4]>) % kCacheLineBytes == 0);

struct TwoPadded {
  CachePadded<std::atomic<std::uint64_t>> a;
  CachePadded<std::atomic<std::uint64_t>> b;
};
static_assert(offsetof(TwoPadded, b) - offsetof(TwoPadded, a) >=
              kCacheLineBytes);

void layout_unit() {
  // Dynamic double-check of the same property (offsetof on non-standard-
  // layout types is conditionally-supported; this is not).
  TwoPadded two;
  const auto pa = reinterpret_cast<std::uintptr_t>(&two.a.value);
  const auto pb = reinterpret_cast<std::uintptr_t>(&two.b.value);
  CHECK((pa / kCacheLineBytes) != (pb / kCacheLineBytes));
  std::printf("layout unit ok\n");
}

// ---- counting: exactness under concurrency ----------------------------------

void exactness_under_threads() {
  StripedCounter<64> c;
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 200'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      // Mixed deltas that net to kPerThread per thread: exercises add,
      // increment and decrement on the same slots.
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        c.add(2);
        c.decrement();
      }
    });
  }
  for (auto& t : ts) t.join();
  CHECK_EQ(c.read(), kThreads * kPerThread);
  std::printf("exactness under %d threads ok\n", kThreads);
}

void concurrent_read_is_bounded() {
  // While writers run, read() may lag but can never exceed the true total
  // (all deltas are positive here) nor go below zero.
  StripedCounter<64> c;
  constexpr int kWriters = 4;
  constexpr std::int64_t kPerThread = 100'000;
  std::atomic<bool> done{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kWriters; ++t) {
    ts.emplace_back([&c] {
      for (std::int64_t i = 0; i < kPerThread; ++i) c.increment();
    });
  }
  std::thread reader([&] {
    std::int64_t prev = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::int64_t n = c.read();
      CHECK(n >= 0);
      CHECK(n <= kWriters * kPerThread);
      // Monotone here: increments only, and slots are swept in a fixed
      // order, so a later full sweep can only see more.
      CHECK(n >= prev);
      prev = n;
    }
  });
  for (auto& t : ts) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  CHECK_EQ(c.read(), kWriters * kPerThread);
  std::printf("concurrent read bounds ok\n");
}

void drain_windows_partition_the_total() {
  // Writers race a drainer; every delta must land in exactly one window
  // (drain) or remain in the counter at the end — never lost, never twice.
  StripedCounter<64> c;
  constexpr int kWriters = 4;
  constexpr std::int64_t kPerThread = 100'000;
  std::atomic<bool> done{false};
  std::int64_t harvested = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < kWriters; ++t) {
    ts.emplace_back([&c] {
      for (std::int64_t i = 0; i < kPerThread; ++i) c.increment();
    });
  }
  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) harvested += c.drain();
  });
  for (auto& t : ts) t.join();
  done.store(true, std::memory_order_release);
  drainer.join();
  harvested += c.drain();
  CHECK_EQ(harvested, kWriters * kPerThread);
  CHECK_EQ(c.read(), 0);
  std::printf("drain window partition ok\n");
}

void shard_id_is_stable_and_dense() {
  // A thread sees one id for its lifetime; distinct early threads get
  // distinct ids (the dense ticket is what keeps collisions rare).
  const unsigned here1 = jiffy::detail::thread_shard_id();
  const unsigned here2 = jiffy::detail::thread_shard_id();
  CHECK_EQ(here1, here2);
  unsigned other = here1;
  std::thread t([&other] { other = jiffy::detail::thread_shard_id(); });
  t.join();
  CHECK(other != here1);
  std::printf("shard id unit ok\n");
}

}  // namespace

int main() {
  layout_unit();
  shard_id_is_stable_and_dense();
  exactness_under_threads();
  concurrent_read_is_bounded();
  drain_windows_partition_the_total();
  std::printf("test_striped_counter ok\n");
  return 0;
}
