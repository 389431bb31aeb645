// Unit checks for the supporting subsystems: clocks, RNG + distributions,
// key/value codecs, FixedBytes ordering, revision builder + binary search,
// the thread-local block cache, EBR, and the CSLM + LockedMap baselines
// (sequential and a short 4-thread shake for the CSLM).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "baselines/adapters.h"
#include "common/block_cache.h"
#include "common/fixed_bytes.h"
#include "core/jiffy.h"
#include "ebr/ebr.h"
#include "tests/test_util.h"
#include "tsc/clock.h"
#include "workload/keyvalue.h"
#include "workload/rng.h"

using namespace jiffy;

namespace {

void test_clocks() {
  TscClock tsc;
  SteadyClock steady;
  AtomicCounterClock counter;
  std::uint64_t t0 = tsc.read(), s0 = steady.read(), c0 = counter.read();
  for (int i = 0; i < 1'000; ++i) {
    const std::uint64_t t1 = tsc.read(), s1 = steady.read(),
                        c1 = counter.read();
    CHECK(t1 >= t0);
    CHECK(s1 >= s0);
    CHECK(c1 > c0);  // the counter is strictly increasing
    t0 = t1;
    s0 = s1;
    c0 = c1;
  }
}

void test_rng_and_chooser() {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) CHECK(rng.next_below(97) < 97);
  for (int i = 0; i < 1'000; ++i) {
    const double d = rng.next_double();
    CHECK(d >= 0.0 && d < 1.0);
  }

  const KeyChooser uni(KeyChooser::Kind::Uniform, 1'000);
  const KeyChooser zipf(KeyChooser::Kind::Zipfian, 1'000, 0.99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 20'000; ++i) {
    CHECK(uni.next_index(rng) < 1'000);
    const std::uint64_t z = zipf.next_index(rng);
    CHECK(z < 1'000);
    seen.insert(z);
  }
  // Zipf at theta .99 over 1000 keys is skewed: far fewer distinct values
  // than uniform would give, but well more than a handful.
  CHECK(seen.size() > 50 && seen.size() < 990);
}

void test_codecs() {
  // Injectivity over a small dense domain, every shape.
  std::set<std::uint64_t> s64;
  std::set<FixedBytes<4>> s4;
  std::set<Key16> s16;
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    s64.insert(KeyCodec<std::uint64_t>::encode(i, 10'000));
    s4.insert(KeyCodec<FixedBytes<4>>::encode(i, 10'000));
    s16.insert(KeyCodec<Key16>::encode(i, 10'000));
  }
  CHECK_EQ(s64.size(), std::size_t{5'000});
  CHECK_EQ(s4.size(), std::size_t{5'000});
  CHECK_EQ(s16.size(), std::size_t{5'000});

  // Order preservation: consecutive indices give adjacent, increasing keys
  // (the sequential batch modes depend on this; see workload/keyvalue.h).
  for (std::uint64_t i = 0; i + 1 < 1'000; ++i) {
    CHECK(KeyCodec<std::uint64_t>::encode(i, 10'000) <
          KeyCodec<std::uint64_t>::encode(i + 1, 10'000));
    CHECK(KeyCodec<FixedBytes<4>>::encode(i, 10'000) <
          KeyCodec<FixedBytes<4>>::encode(i + 1, 10'000));
    CHECK(KeyCodec<Key16>::encode(i, 10'000) <
          KeyCodec<Key16>::encode(i + 1, 10'000));
  }
  // Extremes stay in-domain even for space == 2^32 on 4-byte keys.
  CHECK(KeyCodec<FixedBytes<4>>::encode((1ull << 32) - 1, 1ull << 32) ==
        FixedBytes<4>::from_u64(0xFFFFFFFFull));

  // FixedBytes round-trip and byte-wise order == numeric order (big endian).
  for (std::uint64_t v : {0ull, 1ull, 255ull, 256ull, 1ull << 31}) {
    CHECK_EQ(FixedBytes<8>::from_u64(v).to_u64(), v);
  }
  CHECK(FixedBytes<4>::from_u64(255) < FixedBytes<4>::from_u64(256));
  CHECK(ValueCodec<Value100>::make(1, 2) == ValueCodec<Value100>::make(1, 2));
  CHECK(ValueCodec<Value100>::make(1, 2) != ValueCodec<Value100>::make(1, 3));
}

void test_revision_builder() {
  using Rev = Revision<std::uint64_t, std::uint64_t>;
  using Bld = RevisionBuilder<std::uint64_t, std::uint64_t>;
  const std::less<std::uint64_t> lt;

  // Binary search is the only lookup: check lower_bound_pos and find_binary
  // against std::lower_bound at every size from empty to past the
  // autoscaler's largest target, so both the prefetching halving loop
  // (n > 8) and the linear tail are covered. Keys are 3, 6, ..., 3n: every
  // hit, every gap between entries, and the misses below and above.
  for (std::uint32_t n = 0; n <= 300; ++n) {
    Bld b(RevKind::kPlain, n, /*version=*/1);
    std::vector<std::uint64_t> keys;
    for (std::uint32_t i = 0; i < n; ++i) {
      keys.push_back(std::uint64_t{i + 1} * 3);
      b.emit(keys.back(), i + 1);
    }
    Rev* r = b.finish();
    CHECK_EQ(r->entries().size(), std::size_t{n});
    for (std::uint64_t probe = 0; probe <= std::uint64_t{n} * 3 + 4; ++probe) {
      const auto want = std::lower_bound(keys.begin(), keys.end(), probe);
      const auto* pos = r->lower_bound_pos(probe, lt);
      CHECK_EQ(pos - r->begin(), want - keys.begin());
      const auto* hit = r->find_binary(probe, lt);
      if (want != keys.end() && *want == probe) {
        CHECK(hit == pos);
        CHECK_EQ(hit->second,
                 static_cast<std::uint64_t>(want - keys.begin()) + 1);
      } else {
        CHECK(hit == nullptr);
      }
    }
    Rev::unref(r, /*immediate=*/true);
  }
}

void test_block_cache() {
  using C = ThreadBlockCache;
  // Oversized blocks always bypass the cache: size passes through unchanged.
  const std::size_t big = C::kMaxBlockBytes + 1;
  CHECK_EQ(C::usable_size(big), big);
  void* d = C::allocate(big);
  CHECK(d != nullptr);
  C::deallocate(d, big);

  const std::size_t u = C::usable_size(100);
  if (u == 100) {
    // Cache compiled out (sanitizer build) or disabled via JIFFY_NO_BLOCK_CACHE:
    // allocate/deallocate must still pair up as the plain allocator.
    void* p = C::allocate(u);
    CHECK(p != nullptr);
    C::deallocate(p, u);
    return;
  }

  // Enabled: sizes round up to the 256-byte class grid...
  CHECK_EQ(u, std::size_t{256});
  CHECK_EQ(C::usable_size(300), std::size_t{512});
  // ...and the most recently freed block of a class is served first (LIFO),
  // which is the whole point: the warmest lines go to the next build.
  void* a = C::allocate(u);
  C::deallocate(a, u);
  void* b = C::allocate(u);
  CHECK_EQ(b, a);
  // A different class cannot alias a block still parked in the cache.
  C::deallocate(b, u);
  void* c = C::allocate(C::usable_size(300));
  CHECK(c != b);
  C::deallocate(c, C::usable_size(300));
}

void test_ebr() {
  static std::atomic<int> live{0};
  struct Obj {
    Obj() { live.fetch_add(1); }
    ~Obj() { live.fetch_sub(1); }
  };
  for (int i = 0; i < 10'000; ++i) {
    ebr::Guard g;
    ebr::retire(new Obj);
  }
  ebr::quiesce();
  ebr::quiesce();
  CHECK(live.load() < 10'000);  // the collector is actually collecting

  // Nested guards and guards on fresh threads.
  std::thread([] {
    ebr::Guard a;
    ebr::Guard b;
    ebr::retire(new Obj);
  }).join();
}

template <class M>
void shake_map_interface(M& m) {
  std::map<std::uint64_t, std::uint64_t> oracle;
  Rng rng(5);
  for (int i = 0; i < 5'000; ++i) {
    const std::uint64_t k = rng.next_below(600);
    if (rng.next_bool(0.6)) {
      const std::uint64_t v = rng.next();
      m.put(k, v);
      oracle[k] = v;
    } else {
      m.erase(k);
      oracle.erase(k);
    }
  }
  for (std::uint64_t k = 0; k < 600; ++k) {
    auto got = m.get(k);
    auto it = oracle.find(k);
    CHECK_EQ(got.has_value(), it != oracle.end());
    if (got) CHECK_EQ(*got, it->second);
  }
  std::vector<std::uint64_t> keys;
  m.scan_n(0, 1'000,
           [&](const std::uint64_t& k, const std::uint64_t&) { keys.push_back(k); });
  CHECK_EQ(keys.size(), oracle.size());
  CHECK(std::is_sorted(keys.begin(), keys.end()));
}

void test_cslm() {
  {
    CslmAdapter<std::uint64_t, std::uint64_t> m;
    shake_map_interface(m);
  }
  // Short 4-thread churn; correctness here = no crash/race (TSan preset)
  // plus spot-checked presence on a reserved prefix no one erases.
  baselines::CslmMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 0; k < 64; ++k) m.put(k, k);
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      Rng rng(31 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = 64 + rng.next_below(2'000);
        switch (rng.next_below(4)) {
          case 0:
            m.put(k, rng.next());
            break;
          case 1:
            m.erase(k);
            break;
          case 2:
            m.get(k);
            break;
          default:
            m.scan_n(k, 32, [](const std::uint64_t&, const std::uint64_t&) {});
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true);
  for (auto& t : ts) t.join();
  for (std::uint64_t k = 0; k < 64; ++k) CHECK_EQ(*m.get(k), k);
}

void test_locked_map_stub() {
  KaryAdapter<std::uint64_t, std::uint64_t> m;
  shake_map_interface(m);
  CHECK(baselines::adapter_info("k-ary") != nullptr);
  CHECK(baselines::adapter_info("k-ary")->kind ==
        baselines::AdapterKind::kStub);
  CHECK(baselines::adapter_info("jiffy")->kind ==
        baselines::AdapterKind::kNative);
  CHECK(baselines::adapter_info("lf-list")->kind ==
        baselines::AdapterKind::kNative);
  CHECK(baselines::adapter_info("snaptree") == nullptr);  // replaced
  CHECK(baselines::adapter_info("nope") == nullptr);
}

}  // namespace

int main() {
  test_clocks();
  test_rng_and_chooser();
  test_codecs();
  test_revision_builder();
  test_block_cache();
  test_ebr();
  test_cslm();
  test_locked_map_stub();
  std::puts("test_components OK");
  return 0;
}
