// Single-threaded JiffyMap semantics: put/get/erase, overwrite, ordering,
// scan bounds, splits (tiny fixed revision sizes), the dense split of an
// ascending load, large revisions, both kv shapes, and snapshot reads at a
// quiescent point.
#include <cstdint>
#include <map>
#include <vector>

#include "common/fixed_bytes.h"
#include "core/jiffy.h"
#include "tests/test_util.h"
#include "workload/keyvalue.h"

using namespace jiffy;

namespace {

JiffyConfig cfg_fixed(std::uint32_t size) {
  JiffyConfig c;
  c.autoscaler.enabled = false;
  c.autoscaler.fixed_size = size;
  return c;
}

void test_crud(const JiffyConfig& cfg) {
  JiffyMap<std::uint64_t, std::uint64_t> m(cfg);
  std::map<std::uint64_t, std::uint64_t> oracle;

  // Mixed scrambled inserts, overwrites and erases against an oracle.
  Rng rng(42);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t k = splitmix64(rng.next_below(4'000));
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const std::uint64_t v = rng.next();
        const bool inserted = m.put(k, v);
        CHECK_EQ(inserted, oracle.find(k) == oracle.end());
        oracle[k] = v;
        break;
      }
      case 2: {
        const bool erased = m.erase(k);
        CHECK_EQ(erased, oracle.erase(k) > 0);
        break;
      }
      default: {
        auto got = m.get(k);
        auto it = oracle.find(k);
        CHECK_EQ(got.has_value(), it != oracle.end());
        if (got) CHECK_EQ(*got, it->second);
        break;
      }
    }
  }
  CHECK_EQ(m.debug_stats().entry_count, oracle.size());

  // Full ordered scan matches the oracle exactly.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  m.scan_n(0, oracle.size() + 10,
           [&](const std::uint64_t& k, const std::uint64_t& v) {
             out.emplace_back(k, v);
           });
  CHECK_EQ(out.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [k, v] : out) {
    CHECK_EQ(k, it->first);
    CHECK_EQ(v, it->second);
    ++it;
  }

  // Bounded scan from a mid key.
  if (oracle.size() > 100) {
    auto mid = oracle.begin();
    std::advance(mid, oracle.size() / 2);
    std::size_t n = 0;
    std::uint64_t prev = 0;
    const std::size_t got =
        m.scan_n(mid->first, 50, [&](const std::uint64_t& k, const std::uint64_t&) {
          CHECK(n == 0 || k > prev);
          CHECK(k >= mid->first);
          prev = k;
          ++n;
        });
    CHECK_EQ(got, std::size_t{50});
  }

  // Quiescent snapshot agrees with the map.
  Snapshot s = m.snapshot();
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t k = splitmix64(static_cast<std::uint64_t>(i));
    auto a = s.get(k);
    auto b = m.get(k);
    CHECK_EQ(a.has_value(), b.has_value());
    if (a) CHECK_EQ(*a, *b);
  }
}

void test_fixed_bytes_shape() {
  JiffyMap<Key16, Value100> m(cfg_fixed(32));
  const std::uint64_t space = 4'000;
  for (std::uint64_t i = 0; i < 2'000; ++i)
    m.put(KeyCodec<Key16>::encode(i, space), ValueCodec<Value100>::make(i, 7));
  CHECK_EQ(m.debug_stats().entry_count, std::size_t{2'000});
  for (std::uint64_t i = 0; i < 2'000; ++i) {
    auto got = m.get(KeyCodec<Key16>::encode(i, space));
    CHECK(got.has_value());
    CHECK(*got == ValueCodec<Value100>::make(i, 7));
  }
  CHECK(!m.get(KeyCodec<Key16>::encode(3'999, space)).has_value());

  // Ordered scan sees strictly increasing byte-wise keys.
  Key16 prev{};
  bool first = true;
  std::size_t n = m.scan_n(Key16{}, 5'000, [&](const Key16& k, const Value100&) {
    CHECK(first || prev < k);
    prev = k;
    first = false;
  });
  CHECK_EQ(n, std::size_t{2'000});
}

// An ascending load splits every full node at its append front, keeping
// the left part ~7/8 full (install_split): an even split would leave the
// loaded nodes about half full, near 16 entries at a cap of 32.
void test_ascending_load() {
  JiffyMap<std::uint64_t, std::uint64_t> m(cfg_fixed(32));
  for (std::uint64_t k = 0; k < 20'000; ++k) m.put(k, k + 1);
  CHECK(m.debug_stats().avg_revision_size >= 26.0);
  std::uint64_t want = 0;
  const std::size_t n = m.scan_n(0, 30'000, [&](const std::uint64_t& k,
                                                const std::uint64_t& v) {
    CHECK_EQ(k, want);
    CHECK_EQ(v, want + 1);
    ++want;
  });
  CHECK_EQ(n, std::size_t{20'000});
}

void test_autoscaler_modes() {
  // Autoscaler on: target stays inside [min, max].
  JiffyConfig c;
  c.autoscaler.min_size = 16;
  c.autoscaler.max_size = 64;
  c.autoscaler.interval_s = 0.001;
  JiffyMap<std::uint64_t, std::uint64_t> m(c);
  for (std::uint64_t i = 0; i < 10'000; ++i) m.put(splitmix64(i), i);
  for (std::uint64_t i = 0; i < 10'000; ++i) m.get(splitmix64(i));
  const auto st = m.debug_stats();
  CHECK(st.target_revision_size >= 16 && st.target_revision_size <= 64);
  CHECK(st.entry_count == 10'000);
  CHECK(st.avg_revision_size > 1.0);
}

}  // namespace

int main() {
  test_crud(cfg_fixed(4));      // tiny revisions: exercise splits hard
  test_crud(cfg_fixed(25));
  test_crud(cfg_fixed(300));    // big revisions: long binary searches
  test_crud(JiffyConfig{});     // autoscaler defaults
  test_fixed_bytes_shape();
  test_ascending_load();
  test_autoscaler_modes();
  std::puts("test_map_basic OK");
  return 0;
}
