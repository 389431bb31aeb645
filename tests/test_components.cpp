// Unit checks for the supporting subsystems: clocks, RNG + distributions,
// key/value codecs, FixedBytes ordering, revision builder + binary search,
// the splice rewrite and its part sink, the node block layout, the
// thread-local block cache and the fit of revision blocks, EBR, and the CSLM
// baseline (sequential and a short 4-thread shake).
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "baselines/cslm.h"
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

  // Binary search is the only lookup: check lower_bound_pos, upper_bound_pos
  // and find_binary against std::lower_bound/upper_bound at every size from
  // empty to past the autoscaler's largest target, so every window size the
  // branchless halving loop narrows through is covered, odd and even, down
  // to the final one-entry compare. Keys are 3, 6, ..., 3n: every hit,
  // every gap between entries, and the misses below and above. Then again
  // from every start position `lo` (splice() resumes each op's search past
  // the previous op), probing the start entry's key, the gap below it and
  // every hit and gap after it.
  for (std::uint32_t n = 0; n <= 300; ++n) {
    Bld b(RevKind::kPlain, n, /*version=*/1);
    std::vector<std::uint64_t> keys;
    for (std::uint32_t i = 0; i < n; ++i) {
      keys.push_back(std::uint64_t{i + 1} * 3);
      b.emit(keys.back(), i + 1);
    }
    Rev* r = b.finish();
    CHECK_EQ(r->count, n);
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
      const auto above = std::upper_bound(keys.begin(), keys.end(), probe);
      CHECK_EQ(r->upper_bound_pos(probe, lt) - r->begin(),
               above - keys.begin());
    }
    for (std::uint32_t lo = 0; lo <= n; ++lo) {
      for (std::uint64_t probe = std::uint64_t{lo} * 3 + 1;
           probe <= std::uint64_t{n} * 3 + 4; ++probe) {
        const auto want =
            std::lower_bound(keys.begin() + lo, keys.end(), probe);
        CHECK_EQ(r->lower_bound_pos(probe, lt, r->begin() + lo) - r->begin(),
                 want - keys.begin());
      }
    }
    Rev::unref(r, /*immediate=*/true);
  }
}

// splice() is the only way a revision is rewritten (put, erase, batch
// groups, splits). At every size from empty to past the largest target,
// apply single ops and multi-op groups to keys 3, 6, ..., 3n (value = key
// + 1) and compare the result with a sorted-vector model, both built into
// one revision and cut into parts by a PartSink.
void test_splice() {
  using Rev = Revision<std::uint64_t, std::uint64_t>;
  using Bld = RevisionBuilder<std::uint64_t, std::uint64_t>;
  using Op = BatchOp<std::uint64_t, std::uint64_t>;
  using Model = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  const std::less<std::uint64_t> lt;
  Rng rng(11);

  auto apply_model = [](Model m, const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      auto it = std::lower_bound(
          m.begin(), m.end(), op.key,
          [](const auto& e, std::uint64_t k) { return e.first < k; });
      if (it != m.end() && it->first == op.key) it = m.erase(it);
      if (op.kind == Op::Kind::kPut) m.insert(it, {op.key, op.value});
    }
    return m;
  };

  for (std::uint32_t n = 0; n <= 300; ++n) {
    Bld b(RevKind::kPlain, n, /*version=*/1);
    Model base;
    for (std::uint32_t i = 0; i < n; ++i) {
      base.emplace_back(std::uint64_t{i + 1} * 3, std::uint64_t{i + 1} * 3 + 1);
      b.emit(base.back().first, base.back().second);
    }
    Rev* r = b.finish();

    // Rebuild r with `ops` into one revision, and into up to three parts.
    auto run = [&](const std::vector<Op>& ops, bool hint) {
      const Model want = apply_model(base, ops);
      const auto* at =
          hint && !ops.empty() ? r->lower_bound_pos(ops[0].key, lt) : nullptr;
      Bld one(RevKind::kPlain, static_cast<std::uint32_t>(want.size()));
      splice(*r, std::span<const Op>(ops), lt, one, at);
      Rev* got = one.finish();
      CHECK_EQ(got->count, want.size());
      CHECK(Model(got->begin(), got->end()) == want);
      Rev::unref(got, /*immediate=*/true);

      PartSink<std::uint64_t, std::uint64_t> sink;
      std::size_t left = want.size();
      for (std::size_t cut : {want.size() / 3, want.size() / 2}) {
        sink.parts.emplace_back(RevKind::kPlain, static_cast<std::uint32_t>(cut));
        left -= cut;
      }
      sink.parts.emplace_back(RevKind::kPlain, static_cast<std::uint32_t>(left));
      splice(*r, std::span<const Op>(ops), lt, sink, at);
      Model joined;
      for (Bld& part : sink.parts) {
        Rev* p = part.finish();
        joined.insert(joined.end(), p->begin(), p->end());
        Rev::unref(p, /*immediate=*/true);
      }
      CHECK(joined == want);
    };

    // Inserts before, between and after the entries; each one overwritten;
    // each one erased; and erases of absent keys below, between and above.
    // Single ops pass their position the way put and erase do; an absent
    // erase searches itself, as a batch group's does.
    for (std::uint64_t k = 1; k <= std::uint64_t{n} * 3 + 2; k += 3) {
      run({Op::put(k, k * 7)}, true);
      run({Op::remove(k)}, false);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      run({Op::put(base[i].first, 0)}, true);
      run({Op::remove(base[i].first)}, i % 2 == 0);
    }

    // Groups (sorted, one op per key) over keys below, on, between and past
    // the entries, in every mix of puts and erases; dense groups first,
    // then sparse ones.
    for (int g = 0; g < 8; ++g) {
      const std::uint64_t span = std::uint64_t{n} * 3 + 6;
      const std::uint64_t gap = g < 4 ? 3 : span / 4 + 1;
      std::vector<Op> ops;
      for (std::uint64_t k = rng.next_below(4); k < span;
           k += 1 + rng.next_below(gap)) {
        if (rng.next_bool(0.5))
          ops.push_back(Op::put(k, rng.next()));
        else
          ops.push_back(Op::remove(k));
      }
      run(ops, g % 2 == 0);
    }
    Rev::unref(r, /*immediate=*/true);
  }
}

// A node is one block: the header, then `height` inline tower slots. At
// every height each slot must start null and lie inside the node's own block,
// past the header; writing every slot must leave the header intact (and
// stay inside the allocation, which ASan checks).
template <class K>
void check_node_block(K anchor) {
  using Node = JiffyNode<K, std::uint32_t>;
  for (int h = 1; h <= Node::kMaxHeight; ++h) {
    Node* n = Node::create(h, /*head=*/false, anchor);
    const auto lo = reinterpret_cast<std::uintptr_t>(n);
    const std::uintptr_t hi = lo + Node::block_bytes(h);
    for (int l = 0; l < h; ++l) {
      const auto slot = reinterpret_cast<std::uintptr_t>(&n->next(l));
      CHECK(slot >= lo + sizeof(Node));
      CHECK(slot + sizeof(typename Node::Link) <= hi);
      CHECK(n->next(l).load(std::memory_order_relaxed) == nullptr);
    }
    for (int l = 0; l < h; ++l) n->next(l).store(n, std::memory_order_relaxed);
    CHECK_EQ(n->height, h);
    CHECK(!n->is_head);
    CHECK(n->anchor == anchor);
    CHECK(n->rev.load(std::memory_order_relaxed) == nullptr);
    CHECK(n->back.load(std::memory_order_relaxed) == nullptr);
    CHECK(!n->condemned.load(std::memory_order_relaxed));
    delete n;
  }
}

void test_node_block() {
  check_node_block<std::uint64_t>(42);
  check_node_block<std::uint32_t>(7);  // the repository benchmark's key
  check_node_block(KeyCodec<Key16>::encode(3, 100));
}

// The cache runs on a fresh thread, so its thread-local lists start empty
// whatever the earlier checks parked on the main thread.
void test_block_cache() {
  using C = ThreadBlockCache;
  // usable_size never shrinks a request and is idempotent: a revision's
  // alloc_bytes may be passed back through it.
  for (std::size_t n = 0; n <= C::kMaxBlockBytes + 64; ++n) {
    const std::size_t u = C::usable_size(n);
    CHECK(u >= n);
    CHECK_EQ(C::usable_size(u), u);
  }
  std::thread([] {
    // Oversized blocks always bypass the cache: the size passes through
    // unchanged and freeing one parks nothing.
    const std::size_t big = C::kMaxBlockBytes + 1;
    CHECK_EQ(C::usable_size(big), big);
    void* d = C::allocate(big);
    CHECK(d != nullptr);
    C::deallocate(d, big);
    CHECK_EQ(C::cached_bytes(), std::size_t{0});

    if (!JIFFY_BLOCK_CACHE_ENABLED) {
      // Cache compiled out (sanitizer build): sizes are exact and
      // allocate/deallocate pair up as the plain allocator.
      CHECK_EQ(C::usable_size(100), std::size_t{100});
      void* p = C::allocate(100);
      CHECK(p != nullptr);
      C::deallocate(p, 100);
      CHECK_EQ(C::cached_bytes(), std::size_t{0});
      return;
    }

    // Every cacheable request wastes less than one granule, and a class
    // fills its allocator chunk: 32(c + 1) - 8 bytes.
    for (std::size_t n = 1; n <= C::kMaxBlockBytes; ++n) {
      const std::size_t u = C::usable_size(n);
      CHECK(u - n < C::kGranularity);
      CHECK_EQ((u + C::kChunkHeader) % C::kGranularity, std::size_t{0});
    }
    CHECK_EQ(C::usable_size(56), std::size_t{56});  // a merge marker
    CHECK_EQ(C::usable_size(C::kMaxBlockBytes), C::kMaxBlockBytes);

    // The most recently freed block of a class is served first (LIFO),
    // which is the whole point: the warmest lines go to the next build.
    const std::size_t u = C::usable_size(456);
    void* a = C::allocate(u);
    void* b = C::allocate(u);
    C::deallocate(a, u);
    C::deallocate(b, u);
    CHECK_EQ(C::cached_bytes(), 2 * u);
    CHECK(C::allocate(u) == b);
    CHECK(C::allocate(u) == a);
    CHECK_EQ(C::cached_bytes(), std::size_t{0});

    // Neighbouring classes never alias a block parked in another one.
    C::deallocate(a, u);
    const std::size_t below = C::usable_size(u - C::kGranularity);
    const std::size_t above = C::usable_size(u + 1);
    CHECK(below < u && above > u);
    void* lo = C::allocate(below);
    void* hi = C::allocate(above);
    CHECK(lo != a && hi != a);
    CHECK(C::allocate(u) == a);
    C::deallocate(lo, below);
    C::deallocate(hi, above);
    C::deallocate(a, u);
    C::deallocate(b, u);

    // The cap: parking stops once the next block would pass it, and the
    // blocks that did not fit went back to the allocator.
    const std::size_t s = C::usable_size(1000);
    std::vector<void*> blocks;
    for (std::size_t i = 0; i < C::kMaxCachedBytes / s + 4; ++i)
      blocks.push_back(C::allocate(s));
    const std::size_t before = C::cached_bytes();
    std::size_t parked = 0;
    for (void* p : blocks) {
      const std::size_t was = C::cached_bytes();
      C::deallocate(p, s);
      if (C::cached_bytes() == was + s) ++parked;
      CHECK(C::cached_bytes() <= C::kMaxCachedBytes);
    }
    CHECK_EQ(parked, (C::kMaxCachedBytes - before) / s);
    CHECK(C::cached_bytes() + s > C::kMaxCachedBytes);
    // LIFO again: the last block that fit comes back first.
    CHECK(C::allocate(s) == blocks[parked - 1]);
    C::deallocate(blocks[parked - 1], s);
  }).join();
}

// Every revision block is as big as its entries and no bigger. A scripted
// run on a quiescent map (autoscaler off, revisions capped at 8 entries,
// no purge) goes through an insert, an overwrite, an erase, a split, a
// merge with its marker and two batches, one of whose groups overwrites
// and erases. After each step the byte accounting of debug_stats() must
// equal what the revision sizes predict, and no linked head revision may
// sit a granule above its used bytes.
template <class K, class V>
void check_revision_fit() {
  using Map = JiffyMap<K, V>;
  using Rev = typename Map::Rev;
  using Node = typename Map::Node;
  using Entry = typename Map::Entry;
  JiffyConfig cfg;
  cfg.autoscaler.enabled = false;
  cfg.autoscaler.fixed_size = 8;
  cfg.reclaim.auto_purge = false;
  Map m(cfg);
  auto key = [](std::uint64_t i) { return KeyCodec<K>::encode(i, 1'000); };
  // `revs` lists the entry count of every linked head revision, head first.
  auto expect = [&](std::initializer_list<std::uint32_t> revs) {
    const auto s = m.debug_stats();
    std::size_t bytes = 0, slack = 0, worst = 0;
    for (std::uint32_t n : revs) {
      const std::size_t used = Rev::entry_offset() + n * sizeof(Entry);
      const std::size_t block = ThreadBlockCache::usable_size(used);
      bytes += block;
      slack += block - used;
      worst = std::max(worst, block - used);
    }
    CHECK_EQ(s.revision_bytes, bytes);
    CHECK_EQ(s.revision_slack_bytes, slack);
    CHECK_EQ(s.max_revision_slack_bytes, worst);
    CHECK(s.max_revision_slack_bytes < ThreadBlockCache::kGranularity);
    // Node blocks: the head's full tower, then 1..kMaxHeight slots each.
    const std::size_t others = revs.size() - 1;
    const std::size_t towers = s.node_bytes -
                               Node::block_bytes(Node::kMaxHeight) -
                               others * Node::tower_offset();
    CHECK_EQ(towers % sizeof(typename Node::Link), std::size_t{0});
    CHECK(towers >= others * sizeof(typename Node::Link));
    CHECK(towers <= others * Node::kMaxHeight * sizeof(typename Node::Link));
  };

  expect({0});  // the empty head revision
  m.put(key(10), V{});
  expect({1});  // an insert
  m.put(key(10), V{});
  expect({1});  // an overwrite
  m.put(key(20), V{});
  CHECK(m.erase(key(20)));
  expect({1});  // an erase
  for (std::uint64_t i = 20; i <= 80; i += 10) m.put(key(i), V{});
  expect({8});
  m.put(key(90), V{});  // past the cap at the end: the dense 7 + 2 split
  expect({7, 2});
  for (std::uint64_t i = 10; i <= 40; i += 10) CHECK(m.erase(key(i)));
  // 3 + 2 entries fit 7/10 of the cap: the head absorbed the successor,
  // which is left as a header-only merge marker.
  CHECK_EQ(m.debug_stats().tombstone_count, std::size_t{1});
  expect({5, 0});
  // A batch of one group below the marker's anchor: an insert, an
  // overwrite, an erase and an erase of an absent key leave 5 entries.
  Batch<K, V> b;
  b.put(key(55), V{});
  b.put(key(60), V{});
  b.erase(key(70));
  b.erase(key(75));
  m.apply(std::move(b));
  expect({5, 0});
  // Keys past the marker's anchor route to the head one group at a time,
  // each stacked on the previous group's revision.
  Batch<K, V> b2;
  b2.put(key(100), V{});
  b2.put(key(110), V{});
  m.apply(std::move(b2));
  expect({7, 0});
  CHECK_EQ(m.size_slow(), std::size_t{7});
}

void test_revision_fit() {
  static_assert(sizeof(Revision<std::uint32_t, std::uint32_t>) <= 56,
                "the revision header must stay within 56 bytes");
  static_assert(JiffyNode<std::uint32_t, std::uint32_t>::tower_offset() == 32,
                "a 4-byte-key node header is 32 bytes");
  check_revision_fit<std::uint32_t, std::uint32_t>();  // perfbench's entries
  check_revision_fit<Key16, Value100>();               // fig5's 116-B entries
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
    baselines::CslmMap<std::uint64_t, std::uint64_t> m;
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

}  // namespace

int main() {
  test_clocks();
  test_rng_and_chooser();
  test_codecs();
  test_revision_builder();
  test_splice();
  test_node_block();
  test_block_cache();
  test_revision_fit();
  test_ebr();
  test_cslm();
  std::puts("test_components OK");
  return 0;
}
