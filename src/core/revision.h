// The revision format (DESIGN.md §1): the immutable sorted entry array that
// is Jiffy's unit of update, installed on a node by one CAS (paper §3.1),
// with the shared VersionCell and BatchDescriptor that multi-revision
// installs stamp and publish through, the builder every install fills, and
// splice(), the one copy-on-write rewrite. core/jiffy.h includes this
// header; the protocols that install, stamp and retire revisions live there.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/block_cache.h"
#include "common/prefetch.h"
#include "ebr/ebr.h"
#include "obs/trace.h"
#include "workload/keyvalue.h"

namespace jiffy {

inline constexpr std::uint64_t kPendingVersion = ~0ull;

enum class RevKind : std::uint8_t {
  kPlain,     // single-key update, split part or merge union
  kBatch,     // member of an atomic batch (§3.4)
  kAbsorbed,  // tombstone marker: this node's content moved to rev->home
};

// Shared version for multi-revision atomic installs (splits, merges and
// batches). A batch cell additionally owns the published BatchDescriptor
// (type-erased here so the cell stays untemplated); it is freed with the
// cell.
struct VersionCell {
  std::atomic<std::uint64_t> version{kPendingVersion};
  std::atomic<std::uint32_t> refs{0};
  void* batch = nullptr;
  void (*batch_deleter)(void*) = nullptr;

  ~VersionCell() {
    if (batch && batch_deleter) batch_deleter(batch);
  }

  // Drop one reference (a revision's, or a writer's own); the last frees c.
  static void release(VersionCell* c) {
    if (c->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)  // pairs: cell-refs
      delete c;
  }
};

// Published description of an in-flight atomic batch (§3.4): the sorted,
// last-wins-deduplicated op list plus the install watermark. Reachable from
// any installed kBatch revision as rev->cell->batch — this is the helping
// hook: a thread blocked on a pending batch revision replays ops[installed..)
// itself through JiffyMap::run_batch instead of spinning. The watermark only
// ever moves forward, by compare-exchange, from one group boundary to the
// next (every mover learned the target boundary from the installed
// revision's batch_hi or computed it from the same stable successor), so
// racing helpers agree on every transition.
template <class K, class V>
struct BatchDescriptor {
  std::vector<BatchOp<K, V>> ops;
  std::atomic<std::size_t> installed{0};  // ops[0, installed) have revisions

  static void destroy(void* p) { delete static_cast<BatchDescriptor*>(p); }
};

template <class K, class V>
struct JiffyNode;

// An immutable sorted entry array; the unit of update and of multiversioned
// reads. Published by a CAS on JiffyNode::rev and retired through EBR (unref)
// by the thread whose CAS swung that head pointer away from it: a node's rev
// is the only pointer that keeps a revision alive. `prev` edges are not
// counted — one may dangle after reclamation, but the version rule keeps
// readers off it.
//
// Entries live *inline*, directly after the struct in the same allocation
// (one less indirection per read): allocate() sizes the block, the builder
// placement-constructs entries, and the class-scope operator delete keeps
// plain `delete` (and EBR's deleter) freeing the whole block. The header is
// 56 bytes (DESIGN.md §1), so a merge marker is a header-only 56-byte block.
template <class K, class V>
struct Revision {
  using Entry = std::pair<K, V>;

  // kind and count lead: with version and cell they are what every lookup
  // of the revision reads, so they share its first 24 bytes.
  RevKind kind = RevKind::kPlain;
  std::uint32_t count = 0;           // constructed entries in the inline array
  std::atomic<std::uint64_t> version{kPendingVersion};
  VersionCell* cell = nullptr;       // shared version (splits/batches/merges)
  Revision* prev = nullptr;          // the revision this one replaced
  JiffyNode<K, V>* sibling = nullptr;    // split: first new right-hand node
  // One word that at most one kind of revision uses (DESIGN.md §1): a
  // non-null `sibling`, `kind` or the batch's own `cell` says which member
  // was written, and only that one is read.
  union {
    // Part 0 of a split (sibling != nullptr): next(0) value to CAS from.
    JiffyNode<K, V>* link_expect = nullptr;
    // kAbsorbed: the node that absorbed this one.
    JiffyNode<K, V>* home;
    // kBatch: end (excl.) of the op group this revision applied — lets
    // helpers tell "group installed, watermark lagging" from "earlier group
    // stacked here by a tombstone re-route"; as wide as
    // BatchDescriptor::installed so huge batches cannot wrap it.
    std::size_t batch_hi;
  };
  std::uint32_t cap = 0;             // inline array capacity (allocation size)
  std::uint32_t alloc_bytes = 0;  // block size allocate() drew, for dispose()

  // Bytes the header and the constructed entries occupy: alloc_bytes less
  // this is the block's slack (JiffyMap::debug_stats).
  std::size_t used_bytes() const {
    return entry_offset() + std::size_t{count} * sizeof(Entry);
  }

  static constexpr std::size_t entry_offset() {
    return (sizeof(Revision) + alignof(Entry) - 1) / alignof(Entry) *
           alignof(Entry);
  }

  Entry* entry_data() {
    return reinterpret_cast<Entry*>(reinterpret_cast<unsigned char*>(this) +
                                    entry_offset());
  }
  const Entry* entry_data() const {
    return reinterpret_cast<const Entry*>(
        reinterpret_cast<const unsigned char*>(this) + entry_offset());
  }

  const Entry* begin() const { return entry_data(); }
  const Entry* end() const { return entry_data() + count; }
  const Entry& entry(std::uint32_t i) const { return entry_data()[i]; }

  static Revision* allocate(std::uint32_t capacity) {
    // Plain ::operator new only guarantees the default alignment; the
    // inline array would silently misalign an over-aligned Entry type.
    static_assert(alignof(Entry) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned key/value types need an aligned allocator");
    // Revisions cycle at op rate (every update builds one and retires one),
    // so draw from the per-thread block cache: the most recently disposed
    // same-class block comes back first, skipping the allocator round trip
    // the EBR delay would otherwise turn into a cold miss (DESIGN.md §14.3).
    const std::size_t bytes = ThreadBlockCache::usable_size(
        entry_offset() + std::size_t{capacity} * sizeof(Entry));
    void* mem = ThreadBlockCache::allocate(bytes);
    auto* r = ::new (mem) Revision();
    r->cap = capacity;
    r->alloc_bytes = static_cast<std::uint32_t>(bytes);
    return r;
  }

  // The cache-aware free: every engine path funnels here (via unref). Reads
  // the block size before ending the object's lifetime, so the recycle needs
  // no out-of-band size map. Plain `delete` stays correct as a fallback —
  // operator delete below returns the block to the system allocator.
  static void dispose(Revision* r) {
    const std::size_t bytes = r->alloc_bytes;
    r->~Revision();
    ThreadBlockCache::deallocate(r, bytes);
  }

  static void operator delete(void* p) { ::operator delete(p); }

  ~Revision() {
    Entry* e = entry_data();
    for (std::uint32_t i = 0; i < count; ++i) e[i].~Entry();
    if (cell) VersionCell::release(cell);
  }

  std::uint64_t version_now() const {
    return cell
               ? cell->version.load(std::memory_order_seq_cst)  // pairs: version-stamp
               : version.load(std::memory_order_seq_cst);  // pairs: version-stamp
  }

  // Stamp a pending version with `t`; loses to any concurrent stamp.
  void stamp(std::uint64_t t) {
    std::uint64_t expected = kPendingVersion;
    if (cell)
      cell->version.compare_exchange_strong(
          expected, t, std::memory_order_seq_cst);  // pairs: version-stamp
    else
      version.compare_exchange_strong(
          expected, t, std::memory_order_seq_cst);  // pairs: version-stamp
  }

  // (Reader-side stamping policy lives in JiffyMap::try_help_stamp: plain
  // revisions, split parts and merge unions always — meeting a union proves
  // the merge's second and final CAS landed — and batch revisions once their
  // descriptor reports every install done. Pending kAbsorbed markers are
  // never stamped: their merge may still abort.)

  // Lower-bound position of k (first entry not less than k): the one search
  // every in-revision lookup goes through (DESIGN.md §3). Branchless: each
  // step halves the window [base, base + n) and picks the half by a
  // conditional move, so no step waits on a mispredicted compare, and it
  // prefetches both possible next probes while the current compare
  // resolves (§14.2). `lo` narrows the search to [lo, end()): splice()
  // resumes each op's search past the previous op.
  template <class Less>
  const Entry* lower_bound_pos(const K& k, const Less& less,
                               const Entry* lo = nullptr) const {
    const Entry* base = lo ? lo : begin();
    std::size_t n = static_cast<std::size_t>(end() - base);
    if (n == 0) return base;
    while (n > 1) {  // the answer lies in [base, base + n]
      const std::size_t half = n / 2;
      n -= half;
      prefetch_ro(base + n / 2);         // next probe if this one stays left
      prefetch_ro(base + half + n / 2);  // next probe if it moves right
      base = less(base[half].first, k) ? base + half : base;
    }
    return base + (less(base->first, k) ? 1 : 0);
  }

  // First entry greater than k (keys are unique within a revision).
  template <class Less>
  const Entry* upper_bound_pos(const K& k, const Less& less) const {
    const Entry* at = lower_bound_pos(k, less);
    return at + (holds(at, k, less) ? 1 : 0);
  }

  // Whether lower-bound position `at` holds k itself.
  template <class Less>
  bool holds(const Entry* at, const K& k, const Less& less) const {
    return at != end() && !less(k, at->first);
  }

  // The point lookup of get and contains.
  template <class Less>
  const Entry* find_binary(const K& k, const Less& less) const {
    const Entry* it = lower_bound_pos(k, less);
    return holds(it, k, less) ? it : nullptr;
  }

  template <class Less>  // frozen-benchmark shim, defined below
  const Entry* find(const K& k, std::uint16_t tag, const Less& less) const;

  // Drop the revision's one reference: retire it through EBR, or dispose
  // of it at once when no reader can reach it (`immediate`: an install
  // loser that was never published, or single-threaded teardown).
  static void unref(Revision* r, bool immediate = false) {
    if (immediate) {
      obs::trace_retire(r, r->alloc_bytes, obs::RetireTag::kRevUnrefImmediate);
      dispose(r);
      return;
    }
    obs::trace_retire(r, r->alloc_bytes, obs::RetireTag::kRevUnref);
    ebr::retire_fn(r, [](void* q) {  // unlink: rev-unref
      dispose(static_cast<Revision*>(q));
    });
  }
};

// ---- frozen-benchmark shim --------------------------------------------------
// The repository benchmark (perfbench/, changed only together with
// BENCHMARK.json) still names three symbols of the revision hash index that
// DESIGN.md §3 removed: fold_hash16, the tagged Revision::find and a third
// RevisionBuilder template argument. They are kept inert so it compiles: the
// tag and the template argument are ignored, so its
// core.revision.find_hash_ns probe times find_binary. Delete this block
// together with that probe.
inline std::uint16_t fold_hash16(std::size_t h) {
  std::uint64_t x = h;
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 29;
  return static_cast<std::uint16_t>(x ^ (x >> 16));
}

template <class K, class V>
template <class Less>
const typename Revision<K, V>::Entry* Revision<K, V>::find(
    const K& k, std::uint16_t /*tag*/, const Less& less) const {
  return find_binary(k, less);
}

template <class K, class V, class Unused = std::hash<K>>
class RevisionBuilder;
// ---- end of frozen-benchmark shim -------------------------------------------

// Builds a revision from entries emitted or appended in ascending key order;
// finish() hands it over.
template <class K, class V, class>
class RevisionBuilder {
 public:
  using Rev = Revision<K, V>;
  using Entry = typename Rev::Entry;

  RevisionBuilder(RevKind kind, std::uint32_t capacity,
                  std::uint64_t version = kPendingVersion)
      : rev_(Rev::allocate(capacity)) {
    rev_->kind = kind;
    // relaxed: the revision is thread-private until the install CAS.
    rev_->version.store(version, std::memory_order_relaxed);
  }
  RevisionBuilder(RevisionBuilder&& o) noexcept
      : rev_(std::exchange(o.rev_, nullptr)) {}

  ~RevisionBuilder() {
    if (rev_) Rev::dispose(rev_);
  }

  void emit(K k, V v) {
    assert(rev_->count < rev_->cap);
    ::new (rev_->entry_data() + rev_->count)
        Entry(std::move(k), std::move(v));
    ++rev_->count;
  }

  // Copy a run of existing entries in one go (the bulk of every rebuild).
  void append(const Entry* first, const Entry* last) {
    assert(last - first <= room());
    std::uninitialized_copy(first, last, rev_->entry_data() + rev_->count);
    rev_->count += static_cast<std::uint32_t>(last - first);
  }

  std::uint32_t room() const { return rev_->cap - rev_->count; }

  Rev* finish() { return std::exchange(rev_, nullptr); }

 private:
  Rev* rev_;
};

// The one copy-on-write rewrite (DESIGN.md §1): feeds `out` (a builder or
// a PartSink) r's entries with the sorted, key-unique `ops` applied. Per
// op: binary-search its position among the entries not yet copied, append
// the untouched run before it, skip the entry it replaces or erases, and
// emit a put's new entry; the tail follows in one more append. `at`, when
// given, is ops' first position (put and erase already searched for it).
// An op that lands right where the previous one left off (a dense batch
// group) costs one compare and no search.
template <class K, class V, class Less, class Sink>
void splice(const Revision<K, V>& r, std::span<const BatchOp<K, V>> ops,
            const Less& less, Sink& out,
            const typename Revision<K, V>::Entry* at = nullptr) {
  const auto* it = r.begin();
  for (const BatchOp<K, V>& op : ops) {
    const auto* pos = at ? at : it;
    if (pos != r.end() && less(pos->first, op.key))
      pos = r.lower_bound_pos(op.key, less, pos + 1);
    at = nullptr;
    out.append(it, pos);
    it = pos + (r.holds(pos, op.key, less) ? 1 : 0);
    if (op.kind == BatchOp<K, V>::Kind::kPut) out.emit(op.key, op.value);
  }
  out.append(it, r.end());
}

// Splice sink that records a rewrite instead of performing it: the runs of
// the old revision to copy and the entries to write, in order, and how many
// entries they make. A batch group sizes its revision from the count, then
// replays the script into the builder without searching again.
template <class K, class V>
struct ScriptSink {
  using Entry = std::pair<K, V>;
  struct Step {
    const Entry* first;  // a run [first, last) to copy, or null for an entry
    const Entry* last;
    const K* key;
    const V* value;
  };
  std::vector<Step> steps;
  std::uint32_t n = 0;

  void append(const Entry* first, const Entry* last) {
    if (first == last) return;
    steps.push_back({first, last, nullptr, nullptr});
    n += static_cast<std::uint32_t>(last - first);
  }
  void emit(const K& k, const V& v) {
    steps.push_back({nullptr, nullptr, &k, &v});
    ++n;
  }
  template <class Sink>
  void replay(Sink& out) const {
    for (const Step& s : steps) {
      if (s.first)
        out.append(s.first, s.last);
      else
        out.emit(*s.key, *s.value);
    }
  }
  void clear() {
    steps.clear();
    n = 0;
  }
};

// Splice sink for a split: cuts the rebuilt entry stream into consecutive
// revisions, one builder per part, each sized up front and filled in turn,
// so every run is copied once, in one append per part it spans.
template <class K, class V>
struct PartSink {
  using Builder = RevisionBuilder<K, V>;
  std::vector<Builder> parts;
  std::size_t cur = 0;

  Builder& open() {
    while (parts[cur].room() == 0) ++cur;
    return parts[cur];
  }
  void append(const typename Builder::Entry* first,
              const typename Builder::Entry* last) {
    for (std::ptrdiff_t n; first != last; first += n) {
      n = std::min<std::ptrdiff_t>(open().room(), last - first);
      parts[cur].append(first, first + n);
    }
  }
  void emit(const K& k, const V& v) { open().emit(k, v); }
};

}  // namespace jiffy
