// Jiffy: a lock-free ordered map with fat-node revisions, batch updates and
// snapshots (Kobus, Kokociński, Wojciechowski; PPoPP 2022).
//
// Layout (DESIGN.md has the full story):
//   * The bottom level is a linked list of *fat nodes*; each node owns a key
//     range [anchor, next->anchor) and points to an immutable Revision — a
//     sorted array of entries, searched by binary search (DESIGN.md §3).
//     A skip-list tower over the nodes (grown at node creation, never
//     removed) gives O(log n) node location.
//   * Every update builds a new revision and CASes the node's revision
//     pointer; the replaced revision stays reachable through `prev`, forming
//     a per-node version chain that snapshot readers walk.
//   * Versions are timestamps (tsc/clock.h). A new revision is installed
//     with a *pending* version and stamped right after the CAS; readers that
//     meet a pending plain revision help stamp it. Node splits install every
//     resulting revision under one shared VersionCell in a single CAS on the
//     old node (the new right-hand nodes hang off the revision's `sibling`
//     pointer until helped into the list), so a split is atomic.
//   * Batch updates (§3.4) are built through the typed Batch builder and
//     applied via apply(): one kBatch revision per affected node, installed
//     in ascending key order, all sharing a VersionCell that is stamped only
//     after the last install: the whole batch becomes visible atomically.
//     The sorted, deduplicated op list is published in a BatchDescriptor
//     hanging off the cell (the helping hook). Readers treat a pending batch
//     revision as not-yet-linearized and read through `prev`; writers that
//     meet a pending half-installed batch *help*: they replay
//     ops[installed..) from the descriptor through the same run_batch()
//     loop the owner uses, so a stalled (even killed) batch writer never
//     blocks anyone (DESIGN.md §6).
//   * Nodes carry backward links (the paper's list is doubly linked): `back`
//     is a best-effort hint to a strict list-predecessor, re-validated by a
//     forward walk, powering reverse cursors and rscan_n under the same
//     TSC-version visibility rules as forward scans.
//   * Replaced revisions are retired through EBR *after* their successor is
//     stamped; together with monotonic clock reads this guarantees a reader
//     never follows `prev` into memory retired before its guard began.
//   * Revision size is either fixed or driven by a time-weighted EMA of the
//     read fraction (§3.3.6): small revisions for update-heavy phases, large
//     ones for lookup-heavy phases.
//   * Merge tombstones are physically reclaimed by a cooperative purge()
//     pass once their death version drops below the oldest active version
//     ticket (snapshots, cursors, in-flight scans — see ebr::VersionTicket
//     and DESIGN.md §9). Until then routing skips them and old snapshots
//     keep reading through their markers.
//   * The protocol windows (install→stamp, marker→union, group→watermark)
//     carry named schedule points (schedule_points.h): free in release
//     builds, fault-injection hooks in test builds.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/block_cache.h"
#include "common/analysis.h"
#include "common/prefetch.h"
#include "common/striped_counter.h"
#include "core/schedule_points.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "ebr/ebr.h"
#include "tsc/clock.h"
#include "workload/keyvalue.h"
#include "workload/rng.h"

namespace jiffy {

inline constexpr std::uint64_t kPendingVersion = ~0ull;

// Bounded spin, then cede the CPU. The protocol windows writers wait out
// (a pending merge marker, a half-installed batch group) are a handful of
// instructions wide, so on a machine with free cores a short cpu_relax()
// spin wins — but when the window's owner has been *preempted* (always the
// case once threads outnumber cores; see the 1->8 thread sweeps in
// BENCH_RESULTS/), spinning burns the rest of a scheduler quantum doing
// nothing while the owner waits for a CPU. Yielding after a short spin
// hands the quantum to the owner instead, which is where the oversubscribed
// update-only scaling went. Stateful so the spin budget resets after every
// yield.
class SpinBackoff {
 public:
  void pause() {
    if (++spins_ >= kSpinLimit) {
      spins_ = 0;
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }

 private:
  static constexpr int kSpinLimit = 64;
  int spins_ = 0;
};

enum class RevKind : std::uint8_t {
  kPlain,     // single-key update (or split part)
  kBatch,     // member of an atomic batch (§3.4)
  kMerge,     // union revision absorbing the successor node (§3.3.6)
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
    if (cell &&
        cell->refs.fetch_sub(1, std::memory_order_acq_rel) ==  // pairs: cell-refs
            1)
      delete cell;
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
  // revisions and split parts always, batch revisions once their descriptor
  // reports every install done, merge revisions always — meeting one proves
  // the merge's second and final CAS landed. Pending kAbsorbed markers are
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

// A fat node: a key range plus the head of its revision chain. `next(0)` is
// the bottom-level list; higher next slots form the search tower. Nodes are
// never removed, so towers need no marks.
//
// The tower lives *inline*, directly after the header in the same block
// (the layout Revision uses for its entries): a descent hop computes the
// slot's address from the node pointer and reads the anchor and the slot
// from one line, or two adjacent ones, instead of loading a pointer and
// chasing it into a second heap block. create() sizes the block for
// `height` slots, and the class-scope operator delete keeps plain `delete`
// (and EBR's deleter) freeing the whole block.
//
// `back` makes the bottom level doubly linked (paper §3.1) for reverse
// cursors: a best-effort hint that always points to a *strict list
// predecessor* — nodes are never unlinked and never reordered, so every
// back edge moves strictly left in list position and back-chains terminate
// at the head. (Anchors usually shrink along a back edge too, but may tie
// with a tombstone's, or even grow when a merge victim's hint is later
// retargeted at a resplit part, so termination must not be argued from
// anchors.) The hint is not necessarily the immediate predecessor —
// SnapPos::pred_at() re-validates with a forward walk and tightens it.
template <class K, class V>
struct JiffyNode {
  using Link = std::atomic<JiffyNode*>;
  static constexpr int kMaxHeight = 20;

  // One byte, so a 4-byte anchor packs into the header's first word and a
  // 4-byte-key node header is 32 B (DESIGN.md §1).
  const std::uint8_t height;
  const bool is_head;
  // Set (once, never cleared) by the purge pass on a dead tombstone it is
  // about to unlink: writers that could otherwise re-publish a link to the
  // node check it first (install_split, SnapPos::pred_at). See DESIGN.md §9.
  std::atomic<bool> condemned{false};
  const K anchor;
  std::atomic<Revision<K, V>*> rev{nullptr};
  std::atomic<JiffyNode*> back{nullptr};
  std::atomic<std::uint64_t> birth{kPendingVersion};

  static constexpr std::size_t tower_offset() {
    return (sizeof(JiffyNode) + alignof(Link) - 1) / alignof(Link) *
           alignof(Link);
  }

  static constexpr std::size_t block_bytes(int h) {
    return tower_offset() + static_cast<std::size_t>(h) * sizeof(Link);
  }

  // Tower slot l, 0 <= l < height.
  Link& next(int l) {
    assert(l >= 0 && l < height);
    return tower()[l];
  }

  // A node of `h` tower slots, every slot null.
  static JiffyNode* create(int h, bool head, K a) {
    static_assert(alignof(JiffyNode) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned key types need an aligned allocator");
    static_assert(std::is_trivially_destructible_v<Link>,
                  "~JiffyNode does not destroy the tower slots");
    static_assert(std::is_nothrow_move_constructible_v<K>,
                  "create() would leak the block if the anchor's move threw");
    auto* n = ::new (::operator new(block_bytes(h)))
        JiffyNode(h, head, std::move(a));
    for (int l = 0; l < h; ++l) ::new (n->tower() + l) Link(nullptr);
    return n;
  }

  static void operator delete(void* p) { ::operator delete(p); }

 private:
  Link* tower() {
    return reinterpret_cast<Link*>(reinterpret_cast<unsigned char*>(this) +
                                   tower_offset());
  }

  JiffyNode(int h, bool head, K a)
      : height(static_cast<std::uint8_t>(h)),
        is_head(head),
        anchor(std::move(a)) {
    static_assert(kMaxHeight <= 255, "height is stored in one byte");
    assert(h >= 1 && h <= kMaxHeight);
  }
};

struct JiffyConfig {
  struct Autoscaler {
    bool enabled = true;
    std::uint32_t fixed_size = 128;  // revision size cap when disabled
    std::uint32_t min_size = 48;     // target at 0% reads
    std::uint32_t max_size = 224;    // target at 100% reads
    // Byte budgets bounding the entry-count targets above (DESIGN.md §14.2).
    // A put rebuilds its whole revision, so the *byte* size of a revision —
    // entry count x sizeof(Entry) — is what the write fast path actually
    // pays; the count targets were tuned for ~12B entries and turn into
    // multi-KB memcpys per update at 100B values. JiffyMap derives effective
    // min/max counts as min(count target, byte budget / sizeof(Entry)),
    // floored at 8/32 entries — a pure reduction, so explicit small configs
    // and small-entry workloads see exactly the counts configured here.
    static constexpr std::uint32_t kMinBytes = 576;   // 48 entries x 12B
    static constexpr std::uint32_t kMaxBytes = 2688;  // 224 entries x 12B
    // EMA time constant (paper: ~1-10 s adjustment; scaled to small runs).
    static constexpr double kTauSeconds = 0.5;
    double interval_s = 0.05;  // min recompute interval
  } autoscaler;
  struct Reclaim {
    bool auto_purge = true;  // run purge() from the merge path once the dead
                             // shells reach JiffyMap::purge_trigger()
  } reclaim;
};

// Time-weighted EMA of the read fraction driving the revision-size target
// (§3.3.6). Ops are sampled 1-in-16 through a thread-local counter, and the
// sampled tallies land in a per-thread-sharded slot array (one cacheline per
// slot) instead of two process-global atomics — the EMA path touches shared
// memory only on refresh, when the window owner drains the slots. See
// DESIGN.md §14.
class RevisionAutoscaler {
 public:
  explicit RevisionAutoscaler(const JiffyConfig::Autoscaler& cfg)
      : cfg_(cfg) {
    // relaxed: constructor runs before the scaler is shared.
    target_.store(cfg_.enabled ? (cfg_.min_size + cfg_.max_size) / 2
                               : cfg_.fixed_size,
                  std::memory_order_relaxed);
    // relaxed: constructor runs before the scaler is shared.
    ema_.store(0.5, std::memory_order_relaxed);
    // relaxed: constructor runs before the scaler is shared.
    last_ns_.store(now_ns(), std::memory_order_relaxed);
  }

  std::uint32_t target() const {
    // relaxed: advisory sizing hint; any recent value is acceptable.
    return target_.load(std::memory_order_relaxed);
  }

  double read_fraction_ema() const {
    // relaxed: statistics readout; no ordering with other state needed.
    return ema_.load(std::memory_order_relaxed);
  }

  void note(bool is_read, std::uint64_t weight = 1) {
    if (!cfg_.enabled) return;
    thread_local std::uint32_t tick = 0;
    if ((tick++ & 15u) != 0 && weight == 1) return;
    const std::uint64_t w = weight == 1 ? 16 : weight;
    TallySlot& slot =
        tallies_[detail::thread_shard_id() & (kCounterShards - 1)];
    // relaxed: sampled per-shard op counter; only totals matter, not
    // ordering — the drain in maybe_update sums whatever landed.
    (is_read ? slot.reads : slot.writes).fetch_add(w,
                                                   std::memory_order_relaxed);
    maybe_update();
  }

 private:
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void maybe_update() {
    const std::uint64_t now = now_ns();
    // relaxed: throttle timestamp; the CAS below arbitrates the window and
    // a stale read only skips one update.
    std::uint64_t last = last_ns_.load(std::memory_order_relaxed);
    const auto interval_ns =
        static_cast<std::uint64_t>(cfg_.interval_s * 1e9);
    if (now - last < interval_ns) return;
    // relaxed: mutual exclusion here is advisory — a lost update window
    // only delays the EMA, it cannot corrupt it.
    if (!last_ns_.compare_exchange_strong(last, now,
                                          std::memory_order_relaxed))
      return;  // someone else owns this update window
    std::uint64_t r = 0;
    std::uint64_t w = 0;
    for (TallySlot& s : tallies_) {
      // relaxed: approximate sample harvest; samples landing around the
      // exchange are counted in whichever window drains their slot next.
      r += s.reads.exchange(0, std::memory_order_relaxed);
      // relaxed: same approximate harvest as the reads exchange above.
      w += s.writes.exchange(0, std::memory_order_relaxed);
    }
    if (r + w == 0) return;
    const double rf = static_cast<double>(r) / static_cast<double>(r + w);
    const double dt = static_cast<double>(now - last) * 1e-9;
    const double alpha =
        1.0 - std::exp(-dt / JiffyConfig::Autoscaler::kTauSeconds);
    // relaxed: only the CAS winner writes ema_ in this window; readers
    // tolerate any recent value.
    double ema = ema_.load(std::memory_order_relaxed);
    ema += alpha * (rf - ema);
    // relaxed: see the load above — advisory statistic.
    ema_.store(ema, std::memory_order_relaxed);
    const double t = cfg_.min_size + ema * (cfg_.max_size - cfg_.min_size);
    // relaxed: advisory sizing hint consumed by target().
    target_.store(static_cast<std::uint32_t>(t + 0.5),
                  std::memory_order_relaxed);
  }

  // One cacheline of sampled tallies per thread shard: reads and writes for
  // a shard are written by the same thread, so they share a line on purpose;
  // distinct shards never do.
  struct alignas(kCacheLineBytes) TallySlot {
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> writes{0};
  };
  static_assert(sizeof(TallySlot) == kCacheLineBytes,
                "tally slots must not share cachelines across shards");

  JiffyConfig::Autoscaler cfg_;
  TallySlot tallies_[kCounterShards];
  // last_ns_ is CAS-contended by every sampled op that crosses the refresh
  // interval; keep it off the line holding the read-mostly ema_/target_.
  CachePadded<std::atomic<std::uint64_t>> last_ns_pad_;
  std::atomic<std::uint64_t>& last_ns_ = last_ns_pad_.value;
  std::atomic<double> ema_{0.5};
  std::atomic<std::uint32_t> target_{128};
};

template <class MapT>
class Snapshot;

template <class K, class V, class Less = std::less<K>, class Clock = TscClock>
class JiffyMap {
 public:
  using key_type = K;
  using mapped_type = V;
  using Rev = Revision<K, V>;
  using Builder = RevisionBuilder<K, V>;
  using Node = JiffyNode<K, V>;
  using Entry = typename Rev::Entry;
  using SnapshotT = Snapshot<JiffyMap>;

  JiffyMap() : JiffyMap(JiffyConfig{}) {}

  // Apply the autoscaler's byte budgets to its entry-count targets for this
  // map's sizeof(Entry) — reduction only, see JiffyConfig::Autoscaler.
  static JiffyConfig::Autoscaler byte_scaled(JiffyConfig::Autoscaler a) {
    const std::size_t e = sizeof(Entry);
    const auto by_min =
        static_cast<std::uint32_t>(std::max<std::size_t>(8, a.kMinBytes / e));
    const auto by_max =
        static_cast<std::uint32_t>(std::max<std::size_t>(32, a.kMaxBytes / e));
    if (by_min < a.min_size) a.min_size = by_min;
    if (by_max < a.max_size) a.max_size = by_max;
    if (a.max_size < a.min_size) a.max_size = a.min_size;
    return a;
  }

  explicit JiffyMap(const JiffyConfig& cfg)
      : cfg_(cfg), scaler_(byte_scaled(cfg.autoscaler)) {
    head_ = Node::create(Node::kMaxHeight, /*head=*/true, K{});
    Builder b(RevKind::kPlain, 0, /*version=*/0);
    head_->rev.store(b.finish(), std::memory_order_release);  // pairs: rev-install
    head_->birth.store(0, std::memory_order_release);  // pairs: birth-stamp
  }

  ~JiffyMap() {
    // A condemned shell may still be reachable: purge()'s bounded loop can
    // exit with a re-published link (or a lost sweep CAS) left for "a later
    // call" that never came. Destruction is single-threaded, so sweeps make
    // monotonic progress — run them until clean, after which every pending
    // shell really is off the chain and safe to free before the walk below.
    if (!purge_pending_.empty()) {
      ebr::Guard g;
      g.assert_held();
      while (purge_sweep(g) != 0) {
      }
    }
    for (Node* n : purge_pending_) delete_dead_node(n);
    purge_pending_.clear();
    Node* x = head_;
    while (x) {
      // relaxed: single-threaded teardown; no concurrent access remains.
      Rev* r = x->rev.load(std::memory_order_relaxed);
      // relaxed: single-threaded teardown; no concurrent access remains.
      Node* nxt = x->next(0).load(std::memory_order_relaxed);
      Rev::unref(r, /*immediate=*/true);
      delete x;
      x = nxt;
    }
    ebr::quiesce();
  }

  JiffyMap(const JiffyMap&) = delete;
  JiffyMap& operator=(const JiffyMap&) = delete;

  // ---- single-key operations ----------------------------------------------

  // Insert or overwrite. Returns true if the key was newly inserted.
  bool put(const K& k, const V& v) {
    scaler_.note(/*is_read=*/false);
    ebr::Guard g;
    g.assert_held();
    // Install losses escalate to yield: a lost head CAS means another writer
    // landed on this node, and each retry re-copies the whole revision, so a
    // skewed workload on an oversubscribed core turns a hot node into a storm
    // of doomed multi-KB rebuilds. Two consecutive losses ⇒ donate the slice
    // to the contending writer instead of racing it. Uncontended puts never
    // lose, so the counter costs nothing on the fast path.
    const BatchOp<K, V> op = BatchOp<K, V>::put(k, v);
    for (int losses = 0;;) {
      auto [x, r] = locate(k, g);
      if (wait_writable(x, r, g) != r) continue;  // head moved: re-route
      if (r->kind == RevKind::kAbsorbed) continue;  // merge committed here
      // One search: hit or miss, the new size, the split and the splice.
      const Entry* at = r->lower_bound_pos(k, less_);
      const bool hit = r->holds(at, k, less_);
      const std::uint32_t newn = r->count + (hit ? 0 : 1);
      if (newn > effective_max_size() && newn >= 4) {
        if (install_split(x, r, {&op, 1}, at, newn, g)) {
          if (!hit) size_.increment();  // sharded; see approx_size
          return !hit;
        }
        JIFFY_COUNT(cas_install_lost);
        if (++losses >= 2) std::this_thread::yield();
        continue;
      }
      Builder b(RevKind::kPlain, newn);
      splice(*r, {&op, 1}, less_, b, at);
      Rev* nr = b.finish();
      nr->prev = r;
      if (install_plain(x, r, nr, g)) {
        if (!hit) size_.increment();  // sharded; see approx_size
        maybe_merge(x, g);
        return !hit;
      }
      Rev::unref(nr, /*immediate=*/true);
      JIFFY_COUNT(cas_install_lost);
      if (++losses >= 2) std::this_thread::yield();
    }
  }

  // Remove. Returns true if the key was present.
  bool erase(const K& k) {
    scaler_.note(/*is_read=*/false);
    ebr::Guard g;
    g.assert_held();
    const BatchOp<K, V> op = BatchOp<K, V>::remove(k);
    for (int losses = 0;;) {  // same loss escalation as put()
      auto [x, r] = locate(k, g);
      if (wait_writable(x, r, g) != r) continue;  // head moved: re-route
      if (r->kind == RevKind::kAbsorbed) continue;  // merge committed here
      const Entry* at = r->lower_bound_pos(k, less_);
      if (!r->holds(at, k, less_)) return false;
      Builder b(RevKind::kPlain, r->count - 1);
      splice(*r, {&op, 1}, less_, b, at);
      Rev* nr = b.finish();
      nr->prev = r;
      if (install_plain(x, r, nr, g)) {
        size_.decrement();  // sharded; see approx_size
        maybe_merge(x, g);
        return true;
      }
      Rev::unref(nr, /*immediate=*/true);
      JIFFY_COUNT(cas_install_lost);
      if (++losses >= 2) std::this_thread::yield();
    }
  }

  std::optional<V> get(const K& k) const {
    scaler_.note(/*is_read=*/true);
    ebr::Guard g;
    g.assert_held();
    const Entry* e = find_live(k, g);
    if (!e) return std::nullopt;
    return e->second;
  }

  // Membership without materializing the value (V may be large).
  bool contains(const K& k) const {
    scaler_.note(/*is_read=*/true);
    ebr::Guard g;
    g.assert_held();
    return find_live(k, g) != nullptr;
  }

  // ---- batch updates (§3.4) -----------------------------------------------

  // Apply a Batch atomically: a concurrent reader observes either none or
  // all of its operations (per-key last-wins within the batch). The sorted,
  // deduplicated op list is published in a BatchDescriptor reachable from
  // every installed revision (rev->cell->batch) — the helping hook.
  void apply(Batch<K, V> b) {
    std::vector<BatchOp<K, V>> ops = std::move(b).take();
    if (ops.empty()) return;
    scaler_.note(/*is_read=*/false, ops.size());
    std::stable_sort(ops.begin(), ops.end(),
                     [&](const BatchOp<K, V>& a, const BatchOp<K, V>& b2) {
                       return less_(a.key, b2.key);
                     });
    // Last-wins dedupe: keep the final op for each key. (Guard the move:
    // self-move-assignment leaves containers valid-but-unspecified.)
    std::size_t w = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i + 1 < ops.size() && !less_(ops[i].key, ops[i + 1].key) &&
          !less_(ops[i + 1].key, ops[i].key))
        continue;
      if (w != i) ops[w] = std::move(ops[i]);
      ++w;
    }
    ops.resize(w);

    ebr::Guard g;
    g.assert_held();
    auto* desc = new BatchDescriptor<K, V>;
    desc->ops = std::move(ops);
    auto* cell = new VersionCell;
    cell->batch = desc;
    cell->batch_deleter = &BatchDescriptor<K, V>::destroy;
    // The writer holds its own reference: a failed install CAS destroys the
    // discarded revision, and without this the destructor could free the
    // cell out from under the rest of the batch.
    // relaxed: the cell is thread-private until the first install CAS.
    cell->refs.store(1, std::memory_order_relaxed);
    run_batch(desc, cell, g);
    release_cell(cell);
  }

  // ---- scans and snapshots ------------------------------------------------

  // Visit up to `n` entries with key >= from, in order, at one consistent
  // version. Returns the number visited.
  template <class F>
  std::size_t scan_n(const K& from, std::size_t n, F&& f) const {
    scaler_.note(/*is_read=*/true, n ? n : 1);
    return snapshot().scan_n(from, n, std::forward<F>(f));
  }

  // Visit up to `n` entries with key <= from, in descending order, at one
  // consistent version (the reverse of scan_n, over the backward links).
  template <class F>
  std::size_t rscan_n(const K& from, std::size_t n, F&& f) const {
    scaler_.note(/*is_read=*/true, n ? n : 1);
    return snapshot().rscan_n(from, n, std::forward<F>(f));
  }

  // Visit every entry in the half-open range [lo, hi), in order, at one
  // consistent version. Returns the number visited.
  template <class F>
  std::size_t range_scan(const K& lo, const K& hi, F&& f) const {
    const std::size_t n = snapshot().range_scan(lo, hi, std::forward<F>(f));
    scaler_.note(/*is_read=*/true, n ? n : 1);
    return n;
  }

  SnapshotT snapshot() const { return SnapshotT(this); }

  // Approximate entry count, maintained by the update paths in a sharded
  // counter (O(kCounterShards) relaxed loads to aggregate — still constant,
  // and the update-side write touches only the caller's shard). Exact when
  // writers are quiescent; under churn transiently off by at most the ops in
  // flight during the aggregate sweep.
  std::size_t approx_size() const {
    const std::int64_t n = size_.read();
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  // ---- reclamation (DESIGN.md §9) -----------------------------------------

  // The merge path runs purge() once the dead shells not yet retired reach
  // one eighth of the live nodes, and never fewer than 64: the linked
  // garbage a descent may pass stays a bounded share of the list at every
  // map size.
  static constexpr std::size_t purge_trigger(std::size_t live_nodes) {
    return std::max<std::size_t>(64, live_nodes / 8);
  }

  // Physically reclaim merge tombstones no reader can need: a shell is
  // eligible once its kAbsorbed marker is stamped below the oldest active
  // version ticket (snapshots, cursors, in-flight scans — see
  // ebr::min_active_version). Cooperative and incremental; one pass runs at
  // a time (concurrent calls return 0) and a pass advances a small state
  // machine:
  //   collect  read every stamped tombstone's death version, THEN the
  //            watermark (that order makes a racing, unseen ticket's pinned
  //            version provably exceed every collected stamp — see
  //            purge_collect), and condemn the shells below it (flag set
  //            once, never cleared),
  //   sweep    splice condemned nodes out of level 0 and out of every tower
  //            slot of every node, and retarget back hints off them,
  //   drain    wait for the EBR epoch to advance twice past the sweep — any
  //            operation that read a pointer to a shell before it was
  //            condemned ran under a guard that has now ended, so every
  //            stale link such an operation may have re-published is in
  //            place by now,
  //   re-sweep until a sweep finds nothing to fix: a clean post-drain sweep
  //            proves no location holds a condemned pointer and (by
  //            induction: learning one requires loading it from somewhere)
  //            no live operation can re-publish one,
  //   retire   hand the shells to EBR.
  // Long-lived snapshots never block the unlink: they only hold the version
  // watermark, which keeps anything they can still read out of the pass
  // entirely; a guard held across a sweep merely postpones the drain to a
  // later call. Returns the number of shells retired by this call.
  std::size_t purge() {
    if (purging_.exchange(true, std::memory_order_acq_rel))  // pairs: purge-flag
      return 0;
    std::size_t retired = 0;
    for (int round = 0; round < 4; ++round) {
      {
        ebr::Guard g;
        g.assert_held();
        if (purge_pending_.empty()) {
          purge_collect(g);
          if (purge_pending_.empty()) break;  // nothing eligible
          purge_sweep(g);  // initial unlink; by construction not clean
          purge_epoch_ = ebr::current_epoch();
        } else if (ebr::current_epoch() >= purge_epoch_ + 2) {
          if (purge_sweep(g) == 0) {
            retired = purge_retire_pending(g);
            break;
          }
          purge_epoch_ = ebr::current_epoch();  // re-arm the drain
        }
      }
      // Drop our own pin and nudge the epoch: with no long-lived guards
      // active the drain completes within this call.
      ebr::quiesce();
      if (!purge_pending_.empty() &&
          ebr::current_epoch() < purge_epoch_ + 2)
        break;  // some guard still spans the sweep; a later call continues
    }
    purging_.store(false, std::memory_order_release);  // pairs: purge-flag
    return retired;
  }

  // ---- introspection ------------------------------------------------------

  struct DebugStats {
    double avg_revision_size = 0;
    std::size_t node_count = 0;
    std::size_t entry_count = 0;
    std::uint32_t target_revision_size = 0;
    double read_fraction_ema = 0;
    std::size_t tombstone_count = 0;  // stamped kAbsorbed shells still linked
    std::size_t dead_shell_estimate = 0;  // merge victims not yet retired
    std::uint64_t purged_total = 0;  // shells reclaimed over the lifetime
    // Bytes the linked structure holds (DESIGN.md §14.3), over every linked
    // node, the head and tombstones included: the blocks of their head
    // revisions, the part of those blocks that neither the header nor an
    // entry uses (total and largest single block), and the node blocks.
    std::size_t revision_bytes = 0;
    std::size_t revision_slack_bytes = 0;
    std::size_t max_revision_slack_bytes = 0;
    std::size_t node_bytes = 0;
  };

  DebugStats debug_stats() const {
    DebugStats s;
    s.target_revision_size = effective_max_size();
    s.read_fraction_ema = scaler_.read_fraction_ema();
    // relaxed: diagnostic estimate; concurrent merges/purges skew it anyway.
    const std::int64_t shells = dead_shells_.load(std::memory_order_relaxed);
    s.dead_shell_estimate =
        shells > 0 ? static_cast<std::size_t>(shells) : 0;
    // relaxed: lifetime statistic; no ordering with other state needed.
    s.purged_total = purged_total_.load(std::memory_order_relaxed);
    for_each_level0([&](Node* x, Rev* r) {
      const std::size_t slack = r->alloc_bytes - r->used_bytes();
      s.revision_bytes += r->alloc_bytes;
      s.revision_slack_bytes += slack;
      s.max_revision_slack_bytes = std::max(s.max_revision_slack_bytes, slack);
      s.node_bytes += Node::block_bytes(x->height);
      if (r->kind == RevKind::kAbsorbed) {
        if (r->version_now() != kPendingVersion) ++s.tombstone_count;
      } else if (!x->is_head || r->count != 0) {
        ++s.node_count;
        s.entry_count += r->count;
      }
    });
    if (s.node_count)
      s.avg_revision_size = static_cast<double>(s.entry_count) /
                            static_cast<double>(s.node_count);
    return s;
  }

  std::size_t size_slow() const {
    std::size_t n = 0;
    for_each_level0([&](Node*, Rev* r) { n += r->count; });
    return n;
  }

 private:
  friend class Snapshot<JiffyMap>;
  template <class MapT>
  friend class SnapPos;

  // ---- location -----------------------------------------------------------

  // Complete a pending split link: swing x->next(0) from the pre-split
  // successor to the first new sibling (the chain of new nodes was
  // pre-linked). Fast path: exactly-once CAS from the recorded expected
  // value. That CAS can now fail forever without the link being done — the
  // purge pass unlinks condemned tombstones from level 0, moving next(0)
  // out from under the recorded expect — so fall back to forcing the link
  // from whatever the current value is, gated on r still heading x: while
  // it does, the only other writers of x->next(0) are helpers of this same
  // link and tombstone unlinking (both compose with this loop), and once r
  // is superseded the link is guaranteed complete, because every install
  // path runs ensure_link to success (via locate) before building on r.
  void ensure_link(Node* x, Rev* r, [[maybe_unused]] const ebr::Guard& g)
      const JIFFY_REQUIRES_GUARD(g) {
    Node* expect = r->link_expect;
    if (x->next(0).compare_exchange_strong(
            expect, r->sibling, std::memory_order_seq_cst))  // pairs: next-link
      return;
    for (;;) {
      Node* e = x->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
      if (e == r->sibling) return;  // linked (by us or a helper)
      if (x->rev.load(std::memory_order_seq_cst) != r)  // pairs: rev-install
        return;
      if (x->next(0).compare_exchange_strong(
              e, r->sibling, std::memory_order_seq_cst))  // pairs: next-link
        return;
    }
  }

  // Level-0 node owning k under current routing, plus the revision used for
  // the routing decision (callers CAS against it, so stale reads retry).
  // Absorbed tombstones are skipped: their content lives in the nearest live
  // node to the left, which is exactly the node this walk remembers.
  std::pair<Node*, Rev*> locate(const K& k, const ebr::Guard& g) const
      JIFFY_REQUIRES_GUARD(g) {
    // Descent counts, flushed to the obs counters on every 64th call per
    // thread (DESIGN.md §15.1); dead code under JIFFY_OBS=0.
    const bool sampled = obs::sample_tick();
    [[maybe_unused]] std::uint32_t anchor_loads = 0, passed = 0, tombs = 0;
    for (;;) {
      Node* x = head_;
      for (int l = top_level(); l >= 1; --l) {
        for (Node* nxt =
                 x->next(l).load(std::memory_order_acquire);  // pairs: next-link
             nxt;
             nxt = x->next(l).load(std::memory_order_acquire)) {  // pairs: next-link
          ++anchor_loads;
          if (less_(k, nxt->anchor)) break;
          x = nxt;
        }
        // Foresight (DESIGN.md §14): the next hop reads the same tower slot
        // one level down — warm its target's header while this level's loop
        // bookkeeping retires, hiding the dependent miss of the descent.
        // relaxed: the pointer feeds prefetch_ro only and is never
        // dereferenced; the traversal reload above carries the acquire edge.
        prefetch_ro(x->next(l - 1).load(std::memory_order_relaxed));
      }
      // A node counts as dead only once its marker is STAMPED (merge
      // committed). A pending marker may still be rolled back, so its node
      // must keep owning its range; writers routed there wait the marker
      // out in wait_writable and re-route if the merge commits.
      auto dead = [](Rev* r) {
        return r->kind == RevKind::kAbsorbed &&
               r->version_now() != kPendingVersion;
      };
      // The tower may land on a tombstone; hop left to its absorber (each
      // hop goes strictly left, so this terminates).
      Rev* r = x->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
      while (dead(r)) {
        x = r->home;
        r = x->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
      }
      if (r->sibling) ensure_link(x, r, g);
      Node* live = x;
      // The successor the walk saw for `live`, checked again below.
      Node* live_next =
          live->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
      for (Node* cur = live_next; cur && !less_(k, cur->anchor);) {
        // Foresight: overlap the next node's header miss with this node's
        // revision inspection (the revision pointer chase below).
        // relaxed: prefetch address only, never dereferenced here; the loop
        // re-reads the slot with its paired seq_cst load before following.
        prefetch_ro(cur->next(0).load(std::memory_order_relaxed));
        Rev* rc = cur->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
        if (rc->sibling) ensure_link(cur, rc, g);
        Node* nxt = cur->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
        ++passed;
        if (dead(rc)) {
          ++tombs;
        } else {
          live = cur;
          live_next = nxt;
        }
        cur = nxt;
      }
      sched::point(sched::Point::kLocateHead);
      // Re-read the chosen head: if the node died or split since we passed
      // it, the routing decision may be stale — retry from the top.
      Rev* now = live->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
      if (dead(now)) continue;
      if (now->sibling) {
        ensure_link(live, now, g);
        Node* nxt =
            live->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
        if (nxt && !less_(k, nxt->anchor)) continue;  // sibling owns k
      } else if (live->next(0).load(std::memory_order_seq_cst) !=  // pairs: next-link
                 live_next) {
        // The node split (and was rewritten, dropping the sibling pointer)
        // since the walk passed it: k may have moved right.
        continue;
      }
      if (sampled) {
        JIFFY_COUNT(descent_sampled);
        JIFFY_COUNT_N(descent_anchor_loads, anchor_loads);
        JIFFY_COUNT_N(descent_level0_passed, passed);
        JIFFY_COUNT_N(descent_tombstones_passed, tombs);
      }
      // Warm the inline entry array (begin() is pointer arithmetic off the
      // already-loaded revision pointer): every caller searches it next.
      prefetch_ro(now->begin());
      return {live, now};
    }
  }

  // Resume point for the chunked introspection walk: the first level-0 node
  // whose anchor is strictly greater than k, tombstones INCLUDED — locate()
  // cannot serve here because it hops off absorbed shells, which the stats
  // walk must count. Plain tower descent; anchors are immutable.
  Node* stats_resume(const K& k, const ebr::Guard& g) const
      JIFFY_REQUIRES_GUARD(g) {
    g.assert_held();
    Node* x = head_;
    for (int l = top_level(); l >= 0; --l) {
      for (Node* nxt =
               x->next(l).load(std::memory_order_acquire);  // pairs: next-link
           nxt && !less_(k, nxt->anchor);
           nxt = x->next(l).load(std::memory_order_acquire))  // pairs: next-link
        x = nxt;
    }
    return x->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
  }

  // Level-0 walk over every node (tombstones included) for the introspection
  // paths, chunked so no single ebr::Guard pins the epoch across the whole
  // map: after ~kChunkNodes nodes the guard is dropped and the walk resumes
  // via stats_resume() strictly above the last visited anchor. The chunk
  // boundary is only placed where the anchor strictly increases, so resume
  // cannot revisit or skip within a run of equal anchors. Exact on a
  // quiescent map (what the tests compare against); under racing merges a
  // node absorbed across a chunk boundary may be missed or double-counted —
  // the same diagnostic slack the old single-guard walk already had for
  // nodes merging behind the cursor.
  template <class Visit>
  void for_each_level0(Visit&& visit) const {
    static constexpr std::size_t kChunkNodes = 1024;
    bool from_head = true;
    K resume{};
    for (;;) {
      ebr::Guard g;
      g.assert_held();
      Node* x = from_head ? head_ : stats_resume(resume, g);
      from_head = false;
      std::size_t seen = 0;
      while (x) {
        Rev* r = x->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
        if (r->sibling) ensure_link(x, r, g);
        visit(x, r);
        Node* nxt =
            x->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
        if (++seen >= kChunkNodes && nxt && less_(x->anchor, nxt->anchor)) {
          resume = x->anchor;  // key copy: nothing guarded escapes the region
          break;
        }
        x = nxt;
      }
      if (!x) return;  // reached the end inside this guard
    }
  }

  // Writers must start from a stamped, non-batch-pending head revision:
  // waiting out a pending batch keeps batch atomicity (a successor built
  // from an unstamped batch revision would leak it early), and stamping a
  // pending plain head keeps per-node version chains monotonic. Blocked
  // writers help rather than wait: a completed batch or a merge's final
  // revision gets its missing stamp, and a *half-installed* batch is
  // replayed to completion from its published descriptor (help_revision →
  // run_batch), so a stalled or killed batch writer never blocks progress.
  // The only revision nobody can drive forward is a pending kAbsorbed
  // marker — its merge may still abort — so only that case spins, and it is
  // bounded by the merge writer's two-CAS window. Returns the current head
  // so the caller can detect that routing went stale and re-locate.
  Rev* wait_writable(Node* x, Rev* r, const ebr::Guard& g)
      JIFFY_REQUIRES_GUARD(g) {
    SpinBackoff backoff;
    for (;;) {
      if (r->version_now() != kPendingVersion)
        return x->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
      if (help_revision(r, g)) continue;
      // Pending kAbsorbed marker: wait, but keep re-reading the head — an
      // aborted merge replaces its marker without ever stamping it, and
      // spinning on the dead revision alone would hang. The wait is bounded
      // by the merge writer's two-CAS window, but that writer may be
      // preempted (oversubscribed runs), so back off to yield rather than
      // burn the quantum it needs.
      Rev* cur = x->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
      if (cur != r) return cur;
      backoff.pause();
    }
  }

  // Drive the operation behind a pending revision to completion: stamp it
  // if only the stamp is missing, or replay a half-installed batch from its
  // descriptor. Returns false only for a pending kAbsorbed marker (its
  // merge may still be rolled back — the one state with nothing to help).
  bool help_revision(Rev* r, const ebr::Guard& g) JIFFY_REQUIRES_GUARD(g) {
    if (try_help_stamp(r, g)) return true;
    if (r->kind == RevKind::kBatch && r->cell && r->cell->batch) {
      run_batch(static_cast<BatchDescriptor<K, V>*>(r->cell->batch), r->cell,
                g);
      return true;
    }
    return false;
  }

  // Install every remaining group of a published batch, then stamp. Shared
  // by the batch writer (apply) and any helper that met one of its pending
  // revisions; all run the same loop, so the batch completes as long as
  // *anyone* is running. Race rules (DESIGN.md §6):
  //   * installs CAS from the same stamped base revision, so two threads
  //     can never both install a group — the loser re-locates, finds the
  //     winner's revision (same cell, batch_hi > i) and just publishes the
  //     watermark advance;
  //   * the watermark moves only by CAS from group start to group end, and
  //     every mover uses the boundary recorded in the installed revision
  //     (or the one it just computed for its own successful install), so
  //     racing advances are idempotent;
  //   * each thread retires only the revisions *it* replaced, and only
  //     after helping stamp the cell — the retire-strictly-after-stamp rule
  //     readers rely on;
  //   * size deltas are per-installer and disjoint (one install per group),
  //     so the sum is exact no matter who installed what.
  // Helping chains terminate: a batch only ever waits at its install
  // frontier, and helping a blocker resumes at a strictly higher key
  // (installs go in ascending key order), so blocked-on edges cannot cycle.
  // A caller must hold an ebr::Guard: it keeps the pending revision — and
  // through its cell reference the descriptor — alive while helping.
  void run_batch(BatchDescriptor<K, V>* d, VersionCell* cell,
                 const ebr::Guard& g) JIFFY_REQUIRES_GUARD(g) {
    const std::vector<BatchOp<K, V>>& sops = d->ops;
    std::vector<Rev*> replaced;
    ScriptSink<K, V> script;  // reused by every group this call builds
    std::int64_t delta = 0;
    SpinBackoff backoff;
    for (;;) {
      const std::size_t i =
          d->installed.load(std::memory_order_seq_cst);  // pairs: batch-watermark
      if (i >= sops.size()) break;
      sched::point(sched::Point::kBatchLocate);
      auto [x, r] = locate(sops[i].key, g);
      // Read the stamp only now, with the base revision in hand. A base read
      // while the cell is still pending is safe to build on even if `i` is
      // stale: non-members replace a pending batch revision only after the
      // stamp (wait_writable helps the batch to completion first; splits
      // and merges skip pending heads), so r is either group i's own
      // revision or the head from before group i went in, and any install
      // of the group since makes the CAS below fail. A check before
      // locate() would leave a window in which the batch finishes, a newer
      // write replaces the group, and a helper holding a stale watermark
      // re-applies the group over that write.
      if (cell->version.load(std::memory_order_seq_cst) !=  // pairs: version-stamp
          kPendingVersion)
        break;  // another thread already completed and stamped the batch
      if (r->cell == cell) {
        if (r->batch_hi > i) {
          // The group at the watermark is already installed — this very
          // revision covers it; publish the advance and move on.
          std::size_t e = i;
          d->installed.compare_exchange_strong(
              e, r->batch_hi, std::memory_order_seq_cst);  // pairs: batch-watermark
          continue;
        }
        // An *earlier* group's revision: ops[i] re-routed here across a
        // dead successor. Stack the new group on top — both share the cell,
        // so they linearize together. Fall through with r as the base.
      } else {
        if (r->version_now() == kPendingVersion) {
          // Pending marker: wait it out, yielding once the bounded spin
          // expires — the merge writer may be preempted on this core.
          if (!help_revision(r, g)) backoff.pause();
          continue;
        }
        if (r->kind == RevKind::kAbsorbed) continue;  // died: re-route
      }
      Node* nxt = x->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
      // The group [i, j) is every op routed to x's range. next(0) is stable
      // while x is headed by a pending revision (splits need a stamped
      // head, merges skip pending ones), so concurrent installers compute
      // the same boundary for the group they race on.
      std::size_t j = i + 1;
      while (j < sops.size() && (!nxt || less_(sops[j].key, nxt->anchor))) ++j;
      sched::point(sched::Point::kBatchInstall);
      // Overwrites and erases leave fewer entries than r->count plus the
      // group's ops: script the rewrite first to size the revision exactly.
      script.clear();
      splice(*r, std::span(sops).subspan(i, j - i), less_, script);
      Builder b(RevKind::kBatch, script.n);
      script.replay(b);
      Rev* nr = b.finish();
      nr->cell = cell;
      // relaxed: pre-publication refcount bump; the install CAS publishes.
      cell->refs.fetch_add(1, std::memory_order_relaxed);
      nr->prev = r;
      nr->batch_hi = j;
      if (!x->rev.compare_exchange_strong(
              r, nr, std::memory_order_seq_cst)) {  // pairs: rev-install
        Rev::unref(nr, /*immediate=*/true);
        // A fully-built group revision thrown away because a rival (owner
        // or helper) installed the same group first — the helping-replay
        // duplication the ROADMAP batched-scaling item attributes the
        // b10/b100 deficit to. The metrics JSON reports the ratio of this
        // against replay_group_claimed per cell.
        JIFFY_COUNT(replay_group_duplicated);
        continue;  // lost the race (maybe to a helper): re-read watermark
      }
      JIFFY_COUNT(replay_group_claimed);
      delta += static_cast<std::int64_t>(nr->count) -
               static_cast<std::int64_t>(r->count);
      replaced.push_back(r);
      sched::point(sched::Point::kBatchWatermark);
      std::size_t e = i;
      d->installed.compare_exchange_strong(
          e, j, std::memory_order_seq_cst);  // pairs: batch-watermark
    }
    if (delta != 0) size_.add(delta);  // sharded; see approx_size
    sched::point(sched::Point::kBatchStamp);
    std::uint64_t expected = kPendingVersion;
    cell->version.compare_exchange_strong(
        expected, clock_.read(), std::memory_order_seq_cst);  // pairs: version-stamp
    for (Rev* old : replaced) Rev::unref(old);
  }

  // Help stamp r if its linearization only misses the stamp itself; false
  // when r may still be rolled back or has installs outstanding. Cases:
  //   * plain revisions and split parts: published by one CAS, always
  //     stampable — and stamping them is part of the safety argument
  //     (DESIGN.md §5);
  //   * batch revisions: stampable once the published BatchDescriptor
  //     reports ops fully installed. This closes a real atomicity hole: the
  //     batch writer reads its stamp timestamp before the stamp CAS, so a
  //     reader that skipped the pending revision could later observe the
  //     (late) stamp at a timestamp below its own snapshot version and see
  //     a torn batch. A reader that stamps with its own (newer) clock
  //     instead resolves the batch to one side of its snapshot for
  //     everyone;
  //   * merge revisions: meeting one proves the merge's second and final
  //     CAS landed (pending kMerge only ever appears at a node head, and
  //     the rollback path never publishes it), so only the stamp is
  //     missing; same late-stamp argument as batches;
  //   * kAbsorbed markers: never — their merge may still abort.
  bool try_help_stamp(Rev* r, [[maybe_unused]] const ebr::Guard& g) const
      JIFFY_REQUIRES_GUARD(g) {
    if (r->kind == RevKind::kAbsorbed) return false;
    if (!r->cell) {
      if (r->kind != RevKind::kPlain) return false;
      r->stamp(clock_.read());
      JIFFY_COUNT(help_stamp);
      return true;
    }
    if (r->kind == RevKind::kBatch) {
      auto* d = static_cast<BatchDescriptor<K, V>*>(r->cell->batch);
      if (!d ||
          d->installed.load(std::memory_order_seq_cst) !=  // pairs: batch-watermark
              d->ops.size())
        return false;
    }
    r->stamp(clock_.read());
    JIFFY_COUNT(help_stamp);
    return true;
  }

  // ---- installs -----------------------------------------------------------

  bool install_plain(Node* x, Rev* r, Rev* nr,
                     [[maybe_unused]] const ebr::Guard& g)
      JIFFY_REQUIRES_GUARD(g) {
    if (!x->rev.compare_exchange_strong(
            r, nr, std::memory_order_seq_cst))  // pairs: rev-install
      return false;
    sched::point(sched::Point::kPlainStamp);
    nr->stamp(clock_.read());
    Rev::unref(r);  // retire strictly after the successor's stamp
    return true;
  }

  // Split x's content, with `ops` spliced in (at `at`, if given), into
  // `total` entries in parts of at most max size: part 0 replaces x's
  // revision, the rest become new nodes, each anchored at its part's first
  // key and published atomically through the revision's sibling pointer.
  bool install_split(Node* x, Rev* r, std::span<const BatchOp<K, V>> ops,
                     const Entry* at, std::uint32_t total,
                     const ebr::Guard& g) JIFFY_REQUIRES_GUARD(g) {
    const std::uint32_t maxsz = std::max<std::uint32_t>(effective_max_size(), 2);
    const std::uint32_t nparts =
        std::max<std::uint32_t>(2, (total + maxsz - 1) / maxsz);
    // Append pattern (ascending bulk load: a put past the last entry): an
    // even split would leave a trail of half-full revisions behind the
    // insertion front. Split asymmetrically instead — keep the left part
    // ~7/8 full — so loaded ranges stay dense.
    const std::uint32_t dense =
        std::min<std::uint32_t>(total - 1, (maxsz / 8) * 7);
    PartSink<K, V> sink;
    if (nparts == 2 && !ops.empty() && r->count != 0 && at == r->end() &&
        dense > 0 && total - dense <= maxsz) {
      sink.parts.emplace_back(RevKind::kPlain, dense);
      sink.parts.emplace_back(RevKind::kPlain, total - dense);
    } else {
      for (std::uint32_t p = 0; p < nparts; ++p)
        sink.parts.emplace_back(RevKind::kPlain,
                                total / nparts + (p < total % nparts ? 1 : 0));
    }
    splice(*r, ops, less_, sink, at);

    auto* cell = new VersionCell;  // one CAS publishes every part
    std::vector<Rev*> parts;
    for (Builder& b : sink.parts) {
      parts.push_back(b.finish());
      parts.back()->cell = cell;
      // relaxed: pre-publication refcount bump; the install CAS publishes.
      cell->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Node* old_next = x->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
    // Never record a condemned tombstone as the link target: the purge pass
    // is about to unlink it, so help it out first and re-read. (A condemn
    // landing after this check is caught by the pass's post-drain re-sweep;
    // see DESIGN.md §9.)
    while (old_next &&
           old_next->condemned.load(std::memory_order_seq_cst)) {  // pairs: condemn-flag
      Node* nn =
          old_next->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
      x->next(0).compare_exchange_strong(
          old_next, nn, std::memory_order_seq_cst);  // pairs: next-link
      old_next = x->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
    }

    Node* chain = old_next;
    std::vector<Node*> new_nodes;
    for (std::size_t p = parts.size(); p-- > 1;) {
      Node* m = Node::create(random_height(), /*head=*/false,
                             parts[p]->entry(0).first);
      // relaxed: the node is thread-private until the install CAS.
      m->rev.store(parts[p], std::memory_order_relaxed);
      // relaxed: the node is thread-private until the install CAS.
      m->next(0).store(chain, std::memory_order_relaxed);
      chain = m;
      new_nodes.push_back(m);
    }
    // Wire the backward hints before publication: each new part points to
    // the part on its left (part 1 to x). new_nodes is ordered right-to-
    // left, so walk it backwards.
    {
      Node* left = x;
      for (std::size_t q = new_nodes.size(); q-- > 0;) {
        // relaxed: the node is thread-private until the install CAS.
        new_nodes[q]->back.store(left, std::memory_order_relaxed);
        left = new_nodes[q];
      }
    }
    Rev* rlow = parts[0];
    rlow->prev = r;
    rlow->sibling = chain;
    rlow->link_expect = old_next;

    if (!x->rev.compare_exchange_strong(
            r, rlow, std::memory_order_seq_cst)) {  // pairs: rev-install
      for (Node* m : new_nodes) {
        // relaxed: the node was never published; only this thread sees it.
        Rev::unref(m->rev.load(std::memory_order_relaxed), true);
        delete m;
      }
      Rev::unref(rlow, /*immediate=*/true);  // last cell unref frees it
      return false;
    }
    sched::point(sched::Point::kSplitLink);
    ensure_link(x, rlow, g);
    // Tighten the old successor's back hint onto the rightmost new node
    // (new_nodes[0]); stale hints only cost a longer forward re-walk.
    if (old_next && !new_nodes.empty())
      old_next->back.store(new_nodes[0],
                           std::memory_order_release);  // pairs: back-hint
    sched::point(sched::Point::kSplitStamp);
    rlow->stamp(clock_.read());
    JIFFY_COUNT(split);
    // relaxed: purge-trigger estimate (see maybe_merge).
    live_nodes_.fetch_add(static_cast<std::int64_t>(new_nodes.size()),
                          std::memory_order_relaxed);
    const std::uint64_t b_v =
        cell->version.load(std::memory_order_seq_cst);  // pairs: version-stamp
    for (Node* m : new_nodes) {
      m->birth.store(b_v, std::memory_order_seq_cst);  // pairs: birth-stamp
      index_insert(m, g);
    }
    Rev::unref(r);
    return true;
  }

  // Autoscaler growth path (§3.3.6): when x plus its successor together fit
  // comfortably under the target, absorb the successor. Two installs under
  // one shared VersionCell — an kAbsorbed tombstone at s and a kMerge union
  // at x — stamped once, so readers see the merge atomically. Entirely
  // opportunistic: any interference aborts (with a rollback of the marker
  // if only the first CAS had landed) rather than waiting, which keeps the
  // ascending-order no-deadlock argument for batches intact. The dead node
  // stays in the list as a tombstone: routing skips it and old snapshots
  // still reach its pre-merge chain through the marker's prev — until the
  // purge pass proves no reader below its death version survives and
  // physically unlinks it (towers included).
  void maybe_merge(Node* x, const ebr::Guard& g) JIFFY_REQUIRES_GUARD(g) {
    const std::uint32_t target = effective_max_size();
    Rev* rx = x->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
    if (rx->kind == RevKind::kAbsorbed || rx->sibling ||
        rx->version_now() == kPendingVersion)
      return;
    Node* s = x->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
    if (!s) return;
    Rev* rs = s->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
    if (rs->kind == RevKind::kAbsorbed ||
        rs->version_now() == kPendingVersion)
      return;
    if (rs->sibling) ensure_link(s, rs, g);
    const std::size_t combined =
        std::size_t{rx->count} + std::size_t{rs->count};
    if (combined == 0 || combined > (target * 7) / 10) return;

    auto* cell = new VersionCell;
    // relaxed: the cell is thread-private until the marker CAS publishes.
    cell->refs.store(1, std::memory_order_relaxed);  // writer's reference

    auto* marker = Rev::allocate(0);
    marker->kind = RevKind::kAbsorbed;
    marker->cell = cell;
    // relaxed: pre-publication refcount bump; the marker CAS publishes.
    cell->refs.fetch_add(1, std::memory_order_relaxed);
    marker->prev = rs;
    marker->home = x;

    Builder b(RevKind::kMerge, static_cast<std::uint32_t>(combined));
    b.append(rx->begin(), rx->end());
    b.append(rs->begin(), rs->end());
    Rev* merged = b.finish();
    merged->cell = cell;
    // relaxed: pre-publication refcount bump; the marker CAS publishes.
    cell->refs.fetch_add(1, std::memory_order_relaxed);
    merged->prev = rx;

    Rev* expect = rs;
    if (!s->rev.compare_exchange_strong(
            expect, marker, std::memory_order_seq_cst)) {  // pairs: rev-install
      Rev::unref(marker, /*immediate=*/true);
      Rev::unref(merged, /*immediate=*/true);
      release_cell(cell);
      return;
    }
    sched::point(sched::Point::kMergeMarker);
    expect = rx;
    if (!x->rev.compare_exchange_strong(
            expect, merged, std::memory_order_seq_cst)) {  // pairs: rev-install
      // x changed under us: undo s by restoring its content over the
      // marker. Nobody else replaces a pending marker (writers spin on it,
      // other merges skip pending heads), so this CAS cannot fail.
      Builder rb(RevKind::kPlain, rs->count);
      rb.append(rs->begin(), rs->end());
      Rev* restore = rb.finish();
      restore->prev = marker;
      Rev* fe = marker;
      const bool restored = s->rev.compare_exchange_strong(
          fe, restore, std::memory_order_seq_cst);  // pairs: rev-install
      assert(restored);
      (void)restored;
      restore->stamp(clock_.read());
      Rev::unref(rs);     // retire strictly after the restore's stamp
      Rev::unref(marker);  // now chain-only; never stamped, always skipped
      Rev::unref(merged, /*immediate=*/true);
      release_cell(cell);
      return;
    }
    sched::point(sched::Point::kMergeStamp);
    merged->stamp(clock_.read());  // one stamp publishes both sides
    JIFFY_COUNT(merge);
    Rev::unref(rx);
    Rev::unref(rs);
    release_cell(cell);
    // relaxed: purge-trigger estimates; crossing the trigger late or twice
    // is harmless (purge() self-serializes on purging_).
    const std::int64_t live =
        live_nodes_.fetch_sub(1, std::memory_order_relaxed) - 1;
    // relaxed: same advisory estimate as the live count above.
    const std::int64_t dead =
        dead_shells_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (cfg_.reclaim.auto_purge &&
        dead >= static_cast<std::int64_t>(purge_trigger(
                    static_cast<std::size_t>(std::max<std::int64_t>(live, 0)))))
      purge();
  }

  static void release_cell(VersionCell* c) {
    if (c->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)  // pairs: cell-refs
      delete c;
  }

  // ---- reclamation internals (purge(), DESIGN.md §9) ----------------------

  // Condemn every dead tombstone whose death version lies below the oldest
  // active version ticket: no current reader can need its chain, and every
  // future reader pins a version at or above the watermark — globally
  // monotonic TSC stamps put those above this shell's death version.
  //
  // The phase order is load-bearing: every candidate's death version is
  // read BEFORE the registry scan that computes the watermark. A ticket the
  // scan misses (its registration raced the scan) published its sentinel —
  // and then read the clock for the version it pins — after the scan
  // visited its slot, hence after every death version gathered here was
  // already stamped; monotonic TSC then puts that reader's version above
  // them all, so `dv < wm` keeps everything it can still need. Reading the
  // watermark first would break this: with no visible tickets the scan
  // returns kIdleVersion (~0), and a tombstone stamped *after* the scan —
  // but below the version a concurrently-registering snapshot pinned —
  // would be condemned out from under that live snapshot.
  // The caller owns the purge flag and holds an EBR guard.
  void purge_collect([[maybe_unused]] const ebr::Guard& g)
      JIFFY_REQUIRES_GUARD(g) {
    std::vector<std::pair<Node*, std::uint64_t>> cand;  // (shell, death v)
    for (Node* x =
             head_->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
         x; x = x->next(0).load(std::memory_order_seq_cst)) {  // pairs: next-link
      Rev* r = x->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
      if (r->kind != RevKind::kAbsorbed) continue;
      const std::uint64_t dv = r->version_now();
      if (dv == kPendingVersion) continue;
      if (x->condemned.load(std::memory_order_seq_cst))  // pairs: condemn-flag
        continue;
      cand.emplace_back(x, dv);
    }
    if (cand.empty()) return;
    const std::uint64_t wm = ebr::min_active_version();
    if (wm == 0) return;  // a ticket is mid-registration: next time
    for (const auto& [x, dv] : cand) {
      if (dv >= wm) continue;
      if (!x->condemned.exchange(true,
                                 std::memory_order_seq_cst)) {  // pairs: condemn-flag
        // escapes: the condemn winner owns the shell — the sticky flag stops
        // re-publication, the purging_ gate makes the list single-writer, and
        // purge_retire_pending frees it only after a clean post-drain sweep.
        purge_pending_.push_back(x);
      }
    }
  }

  // One physical pass over the whole structure, returning the number of
  // links it had to fix (0 = clean). Level 0 reaches every node — including
  // towers orphaned from their own level by insert/unlink races — so
  // scrubbing each visited node's full tower covers every slot that could
  // hold a condemned pointer. Pending split links are completed first:
  // ensure_link's force-help path re-publishes a chain that may run through
  // a condemned node, and it must have fired before the sweep that is
  // expected to leave none behind.
  std::size_t purge_sweep(const ebr::Guard& g) JIFFY_REQUIRES_GUARD(g) {
    JIFFY_COUNT(purge_sweeps);
    std::size_t fixes = 0;
    Node* p = head_;
    while (p) {
      Rev* rp = p->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
      if (rp->sibling) ensure_link(p, rp, g);
      // Splice condemned nodes (chains of them, one CAS each) out of every
      // tower slot.
      for (int l = 1; l < p->height; ++l) {
        for (Node* t = p->next(l).load(
                 std::memory_order_seq_cst);  // pairs: next-link
             t && t->condemned.load(std::memory_order_seq_cst);  // pairs: condemn-flag
             t = p->next(l).load(std::memory_order_seq_cst)) {  // pairs: next-link
          Node* after =
              t->next(l).load(std::memory_order_seq_cst);  // pairs: next-link
          if (p->next(l).compare_exchange_strong(
                  t, after, std::memory_order_seq_cst))  // pairs: next-link
            ++fixes;
        }
      }
      Node* c = p->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
      if (!c) break;
      if (c->condemned.load(std::memory_order_seq_cst)) {  // pairs: condemn-flag
        Node* after =
            c->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
        if (p->next(0).compare_exchange_strong(
                c, after, std::memory_order_seq_cst))  // pairs: next-link
          ++fixes;
        continue;  // re-examine p's (possibly new) successor
      }
      // Back hints are only hints, but they must never dangle: retarget any
      // that point into the condemned set at the current live predecessor
      // (a strict list predecessor — all the hint contract promises).
      Node* hint = c->back.load(std::memory_order_acquire);  // pairs: back-hint
      if (hint &&
          hint->condemned.load(std::memory_order_seq_cst)) {  // pairs: condemn-flag
        c->back.store(p, std::memory_order_release);  // pairs: back-hint
        ++fixes;
      }
      p = c;
    }
    return fixes;
  }

  // Post-drain, post-clean-sweep: the shells are permanently unreachable.
  std::size_t purge_retire_pending([[maybe_unused]] const ebr::Guard& g)
      JIFFY_REQUIRES_GUARD(g) {
    const std::size_t n = purge_pending_.size();
    for (Node* x : purge_pending_) {
      sched::point(sched::Point::kPurgeRetire);
      obs::trace_retire(x, Node::block_bytes(x->height),
                        obs::RetireTag::kPurgeShell);
      ebr::retire_fn(x, &delete_dead_node);  // unlink: purge-shell
    }
    purge_pending_.clear();
    // relaxed: lifetime statistic read by debug_stats only.
    purged_total_.fetch_add(n, std::memory_order_relaxed);
    // relaxed: purge-trigger estimate (see maybe_merge).
    dead_shells_.fetch_sub(static_cast<std::int64_t>(n),
                           std::memory_order_relaxed);
    return n;
  }

  // EBR deleter for a retired shell. Its head revision is the stamped
  // kAbsorbed marker, which nothing else references; the marker's prev edge
  // may dangle by now (prev edges are not counted, see Revision), and its
  // destructor releases the shared cell reference.
  static void delete_dead_node(void* p) {
    auto* n = static_cast<Node*>(p);
    // relaxed: the shell is unreachable (post-drain) — no concurrent writer
    // exists, and EBR's epoch protocol ordered all prior stores.
    Rev::unref(n->rev.load(std::memory_order_relaxed), /*immediate=*/true);
    delete n;
  }

  // k's entry under current routing, nullptr when absent (backs get() and
  // contains(); the caller must hold an ebr::Guard and copy out under it).
  // A pending head revision is either stampable right now (plain heads; and
  // batch/merge heads whose installs all landed — see try_help_stamp, which
  // closes the late-stamp atomicity hole) or not linearized yet, in which
  // case read the state before it through prev (its predecessor is always
  // stamped). Stamping before returning contents matters: otherwise a
  // snapshot taken after this read could be versioned below the (late)
  // stamp and miss a value the read already observed.
  const Entry* find_live(const K& k, const ebr::Guard& g) const
      JIFFY_REQUIRES_GUARD(g) {
    for (;;) {
      auto [x, r] = locate(k, g);
      while (r && r->version_now() == kPendingVersion &&
             !try_help_stamp(r, g))
        r = r->prev;
      if (!r) return nullptr;
      // locate() may hand us a merge marker that was pending then and got
      // stamped since: the merge committed and k now lives in the absorber,
      // so re-route rather than miss on the marker's empty array.
      if (r->kind == RevKind::kAbsorbed) continue;
      return r->find_binary(k, less_);
    }
  }

  // ---- misc ---------------------------------------------------------------

  std::uint32_t effective_max_size() const {
    const std::uint32_t t = cfg_.autoscaler.enabled
                                ? scaler_.target()
                                : cfg_.autoscaler.fixed_size;
    return t < 2 ? 2 : t;
  }

  static int random_height() {
    thread_local std::uint64_t state =
        splitmix64(reinterpret_cast<std::uintptr_t>(&state) ^ 0xA5A5A5A5ull);
    state = splitmix64(state);
    int h = 1;
    std::uint64_t x = state;
    while ((x & 3) == 0 && h < Node::kMaxHeight) {  // p = 1/4
      ++h;
      x >>= 2;
    }
    return h;
  }

  // Highest tower level any descent needs to start from: top_ only grows
  // (index_insert raises it before linking a taller node), and a descent
  // that starts lower than the tallest node is still correct — every level
  // is a complete list from the head — so a stale read costs only hops.
  int top_level() const {
    // relaxed: advisory start level, see above.
    return top_.load(std::memory_order_relaxed);
  }

  // Link a freshly split node into tower levels 1..height-1. Only its
  // creator calls this; towers are insert-only so a plain CAS per level
  // suffices.
  void index_insert(Node* m, [[maybe_unused]] const ebr::Guard& g)
      JIFFY_REQUIRES_GUARD(g) {
    // relaxed: top_ is advisory (top_level()); the CAS only keeps it
    // monotone, and its failure writeback reloads the expected value.
    int t = top_.load(std::memory_order_relaxed);
    while (t < m->height - 1 &&
           !top_.compare_exchange_weak(
               t, m->height - 1,
               std::memory_order_relaxed)) {  // relaxed: advisory top level
    }
    for (int l = 1; l < m->height; ++l) {
      for (;;) {
        Node* pred = head_;
        for (int dl = top_level(); dl >= l; --dl) {
          for (Node* nxt =
                   pred->next(dl).load(std::memory_order_acquire);  // pairs: next-link
               nxt && less_(nxt->anchor, m->anchor);
               nxt = pred->next(dl).load(std::memory_order_acquire))  // pairs: next-link
            pred = nxt;
        }
        Node* succ =
            pred->next(l).load(std::memory_order_acquire);  // pairs: next-link
        if (succ == m) break;
        // relaxed: m's slot at level l is unreachable until the CAS below
        // publishes it (only its creator links level l).
        m->next(l).store(succ, std::memory_order_relaxed);
        if (pred->next(l).compare_exchange_strong(
                succ, m, std::memory_order_seq_cst))  // pairs: next-link
          break;
      }
    }
  }

  JiffyConfig cfg_;
  Less less_{};
  Clock clock_{};
  mutable RevisionAutoscaler scaler_;
  // Hot shared state below is cacheline-padded so independently-written
  // atomics never false-share with each other or with the read-mostly
  // members above (head_, cfg_); see DESIGN.md §14 for the per-op budget.
  StripedCounter<kCounterShards> size_;
  Node* head_;
  std::atomic<int> top_{0};  // see top_level(); read by every descent

  // Reclamation state (purge()). purge_pending_ and purge_epoch_ are owned
  // by whichever thread holds purging_.
  CachePadded<std::atomic<std::int64_t>>
      dead_shells_pad_;  // kAbsorbed shells not retired
  std::atomic<std::int64_t>& dead_shells_ = dead_shells_pad_.value;
  CachePadded<std::atomic<std::int64_t>>
      live_nodes_pad_;  // linked nodes that own a range, besides the head
  std::atomic<std::int64_t>& live_nodes_ = live_nodes_pad_.value;
  CachePadded<std::atomic<std::uint64_t>> purged_total_pad_;
  std::atomic<std::uint64_t>& purged_total_ = purged_total_pad_.value;
  CachePadded<std::atomic<bool>> purging_pad_;
  std::atomic<bool>& purging_ = purging_pad_.value;
  std::vector<Node*> purge_pending_;  // condemned + unlinked, awaiting drain
  std::uint64_t purge_epoch_ = 0;
};

}  // namespace jiffy

#include "core/snapshot.h"  // SnapPos, SnapCursor, Snapshot
