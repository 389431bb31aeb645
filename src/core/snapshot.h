// Versioned reads (DESIGN.md §8). SnapPos is the one walk over the entries
// visible at a TSC version; it holds no pin, so every call takes the EBR
// guard and version ticket that cover it. SnapCursor is a SnapPos with
// pins of its own, and Snapshot pins one version for its point reads, scans
// and range views. JiffyMap's one-shot scans open a Snapshot for the call, so
// every read holds one ticket. The walk reaches into JiffyMap through
// head_, less_, top_level(), ensure_link() and try_help_stamp(), and
// Snapshot through clock_. core/jiffy.h includes this header after JiffyMap.
#pragma once

#include "core/jiffy.h"

namespace jiffy {

// A position in the entry set of one version v: the union, over nodes, of
// each node's newest revision with version <= v. seek(&k, true) lands on
// the first key >= k and seek(&k, false) on the last key <= k, or with a
// null key on the first or the last entry; next() and prev() then step in
// either direction. Nodes born after v or absorbed at v contribute
// nothing, and the strict key bound on every node hop deduplicates the
// transient split/merge overlap windows in both directions. Reverse hops
// go through pred_at (backward links). The caller's guard and ticket must
// cover v for every call.
template <class MapT>
class SnapPos {
 public:
  using K = typename MapT::key_type;
  using V = typename MapT::mapped_type;

  SnapPos(const MapT* m, std::uint64_t version) : map_(m), v_(version) {}

  bool valid() const { return valid_; }
  const K& key() const {
    assert(valid_);
    return rev_->entry(idx_).first;
  }
  const V& value() const {
    assert(valid_);
    return rev_->entry(idx_).second;
  }
  std::uint64_t version() const { return v_; }

  // true while valid and ordered before `hi` — the half-open range test.
  bool in_range_below(const K& hi) const {
    return valid_ && map_->less_(key(), hi);
  }

  void seek(const K* k, bool forward, const ebr::Guard& g,
            const ebr::VersionTicket& tk)
      JIFFY_REQUIRES_GUARD(g) JIFFY_REQUIRES_TICKET(tk) {
    if (forward)
      land_forward(k ? position(*k, g, tk) : map_->head_, k, true, g, tk);
    else
      land_backward(k ? position(*k, g, tk) : rightmost(g), k, true, g, tk);
  }

  void next(const ebr::Guard& g, const ebr::VersionTicket& tk)
      JIFFY_REQUIRES_GUARD(g) JIFFY_REQUIRES_TICKET(tk) {
    if (!valid_) return;  // stepping an invalid position is a no-op
    // Entries are unique and sorted within a revision, so the next entry in
    // this revision is the successor key; otherwise continue in later nodes
    // excluding keys <= current (split-overlap dedup).
    if (idx_ + 1 < rev_->count) {
      ++idx_;
      return;
    }
    const K cur = key();
    land_forward(node_->next(0).load(std::memory_order_seq_cst),  // pairs: next-link
                 &cur, /*inclusive=*/false, g, tk);
  }

  void prev(const ebr::Guard& g, const ebr::VersionTicket& tk)
      JIFFY_REQUIRES_GUARD(g) JIFFY_REQUIRES_TICKET(tk) {
    if (!valid_) return;  // stepping an invalid position is a no-op
    if (idx_ > 0) {
      --idx_;
      return;
    }
    const K cur = key();
    land_backward(pred_at(node_, g, tk), &cur, /*inclusive=*/false, g, tk);
  }

 private:
  using Node = typename MapT::Node;
  using Rev = typename MapT::Rev;
  using Entry = typename Rev::Entry;

  void set(Node* x, Rev* r, std::uint32_t i) {
    node_ = x;
    rev_ = r;
    idx_ = i;
    valid_ = true;
  }

  // Newest revision in r's chain with version <= v. Helps stamp pending
  // revisions whose linearization is complete (required for reclamation
  // safety and batch/merge consistency, see JiffyMap::try_help_stamp);
  // pending half-installed batches are not yet linearized and are skipped.
  Rev* visible_rev(Rev* r, const ebr::Guard& g,
                   [[maybe_unused]] const ebr::VersionTicket& tk) const
      JIFFY_REQUIRES_GUARD(g) JIFFY_REQUIRES_TICKET(tk) {
    while (r) {
      // Foresight: the chain walk is a pointer chase — warm the predecessor
      // header while this revision's version (a possible cell indirection)
      // resolves. prev is immutable after publication, so the plain read is
      // race-free and the hint is never stale.
      prefetch_ro(r->prev);
      std::uint64_t t = r->version_now();
      if (t == kPendingVersion && map_->try_help_stamp(r, g))
        t = r->version_now();
      if (t <= v_) return r;  // pending (== ~0) is never <= v
      r = r->prev;
    }
    return nullptr;
  }

  // The node's visible revision at v (completing pending split links first).
  Rev* visible_head(Node* x, const ebr::Guard& g,
                    const ebr::VersionTicket& tk) const
      JIFFY_REQUIRES_GUARD(g) JIFFY_REQUIRES_TICKET(tk) {
    Rev* h = x->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
    if (h->sibling) map_->ensure_link(x, h, g);
    return visible_rev(h, g, tk);
  }

  // Did node n hold its range at version v: born at or before v and not
  // absorbed at v (a node dead at v moved its content into a node further
  // left). One subtlety keeps this precise rather than conservative: a
  // split part's birth stamp is stored only *after* the shared cell is
  // stamped, so a node's entries can already be visible at v while its
  // birth still reads pending — in that window, ask the revision chain
  // itself (visible_rev is the ground truth the landings use). Precision
  // matters for the reverse walk: unlike a forward landing, which visits
  // every linked node and lets visible_rev decide, pred_at uses this
  // predicate to pick the nearest contributing node, and a miss there
  // loses entries; the dead-at-v arm must stay exact too, or equal-anchor
  // tombstone/rebirth chains would hide a live holder behind a dead one.
  bool held_at(Node* n, const ebr::Guard& g,
               const ebr::VersionTicket& tk) const
      JIFFY_REQUIRES_GUARD(g) JIFFY_REQUIRES_TICKET(tk) {
    Rev* h = n->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
    if (h->sibling) map_->ensure_link(n, h, g);
    if (h->kind == RevKind::kAbsorbed && h->version_now() <= v_) return false;
    const std::uint64_t b =
        n->birth.load(std::memory_order_seq_cst);  // pairs: birth-stamp
    if (b != kPendingVersion) return b <= v_;
    // birth stamp still propagating: ask the chain itself
    return visible_rev(h, g, tk) != nullptr;
  }

  // Last node with anchor <= from that held its range at version v. Each
  // tower level is walked past the nodes held_at rejects (linked merge
  // tombstones, nodes born after v), and only a held node becomes the next
  // level's start: dropping a level at the first rejected node would turn a
  // seek among a few hundred linked tombstones into a level-0 walk.
  Node* position(const K& from, const ebr::Guard& g,
                 const ebr::VersionTicket& tk) const
      JIFFY_REQUIRES_GUARD(g) JIFFY_REQUIRES_TICKET(tk) {
    Node* x = map_->head_;
    for (int l = map_->top_level(); l >= 1; --l) {
      for (Node* cur =
               x->next(l).load(std::memory_order_acquire);  // pairs: next-link
           cur && !map_->less_(from, cur->anchor);
           cur = cur->next(l).load(std::memory_order_acquire)) {  // pairs: next-link
        if (held_at(cur, g, tk)) x = cur;
      }
      // Foresight: warm the next hop one level down (see locate()).
      // relaxed: prefetch address only, never dereferenced; the traversal
      // reload above carries the acquire edge.
      prefetch_ro(x->next(l - 1).load(std::memory_order_relaxed));
    }
    // Level 0: nodes that held their ranges at v are in anchor order, but a
    // node v cannot see may sit in front of one with a larger anchor (a
    // part split off after v, linked ahead of a tombstone that was live at
    // v), so only a held node past `from` ends the walk.
    Node* best = x;
    for (Node* cur = x->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
         cur; cur = cur->next(0).load(std::memory_order_seq_cst)) {  // pairs: next-link
      if (!held_at(cur, g, tk)) continue;
      if (map_->less_(from, cur->anchor)) break;
      best = cur;
    }
    return best;
  }

  // Nearest node left of x that held its range at version v (nullptr when x
  // is the head). Backward links are hints that only promise a strict list
  // predecessor (see JiffyNode::back), so: follow them to a node alive at
  // v, then tighten with a forward walk — every node between the hint and x
  // is on the level-0 chain because nodes are never physically unlinked.
  // Reverse traversal therefore inherits the forward walk's
  // version-visibility rules; the hints only buy locality.
  Node* pred_at(Node* x, const ebr::Guard& g,
                const ebr::VersionTicket& tk) const
      JIFFY_REQUIRES_GUARD(g) JIFFY_REQUIRES_TICKET(tk) {
    if (x == map_->head_) return nullptr;
    Node* hint = x->back.load(std::memory_order_acquire);  // pairs: back-hint
    Node* p = hint ? hint : map_->head_;
    while (p != map_->head_ && !held_at(p, g, tk)) {
      Node* q = p->back.load(std::memory_order_acquire);  // pairs: back-hint
      p = q ? q : map_->head_;
    }
    // Walk to x itself, not to its anchor: a node v cannot see may sit
    // between p and x with an anchor at or above x's (see position()).
    // While v is pinned the purge pass cannot unlink a node that held v,
    // so the walk meets x; rightmost()'s tail, the one x that may not have
    // held v, ends the list anyway.
    Node* best = p;  // the head held every version; p held v by the loop
    for (Node* cur = p->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
         cur && cur != x;
         cur = cur->next(0).load(std::memory_order_seq_cst)) {  // pairs: next-link
      if (held_at(cur, g, tk)) best = cur;
    }
    // Tighten the hint — but never to a condemned node: the purge pass
    // scrubs stale hints before retiring a shell, and a reader must not
    // plant fresh ones behind its back (ticketed versions make `best`
    // condemned only in the brief window before the condemn flag is seen).
    if (best != hint &&
        !best->condemned.load(std::memory_order_seq_cst))  // pairs: condemn-flag
      x->back.store(best, std::memory_order_release);  // pairs: back-hint
    return best;
  }

  // Rightmost node currently linked (completing pending split links on the
  // way so the fringe is reachable); seeds seek_to_last.
  Node* rightmost(const ebr::Guard& g) const JIFFY_REQUIRES_GUARD(g) {
    Node* x = map_->head_;
    for (int l = map_->top_level(); l >= 1; --l)
      for (Node* nxt =
               x->next(l).load(std::memory_order_acquire);  // pairs: next-link
           nxt;
           nxt = x->next(l).load(std::memory_order_acquire))  // pairs: next-link
        x = nxt;
    for (;;) {
      Rev* r = x->rev.load(std::memory_order_seq_cst);  // pairs: rev-install
      if (r->sibling) map_->ensure_link(x, r, g);
      Node* nxt = x->next(0).load(std::memory_order_seq_cst);  // pairs: next-link
      if (!nxt) return x;
      x = nxt;
    }
  }

  // Land on the first visible entry >= *bound (> when !inclusive) in x or
  // any node to its right; invalidate when none exists.
  void land_forward(Node* x, const K* bound, bool inclusive,
                    const ebr::Guard& g, const ebr::VersionTicket& tk)
      JIFFY_REQUIRES_GUARD(g) JIFFY_REQUIRES_TICKET(tk) {
    for (; x;
         x = x->next(0).load(std::memory_order_seq_cst)) {  // pairs: next-link
      // Foresight: the next node's header miss overlaps this node's
      // revision-chain walk and the entries streamed from it after landing.
      // relaxed: prefetch address only, never dereferenced; the loop's
      // paired seq_cst reload is what the walk follows.
      prefetch_ro(x->next(0).load(std::memory_order_relaxed));
      if (Rev* r = visible_head(x, g, tk)) {
        std::uint32_t i = 0;
        if (bound) {
          const Entry* it = inclusive
                                ? r->lower_bound_pos(*bound, map_->less_)
                                : r->upper_bound_pos(*bound, map_->less_);
          i = static_cast<std::uint32_t>(it - r->begin());
        }
        if (i < r->count) {
          set(x, r, i);
          return;
        }
      }
    }
    valid_ = false;
  }

  // Land on the last visible entry <= *bound (< when !inclusive) in x or
  // any node to its left; invalidate when none exists.
  void land_backward(Node* x, const K* bound, bool inclusive,
                     const ebr::Guard& g, const ebr::VersionTicket& tk)
      JIFFY_REQUIRES_GUARD(g) JIFFY_REQUIRES_TICKET(tk) {
    for (; x; x = pred_at(x, g, tk)) {
      if (Rev* r = visible_head(x, g, tk)) {
        std::uint32_t i = r->count;
        if (bound) {
          const Entry* it = inclusive
                                ? r->upper_bound_pos(*bound, map_->less_)
                                : r->lower_bound_pos(*bound, map_->less_);
          i = static_cast<std::uint32_t>(it - r->begin());
        }
        if (i > 0) {
          set(x, r, i - 1);
          return;
        }
      }
    }
    valid_ = false;
  }

  const MapT* map_;
  std::uint64_t v_;
  Node* node_ = nullptr;
  Rev* rev_ = nullptr;
  std::uint32_t idx_ = 0;
  bool valid_ = false;
};

// A bidirectional, RocksDB-style cursor over one consistent version of a
// JiffyMap: a SnapPos that carries its own guard and ticket. Normally
// obtained from a Snapshot (seek / seek_for_prev / first / last);
// constructing one directly requires a version read under a live EBR
// guard. The cursor holds its own (nested, refcounted) guard, so it
// remains safe for its whole lifetime provided it is created while the
// snapshot — or the guard the version was read under — is still alive:
// the nested guard keeps this thread's epoch pinned continuously.
template <class MapT>
class SnapCursor : public SnapPos<MapT> {
  using Pos = SnapPos<MapT>;

 public:
  using K = typename MapT::key_type;
  using V = typename MapT::mapped_type;

  // The version must still be covered when a cursor is constructed (by the
  // snapshot's ticket, or the guard+ticket it was read under): the cursor
  // then pins it with its own ticket, keeping the purge watermark at or
  // below it for the cursor's whole lifetime.
  SnapCursor(const MapT* m, std::uint64_t version) : Pos(m, version) {
    ticket_.publish(version);
  }

  SnapCursor(const SnapCursor& o) : Pos(o) { ticket_.publish(o.version()); }

  SnapCursor& operator=(const SnapCursor& o) {
    Pos::operator=(o);
    ticket_.publish(o.version());  // guard_ keeps its own pin
    return *this;
  }

  void seek(const K& k) { land(&k, /*forward=*/true); }
  void seek_for_prev(const K& k) { land(&k, /*forward=*/false); }
  void seek_to_first() { land(nullptr, /*forward=*/true); }
  void seek_to_last() { land(nullptr, /*forward=*/false); }

  void next() {
    guard_.assert_held();
    ticket_.assert_pinned();
    Pos::next(guard_, ticket_);
  }

  void prev() {
    guard_.assert_held();
    ticket_.assert_pinned();
    Pos::prev(guard_, ticket_);
  }

 private:
  friend class Snapshot<MapT>;
  // A cursor landed by land(k, forward): Snapshot's cursor factories.
  SnapCursor(const MapT* m, std::uint64_t version, const K* k, bool forward)
      : SnapCursor(m, version) {
    land(k, forward);
  }

  void land(const K* k, bool forward) {
    guard_.assert_held();
    ticket_.assert_pinned();
    Pos::seek(k, forward, guard_, ticket_);
  }

  ebr::Guard guard_;
  ebr::VersionTicket ticket_;
};

// A consistent point-in-time view: the first-class handle for versioned
// reads. Holds an EBR guard for its lifetime, so the revision chains
// backing `version()` stay reachable; keep snapshots short-lived or expect
// retired garbage to accumulate. Beyond point gets and bounded scans, which
// walk a SnapPos under the snapshot's own pins, it hands out bidirectional
// cursors and half-open range views, all reading at the same frozen
// version. Snapshots and the cursors they produce pin the creating thread's
// epoch — create cursors while the snapshot is alive.
template <class MapT>
class Snapshot {
 public:
  using K = typename MapT::key_type;
  using V = typename MapT::mapped_type;
  using Cursor = SnapCursor<MapT>;

  // Member order matters: ticket_ registers its "reserving" sentinel before
  // version_'s initializer reads the clock, so the purge watermark can never
  // slip past the version this snapshot is about to pin. This is the one
  // place a reader's version is read from the clock.
  explicit Snapshot(const MapT* m)
      : map_(m), version_(m->clock_.read()) {
    ticket_.publish(version_);
  }

  std::uint64_t version() const { return version_; }

  std::optional<V> get(const K& k) const {
    const Pos p = land(k);
    if (!p.valid() || map_->less_(k, p.key())) return std::nullopt;
    return p.value();
  }

  // Membership without materializing the value.
  bool contains(const K& k) const {
    const Pos p = land(k);
    return p.valid() && !map_->less_(k, p.key());
  }

  // Visit up to `n` entries with key >= from, in order.
  template <class F>
  std::size_t scan_n(const K& from, std::size_t n, F&& f) const {
    guard_.assert_held();  // class invariant: members pin epoch + version
    ticket_.assert_pinned();
    std::size_t emitted = 0;
    for (Pos p = land(from); p.valid() && emitted < n;
         p.next(guard_, ticket_)) {
      f(p.key(), p.value());
      ++emitted;
    }
    return emitted;
  }

  // Visit up to `n` entries with key <= from, in descending order.
  template <class F>
  std::size_t rscan_n(const K& from, std::size_t n, F&& f) const {
    guard_.assert_held();
    ticket_.assert_pinned();
    std::size_t emitted = 0;
    for (Pos p = land(from, /*forward=*/false); p.valid() && emitted < n;
         p.prev(guard_, ticket_)) {
      f(p.key(), p.value());
      ++emitted;
    }
    return emitted;
  }

  // ---- cursors ------------------------------------------------------------

  Cursor cursor() const { return Cursor(map_, version_); }  // unpositioned

  Cursor seek(const K& k) const { return Cursor(map_, version_, &k, true); }
  Cursor seek_for_prev(const K& k) const {
    return Cursor(map_, version_, &k, false);
  }
  Cursor first() const { return Cursor(map_, version_, nullptr, true); }
  Cursor last() const { return Cursor(map_, version_, nullptr, false); }

  // ---- half-open range views ----------------------------------------------

  // STL-style forward view of [lo, hi) at the snapshot version:
  //   for (auto [k, v] : snap.range(lo, hi)) ...
  // Holds its own EBR guard: in C++20 a range-for over
  // `map.snapshot().range(lo, hi)` destroys the Snapshot temporary before
  // begin() runs (temporary lifetime extension in range-for is C++23), so
  // the view itself must keep the epoch pinned from construction on. Its
  // iterators walk under the view's pins and must not outlive it.
  class Range {
   public:
    struct Sentinel {};

    Range(const Range& o) : map_(o.map_), v_(o.v_), lo_(o.lo_), hi_(o.hi_) {
      ticket_.publish(v_);
    }

    class Iterator {
     public:
      std::pair<const K&, const V&> operator*() const {
        return {p_.key(), p_.value()};
      }
      Iterator& operator++() {
        r_->guard_.assert_held();  // class invariant of the view
        r_->ticket_.assert_pinned();
        p_.next(r_->guard_, r_->ticket_);
        return *this;
      }
      bool operator==(Sentinel) const { return !p_.in_range_below(r_->hi_); }

     private:
      friend class Range;
      explicit Iterator(const Range* r) : r_(r), p_(r->map_, r->v_) {
        r->guard_.assert_held();
        r->ticket_.assert_pinned();
        p_.seek(&r->lo_, /*forward=*/true, r->guard_, r->ticket_);
      }
      const Range* r_;
      SnapPos<MapT> p_;
    };

    Iterator begin() const { return Iterator(this); }
    Sentinel end() const { return Sentinel{}; }

   private:
    friend class Snapshot;
    Range(const MapT* m, std::uint64_t v, K lo, K hi)
        : map_(m), v_(v), lo_(std::move(lo)), hi_(std::move(hi)) {
      ticket_.publish(v_);
    }
    const MapT* map_;
    std::uint64_t v_;
    ebr::Guard guard_;  // the view outlives the Snapshot temporary in C++20
    ebr::VersionTicket ticket_;  // range-for, so it pins epoch and version
    K lo_;
    K hi_;
  };

  Range range(const K& lo, const K& hi) const {
    return Range(map_, version_, lo, hi);
  }

 private:
  friend MapT;  // range_scan
  using Pos = SnapPos<MapT>;

  // The position of the first entry >= k (the last <= k when !forward) at
  // the snapshot version, walked under the snapshot's own guard and ticket.
  Pos land(const K& k, bool forward = true) const {
    guard_.assert_held();
    ticket_.assert_pinned();
    Pos p(map_, version_);
    p.seek(&k, forward, guard_, ticket_);
    return p;
  }

  // Visit every entry in [lo, hi), in order (backs JiffyMap::range_scan).
  template <class F>
  std::size_t range_scan(const K& lo, const K& hi, F&& f) const {
    guard_.assert_held();
    ticket_.assert_pinned();
    std::size_t emitted = 0;
    for (Pos p = land(lo); p.in_range_below(hi); p.next(guard_, ticket_)) {
      f(p.key(), p.value());
      ++emitted;
    }
    return emitted;
  }

  const MapT* map_;
  ebr::Guard guard_;
  ebr::VersionTicket ticket_;
  std::uint64_t version_;
};

}  // namespace jiffy
