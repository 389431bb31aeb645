// Fomitchev–Ruppert lock-free linked list (PODC 2004), the second truly
// concurrent reference index next to the CSLM skip list.
//
// Each node's successor word packs {pointer, mark, flag}:
//   mark — the node is logically deleted and its successor word is frozen;
//   flag — the node's *successor* is being deleted, freezing this word until
//          the deletion's unlink CAS completes.
// Deletion is a three-step helped protocol: flag the predecessor, mark the
// victim (storing a backlink to the predecessor first, so threads that find
// their predecessor marked can walk left instead of restarting from head),
// then swing the flagged predecessor past the victim. Any thread meeting a
// flagged or marked edge finishes the protocol — the list is lock-free with
// no restarts-from-head on contention, which is the property that makes it a
// useful differential oracle: its progress argument is completely different
// from Jiffy's fat-node revision CAS discipline, so a bug that wedges one is
// unlikely to wedge the other the same way.
//
// Values live behind an atomic V* (in-place lock-free update, same
// marked-recheck linearization trick as cslm.h). Nodes and replaced values
// are reclaimed through the shared EBR: the deletion winner retires the
// victim only after HelpFlagged completed the physical unlink. A marked
// straggler that still points at the victim implies its own deleter is
// parked inside a guard, which pins the epoch and keeps the victim's shell
// alive for exactly as long as that path remains reachable.
//
// Scans are weakly consistent level-0 traversals (no multiversioning);
// rscan_n re-searches the predecessor per step (the list is singly linked);
// apply() is a plain loop, NOT atomic. O(n) searches, so the figure harness
// does not run it; it exists for the differential correctness suites.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "common/analysis.h"
#include "ebr/ebr.h"
#include "workload/keyvalue.h"

namespace jiffy::baselines {

template <class K, class V, class Less = std::less<K>>
class LfList {
 public:
  LfList() {
    head_ = new Node(K{}, nullptr, Sentinel::kHead);
    tail_ = new Node(K{}, nullptr, Sentinel::kTail);
    // relaxed: constructor runs before the list is shared.
    head_->succ.store(pack(tail_, false, false), std::memory_order_relaxed);
  }

  ~LfList() {
    // relaxed: single-threaded teardown; no concurrent access remains.
    Node* x = ptr(head_->succ.load(std::memory_order_relaxed));
    while (x != tail_) {
      // relaxed: single-threaded teardown; no concurrent access remains.
      Node* nxt = ptr(x->succ.load(std::memory_order_relaxed));
      delete x;
      x = nxt;
    }
    delete head_;
    delete tail_;
    ebr::quiesce();
  }

  LfList(const LfList&) = delete;
  LfList& operator=(const LfList&) = delete;

  // Insert or overwrite; returns true iff the key was newly inserted.
  bool put(const K& k, const V& v) {
    ebr::Guard g;
    g.assert_held();
    Node* newn = nullptr;
    for (;;) {
      auto [prev, curr] = search_from(k, head_, /*inclusive=*/true, g);
      if (node_equals(prev, k)) {
        // In-place update; if the node got marked, our value may never be
        // observed, so reinsert to linearize the put after the delete.
        V* vp = new V(v);
        // unlink: lfl-val-swap
        ebr::retire(
            prev->val.exchange(vp, std::memory_order_acq_rel));  // pairs: val-publish
        if (marked(prev->succ.load(std::memory_order_seq_cst)))  // pairs: lfl-succ
          continue;
        delete newn;  // never published
        return false;
      }
      if (!newn) newn = new Node(k, new V(v), Sentinel::kNone);
      const std::uintptr_t ps =
          prev->succ.load(std::memory_order_seq_cst);  // pairs: lfl-succ
      if (flagged(ps)) {
        help_flagged(prev, ptr(ps), g);
        continue;
      }
      if (marked(ps)) continue;  // prev deleted underneath us: re-search
      if (ptr(ps) != curr) continue;  // raced; re-search
      // relaxed: newn is thread-private until the insert CAS publishes it.
      newn->succ.store(pack(curr, false, false), std::memory_order_relaxed);
      std::uintptr_t expect = pack(curr, false, false);
      if (prev->succ.compare_exchange_strong(
              expect, pack(newn, false, false),
              std::memory_order_seq_cst)) {  // pairs: lfl-succ
        // relaxed: approximate size counter (see approx_size).
        size_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // CAS failed: help whoever got in the way, then retry from prev.
      if (flagged(expect)) help_flagged(prev, ptr(expect), g);
    }
  }

  bool erase(const K& k) {
    ebr::Guard g;
    g.assert_held();
    auto [prev, del] = search_from(k, head_, /*inclusive=*/false, g);
    if (!node_equals(del, k)) return false;
    auto [fprev, won] = try_flag(prev, del, g);
    if (fprev != nullptr) help_flagged(fprev, del, g);
    if (!won) return false;
    // relaxed: approximate size counter (see approx_size).
    size_.fetch_sub(1, std::memory_order_relaxed);
    // help_flagged completed the unlink (the flagged word admits exactly one
    // transition), so the shell is unreachable from live predecessors.
    ebr::retire(del);  // unlink: lfl-unlink
    return true;
  }

  std::optional<V> get(const K& k) const {
    ebr::Guard g;
    g.assert_held();
    auto [prev, curr] = search_from(k, head_, /*inclusive=*/true, g);
    if (!node_equals(prev, k) ||
        marked(prev->succ.load(std::memory_order_seq_cst)))  // pairs: lfl-succ
      return std::nullopt;
    return *prev->val.load(std::memory_order_acquire);  // pairs: val-publish
  }

  bool contains(const K& k) const { return get(k).has_value(); }

  std::size_t approx_size() const {
    // relaxed: the count is approximate by contract.
    const std::int64_t n = size_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  // Weakly consistent ascending visit of up to n entries with key >= from.
  template <class F>
  std::size_t scan_n(const K& from, std::size_t n, F&& f) const {
    ebr::Guard g;
    g.assert_held();
    auto [prev, curr] = search_from(from, head_, /*inclusive=*/false, g);
    std::size_t emitted = 0;
    while (curr->sentinel != Sentinel::kTail && emitted < n) {
      const std::uintptr_t nx =
          curr->succ.load(std::memory_order_seq_cst);  // pairs: lfl-succ
      if (!marked(nx)) {
        f(curr->key,
          *curr->val.load(std::memory_order_acquire));  // pairs: val-publish
        ++emitted;
      }
      curr = ptr(nx);
    }
    return emitted;
  }

  // Descending visit of up to n entries with key <= from; the list is singly
  // linked, so each step re-searches for the strict predecessor.
  template <class F>
  std::size_t rscan_n(const K& from, std::size_t n, F&& f) const {
    ebr::Guard g;
    g.assert_held();
    std::size_t emitted = 0;
    K cur = from;
    bool inclusive = true;
    while (emitted < n) {
      // Inclusive search: prev.key <= cur; strict: prev.key < cur. Either
      // way prev is the next candidate going left.
      auto [cand, nxt] = search_from(cur, head_, inclusive, g);
      if (cand->sentinel != Sentinel::kNone) break;
      if (!marked(
              cand->succ.load(std::memory_order_seq_cst))) {  // pairs: lfl-succ
        f(cand->key,
          *cand->val.load(std::memory_order_acquire));  // pairs: val-publish
        ++emitted;
      }
      cur = cand->key;
      inclusive = false;
    }
    return emitted;
  }

  // Weakly consistent ascending visit of [lo, hi).
  template <class F>
  std::size_t range_scan(const K& lo, const K& hi, F&& f) const {
    ebr::Guard g;
    g.assert_held();
    auto [prev, curr] = search_from(lo, head_, /*inclusive=*/false, g);
    std::size_t emitted = 0;
    while (curr->sentinel != Sentinel::kTail && less_(curr->key, hi)) {
      const std::uintptr_t nx =
          curr->succ.load(std::memory_order_seq_cst);  // pairs: lfl-succ
      if (!marked(nx)) {
        f(curr->key,
          *curr->val.load(std::memory_order_acquire));  // pairs: val-publish
        ++emitted;
      }
      curr = ptr(nx);
    }
    return emitted;
  }

  // Not atomic — like CSLM, this baseline has no batch support.
  void apply(Batch<K, V> b) {
    for (const auto& op : b.ops()) {
      if (op.kind == BatchOp<K, V>::Kind::kPut)
        put(op.key, op.value);
      else
        erase(op.key);
    }
  }

 private:
  enum class Sentinel : std::uint8_t { kNone, kHead, kTail };

  struct Node {
    const K key;
    std::atomic<V*> val;
    const Sentinel sentinel;
    // {successor pointer, mark, flag}; bit 0 = mark, bit 1 = flag.
    std::atomic<std::uintptr_t> succ{0};
    // Predecessor hint, stored before this node is marked; threads that find
    // their predecessor marked walk left along these instead of restarting.
    std::atomic<Node*> backlink{nullptr};

    Node(K k, V* v, Sentinel s) : key(std::move(k)), val(v), sentinel(s) {}
    // relaxed: the node is unreachable once the EBR grace period hands it to
    // the destructor; no concurrent access remains.
    ~Node() { delete val.load(std::memory_order_relaxed); }
  };

  static std::uintptr_t pack(Node* n, bool mark, bool flag) {
    return reinterpret_cast<std::uintptr_t>(n) | (mark ? 1u : 0u) |
           (flag ? 2u : 0u);
  }
  static Node* ptr(std::uintptr_t s) {
    return reinterpret_cast<Node*>(s & ~std::uintptr_t{3});
  }
  static bool marked(std::uintptr_t s) { return (s & 1u) != 0; }
  static bool flagged(std::uintptr_t s) { return (s & 2u) != 0; }

  bool node_less(const Node* n, const K& k) const {
    if (n->sentinel == Sentinel::kHead) return true;
    if (n->sentinel == Sentinel::kTail) return false;
    return less_(n->key, k);
  }
  bool node_leq(const Node* n, const K& k) const {
    if (n->sentinel == Sentinel::kHead) return true;
    if (n->sentinel == Sentinel::kTail) return false;
    return !less_(k, n->key);
  }
  bool node_equals(const Node* n, const K& k) const {
    return n->sentinel == Sentinel::kNone && !less_(n->key, k) &&
           !less_(k, n->key);
  }

  // FR SearchFrom: returns (prev, curr) with prev.key <= k < curr.key when
  // inclusive, prev.key < k <= curr.key otherwise. Helps complete any
  // deletion met on the path (a marked curr whose predecessor edge we hold
  // flagged is unlinked in passing).
  std::pair<Node*, Node*> search_from(const K& k, Node* prev, bool inclusive,
                                      const ebr::Guard& g) const
      JIFFY_REQUIRES_GUARD(g) {
    Node* next =
        ptr(prev->succ.load(std::memory_order_seq_cst));  // pairs: lfl-succ
    auto advance = [&](const Node* n) {
      return inclusive ? node_leq(n, k) : node_less(n, k);
    };
    while (advance(next)) {
      for (;;) {
        const std::uintptr_t ns =
            next->succ.load(std::memory_order_seq_cst);  // pairs: lfl-succ
        if (!marked(ns)) break;
        const std::uintptr_t ps =
            prev->succ.load(std::memory_order_seq_cst);  // pairs: lfl-succ
        if (ptr(ps) == next && marked(ps)) break;  // frozen edge: walk through
        if (ptr(ps) == next && flagged(ps)) {
          // Mark implies the unique live predecessor edge is flagged, and
          // that edge is ours: complete the unlink.
          help_marked(prev, next, g);
        }
        next = ptr(
            prev->succ.load(std::memory_order_seq_cst));  // pairs: lfl-succ
        if (!advance(next)) return {prev, next};
      }
      prev = next;
      next =
          ptr(prev->succ.load(std::memory_order_seq_cst));  // pairs: lfl-succ
    }
    return {prev, next};
  }

  // Flag prev's successor word while it points at target. Returns the node
  // holding the flag (null if target vanished) and whether WE set it.
  std::pair<Node*, bool> try_flag(Node* prev, Node* target,
                                  const ebr::Guard& g) const
      JIFFY_REQUIRES_GUARD(g) {
    for (;;) {
      const std::uintptr_t want = pack(target, false, true);
      std::uintptr_t expect = pack(target, false, false);
      if (prev->succ.load(std::memory_order_seq_cst) ==  // pairs: lfl-succ
          want)
        return {prev, false};  // someone else is deleting target
      if (prev->succ.compare_exchange_strong(
              expect, want, std::memory_order_seq_cst))  // pairs: lfl-succ
        return {prev, true};
      if (expect == want) return {prev, false};
      if (marked(
              prev->succ.load(std::memory_order_seq_cst)))  // pairs: lfl-succ
        prev = walk_back(prev, g);
      auto [p, del] = search_from(target->key, prev, /*inclusive=*/false, g);
      if (del != target) return {nullptr, false};  // already deleted
      prev = p;
    }
  }

  void help_flagged(Node* prev, Node* del, const ebr::Guard& g) const
      JIFFY_REQUIRES_GUARD(g) {
    del->backlink.store(prev, std::memory_order_seq_cst);  // pairs: lfl-backlink
    if (!marked(del->succ.load(std::memory_order_seq_cst)))  // pairs: lfl-succ
      try_mark(del, g);
    help_marked(prev, del, g);
  }

  void try_mark(Node* del, const ebr::Guard& g) const JIFFY_REQUIRES_GUARD(g) {
    for (;;) {
      const std::uintptr_t s =
          del->succ.load(std::memory_order_seq_cst);  // pairs: lfl-succ
      if (marked(s)) return;
      if (flagged(s)) {
        // Finish the successor's deletion first.
        help_flagged(del, ptr(s), g);
        continue;
      }
      std::uintptr_t expect = s;
      if (del->succ.compare_exchange_strong(
              expect, s | 1u, std::memory_order_seq_cst))  // pairs: lfl-succ
        return;
    }
  }

  void help_marked(Node* prev, Node* del,
                   [[maybe_unused]] const ebr::Guard& g) const
      JIFFY_REQUIRES_GUARD(g) {
    Node* next =
        ptr(del->succ.load(std::memory_order_seq_cst));  // pairs: lfl-succ
    std::uintptr_t expect = pack(del, false, true);
    prev->succ.compare_exchange_strong(
        expect, pack(next, false, false),
        std::memory_order_seq_cst);  // pairs: lfl-succ
  }

  Node* walk_back(Node* n, [[maybe_unused]] const ebr::Guard& g) const
      JIFFY_REQUIRES_GUARD(g) {
    while (marked(n->succ.load(std::memory_order_seq_cst))) {  // pairs: lfl-succ
      Node* b = n->backlink.load(std::memory_order_seq_cst);  // pairs: lfl-backlink
      if (b == nullptr) break;  // mark not yet published its backlink? head.
      n = b;
    }
    return n;
  }

  Less less_{};
  mutable std::atomic<std::int64_t> size_{0};
  Node* head_;
  Node* tail_;
};

}  // namespace jiffy::baselines
