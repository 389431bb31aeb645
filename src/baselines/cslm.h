// CSLM baseline: a classic lock-free skip list in the Herlihy–Shavit style
// (The Art of Multiprocessor Programming §14.4, the algorithm behind Java's
// ConcurrentSkipListMap and the RocksDB variant in /root/related). One entry
// per node, towers with a mark bit stolen from each next pointer, logical
// deletion at level 0 and physical unlinking by every passing find().
//
// This is the "no fat nodes" contrast for Jiffy's locality argument: every
// step of a traversal is a dependent cache miss. Values live behind an
// atomic pointer so in-place updates are lock-free; nodes and replaced
// values are reclaimed through the shared EBR. Scans (forward, reverse and
// bounded-range) are weakly consistent (like the Java CSLM iterators the
// paper benchmarks against); apply() is a plain loop, i.e. NOT atomic — the
// harness only runs batch rows for indices that support them.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/analysis.h"
#include "ebr/ebr.h"
#include "workload/keyvalue.h"
#include "workload/rng.h"

namespace jiffy::baselines {

template <class K, class V, class Less = std::less<K>>
class CslmMap {
 public:
  using key_type = K;
  using mapped_type = V;

  CslmMap() {
    head_ = new Node(K{}, nullptr, kMaxLevel - 1, Sentinel::kHead);
    tail_ = new Node(K{}, nullptr, kMaxLevel - 1, Sentinel::kTail);
    for (int l = 0; l < kMaxLevel; ++l)
      // relaxed: constructor runs before the map is shared.
      head_->next[l].store(pack(tail_, false), std::memory_order_relaxed);
  }

  ~CslmMap() {
    // relaxed: single-threaded teardown; no concurrent access remains.
    Node* x = unmark(head_->next[0].load(std::memory_order_relaxed));
    while (x != tail_) {
      // relaxed: single-threaded teardown; no concurrent access remains.
      Node* nxt = unmark(x->next[0].load(std::memory_order_relaxed));
      delete x;
      x = nxt;
    }
    delete head_;
    delete tail_;
    ebr::quiesce();
  }

  CslmMap(const CslmMap&) = delete;
  CslmMap& operator=(const CslmMap&) = delete;

  bool put(const K& k, const V& v) {
    ebr::Guard g;
    g.assert_held();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    for (;;) {
      if (find(k, preds, succs, g)) {
        Node* node = succs[0];
        V* vp = new V(v);
        V* old =
            node->val.exchange(vp, std::memory_order_acq_rel);  // pairs: val-publish
        ebr::retire(old);  // unlink: cslm-val-swap
        if (marked(
                node->next[0].load(std::memory_order_seq_cst))) {  // pairs: cslm-next
          // The node was logically removed; our value may never be seen.
          // Retry as an insert so the put linearizes after the remove.
          continue;
        }
        return false;
      }
      const int top = random_level();
      auto* node = new Node(k, new V(v), top, Sentinel::kNone);
      for (int l = 0; l <= top; ++l)
        // relaxed: node is thread-private until the level-0 CAS publishes it.
        node->next[l].store(pack(succs[l], false), std::memory_order_relaxed);
      std::uintptr_t expect = pack(succs[0], false);
      if (!preds[0]->next[0].compare_exchange_strong(
              expect, pack(node, false),
              std::memory_order_seq_cst)) {  // pairs: cslm-next
        delete node;  // never published
        continue;
      }
      // relaxed: approximate size counter (see approx_size).
      size_.fetch_add(1, std::memory_order_relaxed);
      for (int l = 1; l <= top; ++l) {
        for (;;) {
          std::uintptr_t e = pack(succs[l], false);
          if (preds[l]->next[l].compare_exchange_strong(
                  e, pack(node, false),
                  std::memory_order_seq_cst))  // pairs: cslm-next
            break;
          find(k, preds, succs, g);  // refresh preds/succs
          if (succs[0] != node) return true;  // already removed: stop linking
          std::uintptr_t cur =
              node->next[l].load(std::memory_order_seq_cst);  // pairs: cslm-next
          if (marked(cur)) return true;  // being removed: remover owns links
          if (unmark(cur) != succs[l])
            node->next[l].compare_exchange_strong(
                cur, pack(succs[l], false),
                std::memory_order_seq_cst);  // pairs: cslm-next
        }
      }
      return true;
    }
  }

  bool erase(const K& k) {
    ebr::Guard g;
    g.assert_held();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    if (!find(k, preds, succs, g)) return false;
    Node* node = succs[0];
    for (int l = node->top; l >= 1; --l) {
      std::uintptr_t cur =
          node->next[l].load(std::memory_order_seq_cst);  // pairs: cslm-next
      while (!marked(cur)) {
        node->next[l].compare_exchange_weak(
            cur, cur | 1u, std::memory_order_seq_cst);  // pairs: cslm-next
      }
    }
    std::uintptr_t cur =
        node->next[0].load(std::memory_order_seq_cst);  // pairs: cslm-next
    for (;;) {
      if (marked(cur)) return false;  // lost to a concurrent remover
      if (node->next[0].compare_exchange_strong(
              cur, cur | 1u, std::memory_order_seq_cst)) {  // pairs: cslm-next
        // relaxed: approximate size counter (see approx_size).
        size_.fetch_sub(1, std::memory_order_relaxed);
        // A completed find() pass snips the node at every level it still
        // occupied; only then is it safe to hand to the collector.
        find(k, preds, succs, g);
        ebr::retire(node);  // unlink: cslm-unlink
        return true;
      }
    }
  }

  std::optional<V> get(const K& k) const {
    ebr::Guard g;
    g.assert_held();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    if (!find(k, preds, succs, g)) return std::nullopt;
    V* p = succs[0]->val.load(std::memory_order_acquire);  // pairs: val-publish
    return *p;
  }

  bool contains(const K& k) const {
    ebr::Guard g;
    g.assert_held();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    return find(k, preds, succs, g);
  }

  // Atomic insert/remove counter (puts that overwrite do not change it);
  // transiently off by in-flight ops, hence "approx".
  std::size_t approx_size() const {
    // relaxed: the count is approximate by contract.
    const std::int64_t n = size_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  // Weakly consistent ordered traversal at level 0.
  template <class F>
  std::size_t scan_n(const K& from, std::size_t n, F&& f) const {
    ebr::Guard g;
    g.assert_held();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    find(from, preds, succs, g);
    std::size_t emitted = 0;
    for (Node* cur = succs[0]; cur != tail_ && emitted < n;) {
      const std::uintptr_t nx =
          cur->next[0].load(std::memory_order_seq_cst);  // pairs: cslm-next
      if (!marked(nx)) {
        f(cur->key,
          *cur->val.load(std::memory_order_acquire));  // pairs: val-publish
        ++emitted;
      }
      cur = unmark(nx);
    }
    return emitted;
  }

  // Descending visit of up to n entries with key <= from. The list is
  // singly linked, so each step re-searches for the strict predecessor
  // (O(log n) per entry, like Java's CSLM descending iterators); weakly
  // consistent like scan_n.
  template <class F>
  std::size_t rscan_n(const K& from, std::size_t n, F&& f) const {
    ebr::Guard g;
    g.assert_held();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    std::size_t emitted = 0;
    K cur = from;
    bool inclusive = true;
    while (emitted < n) {
      const bool eq = find(cur, preds, succs, g);
      Node* cand = (inclusive && eq) ? succs[0] : preds[0];
      if (cand->sentinel != Sentinel::kNone) break;
      if (!marked(cand->next[0].load(
              std::memory_order_seq_cst))) {  // pairs: cslm-next
        f(cand->key,
          *cand->val.load(std::memory_order_acquire));  // pairs: val-publish
        ++emitted;
      }
      cur = cand->key;
      inclusive = false;
    }
    return emitted;
  }

  // Ordered visit of every entry in the half-open range [lo, hi); weakly
  // consistent, level-0 traversal.
  template <class F>
  std::size_t range_scan(const K& lo, const K& hi, F&& f) const {
    ebr::Guard g;
    g.assert_held();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    find(lo, preds, succs, g);
    std::size_t emitted = 0;
    for (Node* cur = succs[0];
         cur->sentinel != Sentinel::kTail && less_(cur->key, hi);) {
      const std::uintptr_t nx =
          cur->next[0].load(std::memory_order_seq_cst);  // pairs: cslm-next
      if (!marked(nx)) {
        f(cur->key,
          *cur->val.load(std::memory_order_acquire));  // pairs: val-publish
        ++emitted;
      }
      cur = unmark(nx);
    }
    return emitted;
  }

  // Not atomic: CSLM has no batch support in the paper either; the harness
  // only emits batch rows for indices that provide real atomic batches.
  void apply(Batch<K, V> b) {
    for (const auto& op : b.ops()) {
      if (op.kind == BatchOp<K, V>::Kind::kPut)
        put(op.key, op.value);
      else
        erase(op.key);
    }
  }

 private:
  static constexpr int kMaxLevel = 20;

  enum class Sentinel : std::uint8_t { kNone, kHead, kTail };

  struct Node {
    const K key;
    std::atomic<V*> val;
    const int top;  // occupies levels 0..top
    const Sentinel sentinel;
    std::vector<std::atomic<std::uintptr_t>> next;

    Node(K k, V* v, int t, Sentinel s)
        : key(std::move(k)), val(v), top(t), sentinel(s), next(t + 1) {}

    // relaxed: the node is unreachable once the EBR grace period hands it to
    // the destructor; no concurrent access remains.
    ~Node() { delete val.load(std::memory_order_relaxed); }
  };

  static std::uintptr_t pack(Node* n, bool mark) {
    return reinterpret_cast<std::uintptr_t>(n) | (mark ? 1u : 0u);
  }
  static Node* unmark(std::uintptr_t p) {
    return reinterpret_cast<Node*>(p & ~std::uintptr_t{1});
  }
  static bool marked(std::uintptr_t p) { return (p & 1u) != 0; }

  // true when node's key < k (sentinels compare as -inf / +inf).
  bool node_less(const Node* n, const K& k) const {
    if (n->sentinel == Sentinel::kHead) return true;
    if (n->sentinel == Sentinel::kTail) return false;
    return less_(n->key, k);
  }

  bool node_equals(const Node* n, const K& k) const {
    return n->sentinel == Sentinel::kNone && !less_(n->key, k) &&
           !less_(k, n->key);
  }

  // HS find: locate preds/succs at every level, physically unlinking any
  // marked node met on the path; restarts whenever a snip CAS fails, so on
  // return the search path is clean at every level.
  bool find(const K& k, Node** preds, Node** succs,
            [[maybe_unused]] const ebr::Guard& g) const
      JIFFY_REQUIRES_GUARD(g) {
  retry:
    Node* pred = head_;
    for (int l = kMaxLevel - 1; l >= 0; --l) {
      Node* curr = unmark(
          pred->next[l].load(std::memory_order_seq_cst));  // pairs: cslm-next
      for (;;) {
        std::uintptr_t nx =
            curr->next[l].load(std::memory_order_seq_cst);  // pairs: cslm-next
        while (marked(nx)) {  // curr is deleted: snip it
          std::uintptr_t e = pack(curr, false);
          if (!pred->next[l].compare_exchange_strong(
                  e, pack(unmark(nx), false),
                  std::memory_order_seq_cst))  // pairs: cslm-next
            goto retry;
          curr = unmark(nx);
          nx = curr->next[l].load(std::memory_order_seq_cst);  // pairs: cslm-next
        }
        if (node_less(curr, k)) {
          pred = curr;
          curr = unmark(nx);
        } else {
          break;
        }
      }
      preds[l] = pred;
      succs[l] = curr;
    }
    return node_equals(succs[0], k);
  }

  static int random_level() {
    thread_local std::uint64_t state =
        splitmix64(reinterpret_cast<std::uintptr_t>(&state) ^ 0xC51Au);
    state = splitmix64(state);
    int h = 0;
    std::uint64_t x = state;
    while ((x & 3) == 0 && h < kMaxLevel - 1) {
      ++h;
      x >>= 2;
    }
    return h;
  }

  Less less_{};
  mutable std::atomic<std::int64_t> size_{0};
  Node* head_;
  Node* tail_;
};

}  // namespace jiffy::baselines
