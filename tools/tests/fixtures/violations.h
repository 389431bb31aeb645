// Audit fixture: every numbered site below is a known violation, and
// run_jiffylint_fixtures.py asserts the audit pass reports exactly these
// findings. Scanned by `tools/lint.py --passes audit`; never compiled. The
// comments here deliberately avoid the literal justification keywords so
// they cannot accidentally satisfy the audit.
#pragma once

#include <atomic>

namespace fixture {

struct Violations {
  std::atomic<int> x{0};
  std::atomic<int> counter{0};

  // Site 1 (implicit-order): CAS relying on the seq_cst default.
  bool default_order_cas(int& e) { return x.compare_exchange_strong(e, 1); }

  // Site 2 (unjustified use of the weakest order, no note attached).
  int weak_load() { return x.load(std::memory_order_relaxed); }

  // Site 3 (release store that names no publication edge).
  void untagged_release() { x.store(1, std::memory_order_release); }

  // Site 4 (tag not present in the fixture catalog).
  void bogus_tag() {
    x.store(2, std::memory_order_release);  // pairs: fx-no-such-tag
  }

  // Site 5 (fx-orphan has no acquire observer anywhere in the fixtures).
  void orphan() {
    x.store(3, std::memory_order_release);  // pairs: fx-orphan
  }

  // Site 6 (fx-acquire-only has no release publisher in the fixtures).
  int acquire_only() {
    return x.load(std::memory_order_acquire);  // pairs: fx-acquire-only
  }

  // Site 7 (operator-form access, seq_cst by default).
  void bump() { counter++; }

  // Site 8 (operator-form access through a reference to an atomic).
  std::atomic<int>& alias = counter;
  void reset() { alias = 0; }

  // Site 9 (free-function access, seq_cst by default).
  int free_load() { return std::atomic_load(&x); }

  // Site 10 (free-function access naming an order the audit cannot see).
  void free_store() {
    std::atomic_store_explicit(&x, 4, std::memory_order_release);
  }
};

}  // namespace fixture
