// Audit fixture: a fully conforming file — run_jiffylint_fixtures.py asserts
// the audit pass reports ZERO findings for it. Scanned by `tools/lint.py
// --passes audit` against tools/tests/fixtures_model.json; never compiled.
#pragma once

#include <atomic>

namespace fixture {

struct Clean {
  std::atomic<int> data{0};
  std::atomic<bool> ready{false};

  void publish(int v) {
    // relaxed: the payload is still private; the ready store publishes it.
    data.store(v, std::memory_order_relaxed);
    ready.store(true, std::memory_order_release);  // pairs: fx-pair
  }

  int consume() {
    while (!ready.load(std::memory_order_acquire)) {  // pairs: fx-pair
    }
    // relaxed: ordered by the fx-pair acquire above.
    return data.load(std::memory_order_relaxed);
  }
};

}  // namespace fixture
