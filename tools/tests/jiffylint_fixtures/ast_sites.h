// AST-walk fixture: ast_dump.json is a hand-written `clang++ -Xclang
// -ast-dump=json` tree for this file, with clang's elided file/line fields.
// run_jiffylint_fixtures.py asserts the sites jiffylint's AST walk collects
// from it, and that the cross-check against the text scan reports only the
// FX_BUMP line, whose member call the text scan cannot see. Never compiled.
#pragma once

#include <atomic>

#define FX_BUMP(a) a.fetch_add(1, std::memory_order_relaxed)

namespace fixture {

struct AstSites {
  std::atomic<int> x{0};

  void publish(Node* n, const ebr::Guard& g) JIFFY_REQUIRES_GUARD(g) {
    x.store(1, std::memory_order_release);  // pairs: fx-pair
    int e = 1;
    x.compare_exchange_strong(e, 2, std::memory_order_acq_rel,
                              std::memory_order_acquire);
    int seen = x
                   .load(std::memory_order_acquire);  // pairs: fx-pair
    consume(seen, x.load(std::memory_order_acquire),  // pairs: fx-pair
            e);
    FX_BUMP(x);
    ebr::retire_fn(n, &delete_node);  // unlink: fx-unlink
  }
};

}  // namespace fixture
