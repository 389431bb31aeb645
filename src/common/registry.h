// A lock-free registry of owned records (DESIGN.md §10): the EBR thread
// records, the version-ticket slots and the trace rings. A record is linked
// once onto a list that only grows, and recycled through its in_use flag
// once its owner releases it, so the footprint is bounded by the peak number
// of owners however many short-lived threads come and go.
//
// A Rec provides `std::atomic<bool> in_use` and `Rec* next` (immutable once
// linked). Two edges of tools/memory_model.json carry it: registry-link (the
// head CAS publishes a constructed record to every walker of the list) and
// registry-recycle (an owner's release of in_use hands the record's plain
// state to the next owner's adopting CAS, or to a walker's in_use load).
#pragma once

#include <atomic>

#include "common/striped_counter.h"  // CachePadded

namespace jiffy {

template <class Rec>
class Registry {
 public:
  // The newest record; follow Rec::next. Records are never unlinked.
  Rec* first() const {
    return head_.value.load(std::memory_order_acquire);  // pairs: registry-link
  }

  // A record the caller now owns: a released one if any, else a new one.
  Rec* acquire() {
    for (Rec* r = first(); r; r = r->next) {
      bool expected = false;
      // relaxed: racy pre-check only; the CAS below is the synchronizing op.
      if (!r->in_use.load(std::memory_order_relaxed) &&
          r->in_use.compare_exchange_strong(
              expected, true,
              std::memory_order_acq_rel))  // pairs: registry-recycle
        return r;
    }
    auto* r = new Rec;
    // relaxed: the record is thread-private until the head CAS publishes it.
    r->in_use.store(true, std::memory_order_relaxed);
    Rec* head = first();
    do {
      r->next = head;
    } while (!head_.value.compare_exchange_weak(
        head, r, std::memory_order_acq_rel,
        std::memory_order_acquire));  // pairs: registry-link
    return r;
  }

  // Hand r back for recycling, after the owner's last write to it.
  static void release(Rec* r) {
    r->in_use.store(false, std::memory_order_release);  // pairs: registry-recycle
  }

  // The calling thread's record, acquired on first use and released at
  // thread exit. One per Rec type, so a Rec type has one registry.
  Rec* mine() {
    struct Owned {
      Rec* rec = nullptr;
      ~Owned() { if (rec) release(rec); }
    };
    thread_local Owned owned;
    if (!owned.rec) owned.rec = acquire();
    return owned.rec;
  }

 private:
  // A line of its own: a registry sits beside an atomic touched on every
  // operation (the EBR epoch, the trace flag), its head only by scans.
  CachePadded<std::atomic<Rec*>> head_;
};

}  // namespace jiffy
