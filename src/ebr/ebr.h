// Epoch-based reclamation (EBR) for lock-free readers.
//
// Classic three-epoch scheme: threads pin the global epoch while inside a
// Guard; retired objects are tagged with the epoch they were retired in and
// freed once the global epoch has advanced twice past it (no pinned thread
// can still hold a reference by then). Thread records are registered lazily,
// recycled after thread exit, and never removed, so registration is
// wait-free after the first call and safe for the short-lived worker threads
// the bench harness spawns per cell.
//
// Memory-order note: guard entry publishes the pinned epoch with seq_cst and
// epoch bookkeeping is seq_cst throughout. Jiffy's snapshot-safety argument
// (DESIGN.md §5) leans on this total order: a reader whose guard began after
// an object was retired is guaranteed to observe every store the retiring
// thread made before the retire (in particular version stamps), so it never
// walks a revision chain into memory it is not protecting. Guard exit needs
// only a release: a grace-period scan that sees the thread idle must also
// see every read its guard made, and the seq_cst entry of the thread's next
// guard restores the total order. Every atomic site below carries a
// `pairs:`/`relaxed:` annotation checked by tools/atomic_audit.py against
// the DESIGN.md §10 catalog.
//
// Beyond guards, this header tracks *versions*: a VersionTicket registers
// the TSC version a reader is pinned at (a snapshot, a cursor, one scan),
// and min_active_version() folds the registry into the oldest-active
// watermark the purge pass (DESIGN.md §9) compares death versions against.
// A ticket publishes the sentinel 0 ("reserving") before its owner reads
// the clock: a scanner that misses the ticket therefore ran before that
// clock read in the seq_cst order, so every death version it collected was
// stamped earlier still — globally monotonic TSC then guarantees the missed
// reader's version lies above them all.
//
// Static analysis (DESIGN.md §10): Guard and VersionTicket are Clang
// thread-safety capabilities. Internal entry points of the engine take them
// as annotated reference parameters; holding is established by
// assert_held()/assert_pinned() immediately after construction (or behind a
// class invariant that owns a live member token).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/analysis.h"
#include "common/prefetch.h"
#include "common/striped_counter.h"  // CachePadded, kCacheLineBytes
#include "obs/counters.h"
#include "obs/trace.h"

namespace jiffy::ebr {

namespace detail {

inline constexpr std::uint64_t kIdleEpoch = ~0ull;

// Pressure-valve cadence: with the epoch stuck and the limbo bucket past
// kLimboPressure items, retire_fn yields once per kValvePeriod retires. The
// cadence bounds the steady-state hoard at roughly 3x the period per thread
// (one period of growth per scheduler round, freed two epochs later) while
// keeping scheduling slices long enough that the cache-warmth lost to each
// context switch stays amortized. kLimboPressure keeps the valve dormant in
// same-epoch steady state, where collect() empties buckets near 128 items.
inline constexpr std::size_t kLimboPressure = 96;
inline constexpr std::size_t kValvePeriod = 64;

struct Retired {
  void* ptr;
  void (*deleter)(void*);
};

// Cacheline-aligned: each record's pinned and nest fields are written on
// guard entry/exit by exactly one thread; alignment keeps two records
// (small enough for the allocator to co-locate) from false-sharing each
// other's per-op stores, and keeps a record's hot fields off the line of
// whatever the allocator places after it. See DESIGN.md §14.
struct alignas(kCacheLineBytes) ThreadRec {
  // Epoch this thread is pinned at; kIdleEpoch when not inside a guard.
  std::atomic<std::uint64_t> pinned{kIdleEpoch};
  std::atomic<bool> in_use{true};
  ThreadRec* next = nullptr;  // immutable after registration
  // Guard nesting depth and retired objects bucketed by (epoch % 3). Only
  // the owning thread touches these, and ownership hand-off goes through the
  // in_use acquire/release.
  int nest = 0;
  std::vector<Retired> limbo[3];
  std::uint64_t limbo_epoch[3] = {0, 0, 0};
  std::size_t retires_since_scan = 0;
  std::size_t retires_since_valve = 0;  // see the pressure valve in retire_fn
};

struct Global {
  // Padded apart: epoch is CASed by every try_advance while head is a
  // read-mostly registry root loaded by every epoch scan — sharing a line
  // would make the advance CAS invalidate every scanner's cached head.
  CachePadded<std::atomic<std::uint64_t>> epoch_pad;
  CachePadded<std::atomic<ThreadRec*>> head_pad;
  std::atomic<std::uint64_t>& epoch = epoch_pad.value;
  std::atomic<ThreadRec*>& head = head_pad.value;
  Global() {
    // relaxed: constructed once (function-local static) before any sharing.
    epoch.store(1, std::memory_order_relaxed);
  }
};

inline Global& global() {
  static Global g;
  return g;
}

inline void free_bucket(std::vector<Retired>& b) {
  // Drains run in bursts (hundreds of objects after an oversubscription
  // stall, DESIGN.md §14.3) and every deleter's first touch of its object is
  // a dependent cold miss. Prefetch a few objects ahead so the misses
  // overlap the deleter work instead of serializing behind it.
  constexpr std::size_t kAhead = 8;
  const std::size_t n = b.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) prefetch_ro(b[i + kAhead].ptr);
    b[i].deleter(b[i].ptr);
  }
  b.clear();
}

// Advance the global epoch if every pinned thread has caught up with it.
// Returns the (possibly unchanged) current epoch.
inline std::uint64_t try_advance() {
  Global& g = global();
  const std::uint64_t e =
      g.epoch.load(std::memory_order_seq_cst);  // pairs: ebr-epoch
  for (ThreadRec* r =
           g.head.load(std::memory_order_acquire);  // pairs: registry-link
       r; r = r->next) {
    const std::uint64_t pinned =
        r->pinned.load(std::memory_order_seq_cst);  // pairs: ebr-pin
    if (pinned != kIdleEpoch && pinned != e) return e;
  }
  std::uint64_t expected = e;
  if (g.epoch.compare_exchange_strong(expected, e + 1,
                                      std::memory_order_seq_cst))  // pairs: ebr-epoch
    obs::trace_epoch(e + 1);
  return g.epoch.load(std::memory_order_seq_cst);  // pairs: ebr-epoch
}

inline ThreadRec* acquire_rec() {
  Global& g = global();
  for (ThreadRec* r =
           g.head.load(std::memory_order_acquire);  // pairs: registry-link
       r; r = r->next) {
    bool expected = false;
    // relaxed: racy pre-check only; the CAS below is the synchronizing op.
    if (!r->in_use.load(std::memory_order_relaxed) &&
        r->in_use.compare_exchange_strong(
            expected, true,
            std::memory_order_acq_rel))  // pairs: ebr-rec-recycle
      return r;
  }
  auto* r = new ThreadRec;
  ThreadRec* head = g.head.load(std::memory_order_acquire);  // pairs: registry-link
  do {
    r->next = head;
  } while (!g.head.compare_exchange_weak(
      head, r, std::memory_order_acq_rel,
      std::memory_order_acquire));  // pairs: registry-link
  return r;
}

struct ThreadHandle {
  ThreadRec* rec = nullptr;

  ThreadRec* get() {
    if (!rec) rec = acquire_rec();
    return rec;
  }

  ~ThreadHandle() {
    if (rec)
      rec->in_use.store(false,
                        std::memory_order_release);  // pairs: ebr-rec-recycle
  }
};

inline ThreadRec* my_rec() {
  thread_local ThreadHandle handle;
  return handle.get();
}

// Flush any bucket whose contents are two epochs stale.
inline void collect(ThreadRec* rec, std::uint64_t now) {
  for (int i = 0; i < 3; ++i) {
    if (!rec->limbo[i].empty() && rec->limbo_epoch[i] + 2 <= now)
      free_bucket(rec->limbo[i]);
  }
}

}  // namespace detail

// RAII epoch pin. Nestable; only the outermost guard publishes. A Guard is a
// Clang thread-safety capability (DESIGN.md §10): functions that dereference
// node/revision memory take `const Guard&` annotated JIFFY_REQUIRES_GUARD.
class JIFFY_CAPABILITY("ebr_guard") Guard {
 public:
  Guard() : rec_(detail::my_rec()) {
    if (rec_->nest++ == 0) {
      detail::Global& g = detail::global();
      // Publish the pin, then re-check: the epoch may have advanced between
      // the read and the store, in which case re-pin at the newer epoch.
      std::uint64_t e =
          g.epoch.load(std::memory_order_seq_cst);  // pairs: ebr-epoch
      for (;;) {
        rec_->pinned.store(e, std::memory_order_seq_cst);  // pairs: ebr-pin
        const std::uint64_t now =
            g.epoch.load(std::memory_order_seq_cst);  // pairs: ebr-epoch
        if (now == e) break;
        e = now;
      }
    }
  }

  ~Guard() {
    // Release, not seq_cst: the unpin has to order only this guard's reads
    // before the grace-period scan that observes it (see the header note).
    if (--rec_->nest == 0)
      rec_->pinned.store(detail::kIdleEpoch,
                         std::memory_order_release);  // pairs: ebr-pin
  }

  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

  // Tells the thread-safety analysis this guard is live. Call immediately
  // after construction, or from a method whose class invariant owns a live
  // member guard (Snapshot, SnapCursor). The constructor is the ground
  // truth; this is the trust boundary of the ASSERT_CAPABILITY pattern.
  void assert_held() const JIFFY_ASSERT_CAPABILITY(this) {}

 private:
  detail::ThreadRec* rec_;
};

// Hand `p` to the collector with an explicit deleter; it runs once no guard
// can reach the object. The deleter must be self-contained (it may run long
// after the retiring scope is gone).
inline void retire_fn(void* p, void (*deleter)(void*)) {
  using namespace detail;
  ThreadRec* rec = my_rec();
  Global& g = global();
  std::uint64_t e = g.epoch.load(std::memory_order_seq_cst);  // pairs: ebr-epoch
  auto& bucket = rec->limbo[e % 3];
  // A bucket is reused every third epoch; whatever is still in it is at
  // least three epochs old and safe to free now.
  if (!bucket.empty() && rec->limbo_epoch[e % 3] != e) free_bucket(bucket);
  rec->limbo_epoch[e % 3] = e;
  bucket.push_back({p, deleter});
  JIFFY_COUNT_MAX_LIMBO(static_cast<std::int64_t>(bucket.size()));

  if (++rec->retires_since_scan >= 64) {
    rec->retires_since_scan = 0;
    std::uint64_t now = try_advance();
    // Reclamation pressure valve (DESIGN.md §14): on an oversubscribed core
    // a descheduled peer is almost always pinned *inside* a guard, so the
    // epoch cannot advance for this thread's entire scheduling quantum and
    // its limbo would hoard every revision it retires — megabytes that go
    // cold in cache while each fresh revision allocation misses instead of
    // reusing the just-freed hot chunk (measured: the bucket peaks at ~64
    // objects with one thread but at thousands once threads > cores). Once
    // the bucket passes the threshold with the epoch stuck, donate the rest
    // of the quantum: the peer finishes its operation, re-pins at the
    // current epoch, and the retried advance lets collect() free the hoard.
    // With threads <= cores the epoch advances on its own and the valve
    // stays dormant; it is a scheduling hint only, never a wait, so
    // lock-freedom is unaffected.
    rec->retires_since_valve += 64;
    if (bucket.size() >= kLimboPressure && now == e &&
        rec->retires_since_valve >= kValvePeriod) {
      rec->retires_since_valve = 0;
      for (int tries = 0; tries < 8 && now == e; ++tries) {
        JIFFY_COUNT(valve_donations);
        std::this_thread::yield();
        now = try_advance();
      }
    }
    collect(rec, now);
  }
}

// Hand `p` to the collector; it is deleted once no guard can reach it.
template <class T>
void retire(T* p) {
  retire_fn(p, [](void* q) { delete static_cast<T*>(q); });
}

// Current global epoch. A guard active now is pinned at (at most) this
// value, so once the epoch has advanced by 2 past a reading, every guard
// that was active at that reading has ended — the drain condition the purge
// pass uses between unlinking and retiring shells.
inline std::uint64_t current_epoch() {
  return detail::global().epoch.load(
      std::memory_order_seq_cst);  // pairs: ebr-epoch
}

// Best-effort drain for quiescent moments (tests, shutdown): repeatedly
// advance and collect this thread's buckets. Objects parked on other
// threads' records stay until those threads retire again.
inline void quiesce() {
  using namespace detail;
  ThreadRec* rec = my_rec();
  for (int i = 0; i < 4; ++i) collect(rec, try_advance());
}

// ---- oldest-active-version tracking ---------------------------------------

namespace detail {

inline constexpr std::uint64_t kIdleVersion = ~0ull;

// Same lock-free registration/recycling pattern as ThreadRec, but per
// *ticket*, not per thread: one thread may hold several (a snapshot plus
// the cursors it handed out).
// Cacheline-aligned for the same reason as ThreadRec: a slot's v is stored
// on every ticket publish; unaligned, the 24-byte slots pack two-plus to a
// line and concurrent ticket holders would ping-pong it.
struct alignas(kCacheLineBytes) VersionSlot {
  std::atomic<std::uint64_t> v{kIdleVersion};
  std::atomic<bool> in_use{false};
  VersionSlot* next = nullptr;  // immutable after registration
};

struct VersionRegistry {
  std::atomic<VersionSlot*> head{nullptr};
};

inline VersionRegistry& version_registry() {
  static VersionRegistry r;
  return r;
}

inline VersionSlot* acquire_version_slot() {
  VersionRegistry& reg = version_registry();
  for (VersionSlot* s =
           reg.head.load(std::memory_order_acquire);  // pairs: registry-link
       s; s = s->next) {
    bool expected = false;
    // relaxed: racy pre-check only; the CAS below is the synchronizing op.
    if (!s->in_use.load(std::memory_order_relaxed) &&
        s->in_use.compare_exchange_strong(
            expected, true,
            std::memory_order_acq_rel))  // pairs: ebr-rec-recycle
      return s;
  }
  auto* s = new VersionSlot;
  // relaxed: the slot is thread-private until the head CAS publishes it.
  s->in_use.store(true, std::memory_order_relaxed);
  VersionSlot* head =
      reg.head.load(std::memory_order_acquire);  // pairs: registry-link
  do {
    s->next = head;
  } while (!reg.head.compare_exchange_weak(
      head, s, std::memory_order_acq_rel,
      std::memory_order_acquire));  // pairs: registry-link
  return s;
}

}  // namespace detail

// Registers a reader's pinned version for the lifetime of the ticket.
// Usage rule (the whole safety argument hangs on it): construct the ticket
// BEFORE reading the clock for the version it will publish — construction
// publishes the sentinel 0, which blocks the purge watermark until the real
// version lands. publish() may be called again (cursors that get re-pointed
// republish). A ticket is a Clang thread-safety capability: versioned-read
// entry points take `const VersionTicket&` annotated JIFFY_REQUIRES_TICKET.
class JIFFY_CAPABILITY("version_ticket") VersionTicket {
 public:
  VersionTicket() : slot_(detail::acquire_version_slot()) {
    slot_->v.store(0, std::memory_order_seq_cst);  // pairs: version-pin
  }

  ~VersionTicket() {
    slot_->v.store(detail::kIdleVersion,
                   std::memory_order_seq_cst);  // pairs: version-pin
    slot_->in_use.store(false,
                        std::memory_order_release);  // pairs: ebr-rec-recycle
  }

  VersionTicket(const VersionTicket&) = delete;
  VersionTicket& operator=(const VersionTicket&) = delete;

  void publish(std::uint64_t v) {
    slot_->v.store(v, std::memory_order_seq_cst);  // pairs: version-pin
  }

  // Tells the thread-safety analysis this ticket is live (see
  // Guard::assert_held; same trust boundary, same placement rules).
  void assert_pinned() const JIFFY_ASSERT_CAPABILITY(this) {}

 private:
  detail::VersionSlot* slot_;
};

// Oldest version any active ticket is pinned at. Returns ~0 when none are
// (everything stamped is then older than every reader), and 0 while some
// ticket is still mid-registration (the caller should treat that as "no
// reclamation this round"). A recycled slot can transiently show its old
// idle value between the in_use CAS and the new owner's sentinel store;
// ignoring it then is the "missed ticket" case the header comment argues
// safe: the owner's clock read happens after its sentinel store, so its
// version lands above every death version a concurrent scan collected.
inline std::uint64_t min_active_version() {
  std::uint64_t m = detail::kIdleVersion;
  for (detail::VersionSlot* s = detail::version_registry().head.load(
           std::memory_order_acquire);  // pairs: registry-link
       s; s = s->next) {
    // pairs: ebr-rec-recycle (seq_cst keeps the in_use/v reads in the same
    // total order as the ticket's sentinel-then-clock protocol)
    if (!s->in_use.load(std::memory_order_seq_cst)) continue;
    const std::uint64_t v =
        s->v.load(std::memory_order_seq_cst);  // pairs: version-pin
    if (v < m) m = v;
  }
  return m;
}

}  // namespace jiffy::ebr
