// Per-thread binary event-trace ring for protocol forensics (ISSUE 10,
// DESIGN.md §15).
//
// Each tracing thread owns a fixed-size ring of 32-byte timestamped events:
// schedule-point hits, ebr retire calls (pointer + allocation size + unlink
// tag), and global epoch advances. The ring is the allocation-order
// -deterministic "logged retire stream" the ROADMAP names as the next lever
// on the seed heap corruption: with tracing on, a crash leaves the last N
// protocol events of every thread in memory, and a clean exit dumps them to
// a binary file tools/traceview.py decodes.
//
// Cost model:
//   * Compiled out entirely under JIFFY_OBS=0 (hooks are empty inlines).
//   * Compiled in but DISABLED (the default): each hook is one relaxed load
//     of a global flag plus an untaken branch.
//   * Enabled (trace_enable(true), or the harness/tests' --trace flag /
//     JIFFY_TRACE env): one TSC read plus one 32-byte store into a ring only
//     the owning thread writes. No shared-cacheline traffic per event.
//
// Rings live in a Registry (common/registry.h), like the EBR thread
// records: registered once and recycled at thread exit, so the footprint is
// bounded by the peak thread count even though the bench harness spawns
// fresh workers per cell. Ring contents (head, events) are plain data
// written by the owner only; hand-off to a recycling owner goes through the
// registry's in_use edge, and trace_dump() must only run once tracing
// threads are joined (the join provides its ordering) — the stress/test
// drivers dump after join.
//
// Binary format (little-endian, tools/traceview.py):
//   header: char magic[8] = "JFTRACE1", u32 version, u32 event_size,
//           u64 event_count, u64 ticks_per_sec_hint (0 = unknown)
//   events: event_count records of TraceEvent (32 bytes each), grouped by
//           ring, oldest-first within a ring; ts orders within one tid only.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/registry.h"
#include "common/striped_counter.h"  // kCacheLineBytes, thread_shard_id
#include "tsc/clock.h"

#ifndef JIFFY_OBS
#define JIFFY_OBS 1
#endif

namespace jiffy::obs {

// Event kinds and retire sub-tags. Values are part of the dump format —
// append-only; tools/traceview.py mirrors both tables.
enum class TraceKind : std::uint16_t {
  kSchedPoint = 1,  // tag = sched::Point index, a = b = 0
  kRetire = 2,      // a = object pointer, b = allocation bytes, tag below
  kEpochAdvance = 3  // a = new epoch value
};

enum class RetireTag : std::uint16_t {
  kRevUnref = 1,           // revision refcount hit zero -> ebr::retire_fn
  kRevUnrefImmediate = 2,  // unpublished revision disposed without EBR
  kPurgeShell = 3          // purge pass retiring an unlinked node shell
};

struct TraceEvent {
  std::uint64_t ts;   // TscClock ticks (monotone per thread)
  std::uint64_t a;    // kind-specific (pointer / epoch)
  std::uint64_t b;    // kind-specific (bytes)
  std::uint16_t kind;
  std::uint16_t tag;
  std::uint32_t tid;  // process-global dense thread id (thread_shard_id)
};
static_assert(sizeof(TraceEvent) == 32, "dump format is 32-byte records");

#if JIFFY_OBS

namespace trace_detail {

// Ring capacity in events; env JIFFY_TRACE_EVENTS overrides (clamped to
// [64, 4M]). Read once at first ring construction — set the env before the
// first traced event (tests setenv() up front).
inline std::size_t ring_capacity() {
  static const std::size_t cap = [] {
    std::size_t n = 16384;  // 512 KiB per thread at 32 B/event
    if (const char* s = std::getenv("JIFFY_TRACE_EVENTS")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(s, &end, 10);
      if (end != s && v != 0) n = static_cast<std::size_t>(v);
    }
    if (n < 64) n = 64;
    if (n > (std::size_t{1} << 22)) n = std::size_t{1} << 22;
    return n;
  }();
  return cap;
}

// Cacheline-aligned for the same reason as ebr::ThreadRec: head is written
// on every traced event by exactly one thread; alignment keeps co-located
// rings from false-sharing it.
struct alignas(kCacheLineBytes) TraceRing {
  std::atomic<bool> in_use{false};
  TraceRing* next = nullptr;  // immutable after registration
  std::uint64_t head = 0;     // events ever appended (owner-only, plain)
  std::vector<TraceEvent> ev;
  TraceRing() : ev(ring_capacity()) {}
};

struct TraceGlobal {
  // Padded apart: enabled is loaded by every hook on every engine op while
  // the registry head is touched only at thread birth/death and dump time.
  CachePadded<std::atomic<int>> enabled_pad;
  Registry<TraceRing> rings;
  std::atomic<int>& enabled = enabled_pad.value;
};

inline TraceGlobal& global() {
  static TraceGlobal g;
  return g;
}

inline void emit(TraceKind kind, std::uint16_t tag, std::uint64_t a,
                 std::uint64_t b) {
  TraceRing* r = global().rings.mine();
  TraceEvent& e = r->ev[r->head % r->ev.size()];
  e.ts = TscClock{}.read();
  e.a = a;
  e.b = b;
  e.kind = static_cast<std::uint16_t>(kind);
  e.tag = tag;
  e.tid = jiffy::detail::thread_shard_id();
  ++r->head;
}

}  // namespace trace_detail

inline bool trace_enabled() {
  // relaxed: advisory gate. Threads started after trace_enable(true) see it
  // via thread creation's ordering; a stale read at the flip merely drops or
  // adds a borderline event — the ring is a diagnostic, not publication.
  return trace_detail::global().enabled.load(std::memory_order_relaxed) != 0;
}

inline void trace_enable(bool on) {
  // relaxed: advisory gate (see trace_enabled).
  trace_detail::global().enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

inline void trace_sched(unsigned point) {
  if (trace_enabled())
    trace_detail::emit(TraceKind::kSchedPoint,
                       static_cast<std::uint16_t>(point), 0, 0);
}

inline void trace_retire(const void* p, std::uint64_t bytes, RetireTag tag) {
  if (trace_enabled())
    trace_detail::emit(TraceKind::kRetire, static_cast<std::uint16_t>(tag),
                       reinterpret_cast<std::uint64_t>(p), bytes);
}

inline void trace_epoch(std::uint64_t new_epoch) {
  if (trace_enabled())
    trace_detail::emit(TraceKind::kEpochAdvance, 0, new_epoch, 0);
}

// Dump every ring's retained events to `path`. Call only after the traced
// threads are joined (the join orders their plain ring writes); rings of
// exited threads are ordered by the in_use release/acquire edge below.
// Returns the number of events written, 0 on open failure (errno is left
// set) or when nothing was traced.
inline std::uint64_t trace_dump(const char* path) {
  using trace_detail::TraceRing;
  TraceRing* head = trace_detail::global().rings.first();
  std::uint64_t total = 0;
  for (TraceRing* r = head; r; r = r->next) {
    // pairs: registry-recycle (value unused: the acquire synchronizes with
    // an exited owner's release so the plain head/ev reads below are ordered)
    (void)r->in_use.load(std::memory_order_acquire);
    total += r->head < r->ev.size() ? r->head : r->ev.size();
  }
  std::FILE* f = std::fopen(path, "wb");
  if (!f) return 0;
  const char magic[8] = {'J', 'F', 'T', 'R', 'A', 'C', 'E', '1'};
  const std::uint32_t version = 1;
  const std::uint32_t event_size = sizeof(TraceEvent);
  const std::uint64_t ticks_hint = 0;
  std::fwrite(magic, 1, 8, f);
  std::fwrite(&version, sizeof version, 1, f);
  std::fwrite(&event_size, sizeof event_size, 1, f);
  std::fwrite(&total, sizeof total, 1, f);
  std::fwrite(&ticks_hint, sizeof ticks_hint, 1, f);
  for (TraceRing* r = head; r; r = r->next) {
    const std::size_t cap = r->ev.size();
    if (r->head <= cap) {
      std::fwrite(r->ev.data(), sizeof(TraceEvent), r->head, f);
    } else {
      const std::size_t split = r->head % cap;  // oldest retained event
      std::fwrite(r->ev.data() + split, sizeof(TraceEvent), cap - split, f);
      std::fwrite(r->ev.data(), sizeof(TraceEvent), split, f);
    }
  }
  std::fclose(f);
  return total;
}

#else  // !JIFFY_OBS

inline bool trace_enabled() { return false; }
inline void trace_enable(bool) {}
inline void trace_sched(unsigned) {}
inline void trace_retire(const void*, std::uint64_t, RetireTag) {}
inline void trace_epoch(std::uint64_t) {}
inline std::uint64_t trace_dump(const char*) { return 0; }

#endif  // JIFFY_OBS

}  // namespace jiffy::obs
