// Thread-local LIFO cache of raw allocation blocks for the revision churn
// path (DESIGN.md §14.3).
//
// Every update builds a new revision and retires the old one, so the engine's
// dominant malloc/free traffic is same-sized blocks cycling at op rate. Under
// EBR the free happens two epochs after the allocation — long enough, on an
// oversubscribed box, for the allocator to have migrated the chunk out of its
// fast bins (and, cross-thread, between arenas), so each rebuild touches cold
// memory. Recycling blocks through a small per-thread LIFO hands the *most
// recently freed* block straight back to the next build: no allocator
// metadata work, no arena hops, and the best chance the lines are still warm.
//
// Size classes are a 32-byte grid fitted to glibc's chunks, which are
// 16-byte aligned and carry an 8-byte size word: class c holds blocks of
// 32(c + 1) - 8 bytes, so a block fills its chunk and wastes less than one
// granule on the caller's request. Blocks above 16 KB - 8 bytes bypass the
// cache entirely. The cache holds at most kMaxCachedBytes per thread and frees
// everything at thread exit. Under ASan/TSan the cache compiles to the plain
// allocator so use-after-free and race detection keep their precision (a
// recycled block would otherwise hide UAF from ASan's quarantine).
#pragma once

#include <cstddef>
#include <new>

#include "common/prefetch.h"
#include "obs/counters.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define JIFFY_BLOCK_CACHE_ENABLED 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define JIFFY_BLOCK_CACHE_ENABLED 0
#else
#define JIFFY_BLOCK_CACHE_ENABLED 1
#endif
#else
#define JIFFY_BLOCK_CACHE_ENABLED 1
#endif

namespace jiffy {

class ThreadBlockCache {
 public:
  static constexpr std::size_t kGranularity = 32;
  static constexpr std::size_t kChunkHeader = 8;  // the allocator's size word
  static constexpr std::size_t kMaxBlockBytes = 16 * 1024 - kChunkHeader;
  static constexpr std::size_t kClasses =
      (kMaxBlockBytes + kChunkHeader) / kGranularity;
  static constexpr std::size_t kMaxCachedBytes = 256 * 1024;

  // Size the allocation will actually get: rounded up to its class when the
  // cache may serve it, untouched when it bypasses. Idempotent, and callers
  // must free with the same value they allocated with.
  static std::size_t usable_size(std::size_t bytes) {
    if (!JIFFY_BLOCK_CACHE_ENABLED || bytes > kMaxBlockBytes) return bytes;
    return ((bytes + kChunkHeader + kGranularity - 1) & ~(kGranularity - 1)) -
           kChunkHeader;
  }

  // `bytes` must come from usable_size().
  static void* allocate(std::size_t bytes) {
    if (JIFFY_BLOCK_CACHE_ENABLED && bytes <= kMaxBlockBytes) {
      ThreadBlockCache& c = mine();
      const std::size_t idx = class_of(bytes);
      if (FreeBlock* b = c.heads_[idx]) {
        c.heads_[idx] = b->next;
        c.cached_bytes_ -= bytes;
        // Foresight for the *next* build from this class: blocks that sat in
        // EBR limbo for a grace period come back cold, so start pulling the
        // successor now — the caller's whole build runs while it arrives,
        // and the write-intent hint skips the RFO when it is finally popped.
        if (c.heads_[idx])
          prefetch_w_block(c.heads_[idx],
                           static_cast<unsigned>(bytes < 512 ? bytes : 512));
        JIFFY_COUNT(block_cache_hit);
        return b;
      }
      JIFFY_COUNT(block_cache_miss);  // cacheable size, empty class list
    }
    return ::operator new(bytes);
  }

  // `bytes` must be the usable_size() the block was allocated with.
  static void deallocate(void* p, std::size_t bytes) {
    if (JIFFY_BLOCK_CACHE_ENABLED && bytes <= kMaxBlockBytes) {
      ThreadBlockCache& c = mine();
      if (c.cached_bytes_ + bytes <= kMaxCachedBytes) {
        const std::size_t idx = class_of(bytes);
        auto* b = static_cast<FreeBlock*>(p);
        b->next = c.heads_[idx];
        c.heads_[idx] = b;
        c.cached_bytes_ += bytes;
        return;
      }
    }
    ::operator delete(p);
  }

  // Bytes parked in the calling thread's cache.
  static std::size_t cached_bytes() { return mine().cached_bytes_; }

  ~ThreadBlockCache() {
    for (FreeBlock*& head : heads_) {
      while (head) {
        FreeBlock* b = head;
        head = b->next;
        ::operator delete(b);
      }
    }
    cached_bytes_ = 0;
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  static_assert(kGranularity - kChunkHeader >= sizeof(FreeBlock),
                "free-list link must fit in the smallest class");

  // Class of a usable_size() value: 24 -> 0, 56 -> 1, ..., kMaxBlockBytes
  // -> kClasses - 1.
  static std::size_t class_of(std::size_t bytes) {
    return (bytes + kChunkHeader) / kGranularity - 1;
  }

  static ThreadBlockCache& mine() {
    thread_local ThreadBlockCache cache;
    return cache;
  }

  FreeBlock* heads_[kClasses] = {};
  std::size_t cached_bytes_ = 0;
};

}  // namespace jiffy
