// Deterministic fault injection for the engine's lock-free protocols.
//
// The engine calls jiffy::sched::point(Point::kX) at every named schedule
// point — the instants between a CAS publishing shared state and the follow-up
// step that makes it complete (stamp, watermark bump, link). In release builds
// (JIFFY_SCHEDULE_POINTS undefined) point() reduces to the obs trace hook —
// one relaxed load of the trace-enable flag (and nothing at all under
// JIFFY_OBS=0); the fault-injection machinery below stays compiled out.
//
// In test builds (-DJIFFY_SCHEDULE_POINTS=1) a FaultPlan installed by the test
// can, at the Nth global hit of a point:
//   - yield    the thread k times (scheduler perturbation),
//   - stall    the thread for a bounded number of microseconds,
//   - block    the thread until FaultPlan::release_all() — this models a
//              *killed* writer: the thread makes no progress while the rest of
//              the map keeps running, and is only released at test teardown so
//              it can be joined.
// A seeded "chaos" mode additionally perturbs a fraction of all hits with
// bounded yields/stalls; the seed is chosen and logged by the test, so a
// failing schedule is reproducible up to OS scheduling.
//
// Threads opt out with enable_this_thread(false) (default: enabled), which
// lets a test aim a block at one designated victim while helper threads run
// through the same code paths unimpeded.
#pragma once

#include <cstdint>

#include "obs/trace.h"

#if defined(JIFFY_SCHEDULE_POINTS) && JIFFY_SCHEDULE_POINTS
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>
#endif

namespace jiffy::sched {

// Catalog of engine schedule points (see DESIGN.md §9 for the windows each
// one sits in). Keep kPointNames in sync.
enum class Point : unsigned {
  kPlainStamp = 0,   // plain revision installed, not yet stamped
  kSplitLink,        // split revisions installed, sibling chain not yet linked
  kSplitStamp,       // split chain linked, cell not yet stamped
  kBatchInstall,     // about to CAS one batch group's revision in
  kBatchWatermark,   // group revision in, watermark not yet advanced
  kBatchStamp,       // all groups in, cell not yet stamped
  kMergeMarker,      // kAbsorbed marker in at victim, union not yet at absorber
  kMergeStamp,       // merge union in, cell not yet stamped
  kPurgeRetire,      // purge pass about to retire an unlinked shell
  kBatchLocate,      // batch watermark read, its group's node not yet located
  kLocateHead,       // locate's level-0 walk chose a node, head not re-read
  kCount
};

inline constexpr const char* kPointNames[] = {
    "plain_stamp",     "split_link",  "split_stamp",
    "batch_install",   "batch_watermark", "batch_stamp",
    "merge_marker",    "merge_stamp", "purge_retire",
    "batch_locate",    "locate_head"};

inline constexpr unsigned kPointCount = static_cast<unsigned>(Point::kCount);

inline const char* name(Point p) {
  return kPointNames[static_cast<unsigned>(p)];
}

#if defined(JIFFY_SCHEDULE_POINTS) && JIFFY_SCHEDULE_POINTS

enum class Action : std::uint8_t { kYield, kStall, kBlock };

struct Trigger {
  Point point;
  std::uint64_t nth;    // fires on the nth global hit of `point` (1-based)
  Action action;
  std::uint32_t param;  // yields: count; stall: microseconds; block: unused
};

class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // -------- test-side configuration (before install()) --------
  void block_at(Point p, std::uint64_t nth) {
    triggers_.push_back({p, nth, Action::kBlock, 0});
  }
  void yield_at(Point p, std::uint64_t nth, std::uint32_t times = 4) {
    triggers_.push_back({p, nth, Action::kYield, times});
  }
  void stall_at(Point p, std::uint64_t nth, std::uint32_t micros) {
    triggers_.push_back({p, nth, Action::kStall, micros});
  }
  // Background noise: roughly `per_mille`/1000 of all hits get a bounded
  // yield or stall chosen by hashing (seed, point, hit index).
  void chaos(std::uint64_t seed, std::uint32_t per_mille) {
    chaos_seed_ = seed;
    chaos_per_mille_ = per_mille;
  }

  // -------- test-side runtime queries / teardown --------
  std::size_t blocked() const {
    return blocked_.load(std::memory_order_acquire);  // pairs: sched-blocked
  }
  void release_all() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  std::uint64_t hits(Point p) const {
    // relaxed: advisory statistic; tests read it after joining the workers.
    return hits_[static_cast<unsigned>(p)].load(std::memory_order_relaxed);
  }

  // -------- global hook --------
  // The plan must outlive every thread that can hit a point, and triggers_
  // must not change after install.
  static void install(FaultPlan* p) {
    current().store(p, std::memory_order_seq_cst);  // pairs: sched-plan
  }
  static void uninstall() {
    current().store(nullptr, std::memory_order_seq_cst);  // pairs: sched-plan
  }
  static FaultPlan* installed() {
    return current().load(std::memory_order_acquire);  // pairs: sched-plan
  }

  // -------- engine side --------
  void on_point(Point p) {
    // relaxed: per-point hit counter; triggers only compare the value this
    // thread observed, and cross-thread totals are advisory.
    const std::uint64_t n =
        hits_[static_cast<unsigned>(p)].fetch_add(1, std::memory_order_relaxed) +
        1;
    for (const Trigger& t : triggers_) {
      if (t.point == p && t.nth == n) act(t.action, t.param);
    }
    if (chaos_per_mille_ != 0) {
      std::uint64_t h = chaos_seed_ ^
                        (static_cast<std::uint64_t>(p) * 0x9e3779b97f4a7c15ull) ^
                        (n * 0xbf58476d1ce4e5b9ull);
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ull;
      h ^= h >> 27;
      h *= 0x94d049bb133111ebull;
      h ^= h >> 31;
      if (h % 1000 < chaos_per_mille_) {
        // 7 in 8 perturbations are yields, 1 in 8 a short stall.
        if ((h >> 32) % 8 != 0)
          act(Action::kYield, 1 + static_cast<std::uint32_t>((h >> 35) % 4));
        else
          act(Action::kStall, 20 + static_cast<std::uint32_t>((h >> 35) % 200));
      }
    }
  }

 private:
  static std::atomic<FaultPlan*>& current() {
    static std::atomic<FaultPlan*> g{nullptr};
    return g;
  }

  void act(Action a, std::uint32_t param) {
    switch (a) {
      case Action::kYield:
        for (std::uint32_t i = 0; i < param; ++i) std::this_thread::yield();
        break;
      case Action::kStall:
        std::this_thread::sleep_for(std::chrono::microseconds(param));
        break;
      case Action::kBlock: {
        std::unique_lock<std::mutex> lk(mu_);
        if (released_) break;  // plan already torn down: pass through
        blocked_.fetch_add(1, std::memory_order_release);  // pairs: sched-blocked
        cv_.wait(lk, [this] { return released_; });
        blocked_.fetch_sub(1, std::memory_order_release);  // pairs: sched-blocked
        break;
      }
    }
  }

  std::vector<Trigger> triggers_;
  std::atomic<std::uint64_t> hits_[kPointCount]{};
  std::uint64_t chaos_seed_ = 0;
  std::uint32_t chaos_per_mille_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<std::size_t> blocked_{0};
};

inline bool& this_thread_enabled() {
  thread_local bool enabled = true;
  return enabled;
}
inline void enable_this_thread(bool on) { this_thread_enabled() = on; }

inline void point(Point p) {
  obs::trace_sched(static_cast<unsigned>(p));
  FaultPlan* f = FaultPlan::installed();
  if (f != nullptr && this_thread_enabled()) f->on_point(p);
}

#else  // !JIFFY_SCHEDULE_POINTS

inline void point(Point p) { obs::trace_sched(static_cast<unsigned>(p)); }

#endif

}  // namespace jiffy::sched
