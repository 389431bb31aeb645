// Batch replay helping under targeted writer kills (requires the engine to
// be built with JIFFY_SCHEDULE_POINTS).
//
// Each scenario parks a victim writer at one batch schedule point — before
// an install CAS, before a watermark bump, before the final stamp — via a
// FaultPlan kBlock trigger, then proves:
//   1. readers never block and observe the batch all-or-nothing while the
//      writer is parked,
//   2. an ordinary concurrent writer that routes into a pending node
//      completes the whole batch by replaying ops[installed..) from the
//      published descriptor (wait_writable -> help_revision -> run_batch),
//   3. the victim, once released, retires harmlessly (its remaining CASes
//      lose to the helper's) and the final state is exactly one batch
//      application.
// A further scenario parks a helper holding a stale watermark across the
// batch's stamp and a newer write, and a final one stalls (not blocks) the
// merge windows under reader load.
//
// Only even keys are populated: anchors are always existing keys, so key 1
// is guaranteed to route into the node that owns batch key 0 — the first
// group's node, which is pending the moment one group is installed. The
// helper's no-op erase(1) therefore deterministically meets the stalled
// batch without perturbing the checked state.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/jiffy.h"
#include "test_util.h"

#if !defined(JIFFY_SCHEDULE_POINTS) || !JIFFY_SCHEDULE_POINTS
#error "test_batch_replay must be compiled with JIFFY_SCHEDULE_POINTS=1"
#endif

namespace {

using Map = jiffy::JiffyMap<std::uint64_t, std::uint64_t>;
using jiffy::sched::FaultPlan;
using jiffy::sched::Point;

constexpr std::uint64_t kSpace = 256;     // even keys 0..254 populated
constexpr std::uint64_t kBatchStride = 16;  // batch puts k % 16 == 0
constexpr std::uint64_t kNewBase = 1000;

jiffy::JiffyConfig small_nodes() {
  jiffy::JiffyConfig cfg;
  cfg.autoscaler.enabled = false;
  cfg.autoscaler.fixed_size = 8;  // many nodes -> the batch spans many groups
  return cfg;
}

void populate(Map& map) {
  for (std::uint64_t k = 0; k < kSpace; k += 2) map.put(k, 1);
}

// Count how many batch keys already read their post-batch value at one
// consistent version; atomicity demands 0 or all.
void check_all_or_nothing(const Map& map) {
  const auto snap = map.snapshot();
  std::size_t newv = 0, total = 0;
  for (std::uint64_t k = 0; k < kSpace; k += kBatchStride) {
    ++total;
    const auto got = snap.get(k);
    CHECK(got.has_value());
    if (*got == kNewBase + k) ++newv;
    else CHECK_EQ(*got, 1u);
  }
  CHECK(newv == 0 || newv == total);
}

void scenario(Point p, std::uint64_t nth) {
  std::printf("scenario: block %s hit %llu\n", jiffy::sched::name(p),
              static_cast<unsigned long long>(nth));
  Map map(small_nodes());
  populate(map);

  FaultPlan plan;
  plan.block_at(p, nth);
  FaultPlan::install(&plan);

  std::thread victim([&map] {
    // Schedule points stay enabled on this thread only: it is the one the
    // plan is aimed at.
    jiffy::Batch<std::uint64_t, std::uint64_t> b;
    for (std::uint64_t k = 0; k < kSpace; k += kBatchStride)
      b.put(k, kNewBase + k);
    map.apply(std::move(b));
  });

  for (int i = 0; plan.blocked() == 0 && i < 40000; ++i)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  CHECK_EQ(plan.blocked(), 1u);

  // Readers make progress and see the batch atomically while the writer is
  // parked mid-protocol. (At the stamp point a reader may help-stamp and
  // legitimately see "all".)
  for (int i = 0; i < 4; ++i) check_all_or_nothing(map);

  // An unrelated writer routed into a pending node must finish the victim's
  // batch before its own op can proceed: erase(1) is a no-op on the state
  // but shares batch key 0's node, so wait_writable meets the pending
  // revision and replays the rest of the batch.
  std::thread helper([&map] {
    jiffy::sched::enable_this_thread(false);
    CHECK(!map.erase(1));
  });
  helper.join();

  // The whole batch is now visible — completed by the helper, not the
  // (still parked) victim.
  CHECK_EQ(plan.blocked(), 1u);
  for (std::uint64_t k = 0; k < kSpace; k += kBatchStride)
    CHECK_EQ(map.get(k).value(), kNewBase + k);
  check_all_or_nothing(map);

  plan.release_all();
  victim.join();
  FaultPlan::uninstall();

  // The released victim's leftover CASes must not have double-applied or
  // reverted anything.
  for (std::uint64_t k = 0; k < kSpace; k += 2) {
    const std::uint64_t want = k % kBatchStride == 0 ? kNewBase + k : 1;
    CHECK_EQ(map.get(k).value(), want);
  }
  CHECK_EQ(map.debug_stats().entry_count, kSpace / 2);
  std::printf("  ok (replayed; victim retired cleanly)\n");
}

// Merge windows under stalls: no kill (a parked merge with no helper hook
// is allowed to finish on release — merges are abortable, not replayable),
// but long stalls at both merge points while readers and writers churn.
void merge_stall_scenario() {
  std::printf("scenario: stall merge_marker/merge_stamp under churn\n");
  Map map(small_nodes());
  populate(map);

  FaultPlan plan;
  for (std::uint64_t n = 1; n <= 6; ++n) {
    plan.stall_at(Point::kMergeMarker, n, 20000);
    plan.stall_at(Point::kMergeStamp, n, 20000);
  }
  FaultPlan::install(&plan);

  std::thread churn([&map] {
    // Erase/reinsert waves: shrinks nodes below the merge threshold, so
    // merges (and their stalled windows) fire repeatedly.
    for (int round = 0; round < 6; ++round) {
      for (std::uint64_t k = 0; k < kSpace; k += 2)
        if (k % 8 != 0) map.erase(k);
      for (std::uint64_t k = 0; k < kSpace; k += 2)
        if (k % 8 != 0) map.put(k, 2 + static_cast<std::uint64_t>(round));
    }
  });
  std::thread reads([&map] {
    jiffy::sched::enable_this_thread(false);
    for (int i = 0; i < 2000; ++i) {
      const auto snap = map.snapshot();
      std::uint64_t n = 0, prev = 0;
      bool first = true;
      for (auto [k, v] : snap.range(0, kSpace)) {
        CHECK(first || k > prev);  // ordered, no duplicates mid-merge
        first = false;
        prev = k;
        ++n;
      }
      CHECK(n >= kSpace / 8);  // the k%8==0 keys are never erased
    }
  });
  churn.join();
  reads.join();
  FaultPlan::uninstall();
  CHECK_EQ(map.debug_stats().entry_count, kSpace / 2);
  std::printf("  ok\n");
}

// A helper holding a stale watermark must not re-apply a group once the
// batch is stamped. The owner parks right after installing its first group;
// an unrelated writer meets that pending revision, enters run_batch, reads
// the watermark (still at the first group) and parks before locate(). The
// owner then finishes and stamps the batch and overwrites the first group's
// key. Released, the helper must see the stamp and leave the overwrite be.
void stale_watermark_scenario() {
  std::printf("scenario: helper parked at batch_locate across the stamp\n");
  constexpr std::uint64_t kOverwrite = 7;
  Map map(small_nodes());
  populate(map);

  // Two plans, installed in turn: the owner parks on the first, and the
  // helper, which only starts once the owner is parked, on the second.
  FaultPlan owner_plan;
  owner_plan.block_at(Point::kBatchWatermark, 1);
  FaultPlan::install(&owner_plan);
  std::atomic<bool> overwritten{false};
  std::atomic<bool> helper_done{false};
  std::thread owner([&] {
    jiffy::Batch<std::uint64_t, std::uint64_t> b;
    for (std::uint64_t k = 0; k < kSpace; k += kBatchStride)
      b.put(k, kNewBase + k);
    map.apply(std::move(b));
    CHECK(!map.put(0, kOverwrite));
    overwritten.store(true);
    while (!helper_done.load()) std::this_thread::yield();
    CHECK_EQ(map.get(0).value(), kOverwrite);
  });
  for (int i = 0; owner_plan.blocked() == 0 && i < 40000; ++i)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  CHECK_EQ(owner_plan.blocked(), 1u);

  FaultPlan helper_plan;
  helper_plan.block_at(Point::kBatchLocate, 1);
  FaultPlan::install(&helper_plan);
  std::thread helper([&map] { CHECK(!map.erase(1)); });
  for (int i = 0; helper_plan.blocked() == 0 && i < 40000; ++i)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  CHECK_EQ(helper_plan.blocked(), 1u);

  owner_plan.release_all();
  while (!overwritten.load()) std::this_thread::yield();
  helper_plan.release_all();
  helper.join();
  helper_done.store(true);
  owner.join();
  FaultPlan::uninstall();

  for (std::uint64_t k = 2; k < kSpace; k += 2) {
    const std::uint64_t want = k % kBatchStride == 0 ? kNewBase + k : 1;
    CHECK_EQ(map.get(k).value(), want);
  }
  CHECK_EQ(map.debug_stats().entry_count, kSpace / 2);
  std::printf("  ok (stale helper saw the stamp)\n");
}

}  // namespace

int main() {
  jiffy::sched::enable_this_thread(false);  // aim plans at victims only

  // Before the Nth install CAS (first group already in at nth>=2: the
  // descriptor is published and reachable, so helpers can replay).
  scenario(Point::kBatchInstall, 2);
  scenario(Point::kBatchInstall, 9);
  // After an install, before the watermark bump.
  scenario(Point::kBatchWatermark, 1);
  scenario(Point::kBatchWatermark, 5);
  // Everything installed, final stamp missing.
  scenario(Point::kBatchStamp, 1);

  stale_watermark_scenario();
  merge_stall_scenario();

  std::printf("test_batch_replay OK\n");
  return 0;
}
