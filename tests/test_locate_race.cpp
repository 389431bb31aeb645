// Routing race in JiffyMap::locate (requires the engine to be built with
// JIFFY_SCHEDULE_POINTS).
//
// locate()'s level-0 walk picks the last live node whose anchor is <= k,
// then re-reads that node's head revision (schedule point locate_head sits
// between the two). In that window the node can split k into a new right-
// hand node and then take one more write: the re-read head no longer
// carries the split's `sibling` pointer, so a routing check that looks only
// at `sibling` accepts a revision that no longer holds k's range. A get
// then misses k, and a put or erase lands in the wrong node.
//
// Each scenario parks one operation on key 60 at locate_head in a one-node
// map of keys 10..80 (fixed revision cap 8, autoscaler and auto-purge off),
// then, from the main thread, puts 15 (a split that moves 50..80 into a new
// node) and 12 (a rewrite of the left part, which drops the sibling
// pointer), and releases the parked operation.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "core/jiffy.h"
#include "test_util.h"

#if !defined(JIFFY_SCHEDULE_POINTS) || !JIFFY_SCHEDULE_POINTS
#error "test_locate_race must be compiled with JIFFY_SCHEDULE_POINTS=1"
#endif

namespace {

using Map = jiffy::JiffyMap<std::uint64_t, std::uint64_t>;
using jiffy::sched::FaultPlan;
using jiffy::sched::Point;

jiffy::JiffyConfig one_node() {
  jiffy::JiffyConfig cfg;
  cfg.autoscaler.enabled = false;
  cfg.autoscaler.fixed_size = 8;
  cfg.reclaim.auto_purge = false;
  return cfg;
}

// Every key in order, each once: the scan dedupes by strictly increasing
// keys, so a key installed in the wrong node shows up as keys missing.
std::vector<std::uint64_t> keys_of(const Map& map) {
  std::vector<std::uint64_t> out;
  map.scan_n(0, 100, [&](std::uint64_t k, std::uint64_t) { out.push_back(k); });
  return out;
}

// Park `op` (run on its own thread) at locate_head, split 60 away from the
// node it chose and rewrite that node, then let `op` finish.
template <class Op>
void race(Map& map, Op op) {
  for (std::uint64_t k = 10; k <= 80; k += 10) map.put(k, k);
  CHECK_EQ(map.debug_stats().node_count, 1u);

  FaultPlan plan;
  plan.block_at(Point::kLocateHead, 1);
  FaultPlan::install(&plan);
  jiffy::sched::enable_this_thread(false);  // the plan aims at `op` only

  std::thread victim([&] { op(); });
  for (int i = 0; plan.blocked() == 0 && i < 40000; ++i)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  CHECK_EQ(plan.blocked(), 1u);

  CHECK(map.put(15, 15));  // splits: [10 15 20 30 40] [50 60 70 80]
  CHECK(map.put(12, 12));  // rewrites the left part, without the sibling
  CHECK_EQ(map.debug_stats().node_count, 2u);

  plan.release_all();
  victim.join();
  FaultPlan::uninstall();
  jiffy::sched::enable_this_thread(true);
}

void parked_get() {
  Map map(one_node());
  std::optional<std::uint64_t> got;
  race(map, [&] { got = map.get(60); });
  CHECK(got.has_value());
  CHECK_EQ(*got, 60u);
  std::printf("parked get ok\n");
}

void parked_put() {
  Map map(one_node());
  bool inserted = true;
  race(map, [&] { inserted = map.put(60, 600); });
  CHECK(!inserted);  // an overwrite of the 60 that moved right
  CHECK_EQ(map.get(60).value(), 600u);
  const std::vector<std::uint64_t> want = {10, 12, 15, 20, 30,
                                           40, 50, 60, 70, 80};
  CHECK(keys_of(map) == want);
  std::printf("parked put ok\n");
}

void parked_erase() {
  Map map(one_node());
  bool erased = false;
  race(map, [&] { erased = map.erase(60); });
  CHECK(erased);
  CHECK(!map.get(60).has_value());
  const std::vector<std::uint64_t> want = {10, 12, 15, 20, 30,
                                           40, 50, 70, 80};
  CHECK(keys_of(map) == want);
  std::printf("parked erase ok\n");
}

}  // namespace

int main() {
  parked_get();
  parked_put();
  parked_erase();
  std::printf("test_locate_race OK\n");
  return 0;
}
