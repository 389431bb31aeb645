// Snapshot-watermark reclamation: the oldest-active-version ticket registry,
// the cooperative purge pass (collect / sweep / drain / retire), eligibility
// gating by live snapshots, bounded tombstone growth with auto-purge on, and
// snapshot seeks among linked tombstones.
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/jiffy.h"
#include "ebr/ebr.h"
#include "test_util.h"

namespace {

using Map = jiffy::JiffyMap<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kIdle = ~0ull;

jiffy::JiffyConfig manual_cfg() {
  jiffy::JiffyConfig cfg;
  cfg.autoscaler.enabled = false;
  cfg.autoscaler.fixed_size = 8;  // small nodes: erase waves force merges
  cfg.reclaim.auto_purge = false;  // purge only when the test says so
  return cfg;
}

void version_ticket_unit() {
  CHECK_EQ(jiffy::ebr::min_active_version(), kIdle);
  {
    jiffy::ebr::VersionTicket t;
    // Freshly constructed: sentinel 0 blocks the watermark entirely.
    CHECK_EQ(jiffy::ebr::min_active_version(), 0u);
    t.publish(12345);
    CHECK_EQ(jiffy::ebr::min_active_version(), 12345u);
    jiffy::ebr::VersionTicket t2;
    t2.publish(99);
    CHECK_EQ(jiffy::ebr::min_active_version(), 99u);
  }
  CHECK_EQ(jiffy::ebr::min_active_version(), kIdle);
  std::printf("version ticket unit ok\n");
}

// Erase a wave of keys so nodes shrink below the merge threshold, then
// reinsert so the next wave can merge again.
void churn_wave(Map& map, std::uint64_t n, std::uint64_t round) {
  for (std::uint64_t k = 0; k < n; ++k)
    if (k % 8 != 0) map.erase(k);
  for (std::uint64_t k = 0; k < n; ++k)
    if (k % 8 != 0) map.put(k, round * 1000 + k);
}

void manual_purge_progression() {
  Map map(manual_cfg());
  constexpr std::uint64_t kN = 2000;
  for (std::uint64_t k = 0; k < kN; ++k) map.put(k, k);
  for (std::uint64_t round = 1; round <= 3; ++round) churn_wave(map, kN, round);

  auto stats = map.debug_stats();
  std::printf("after churn: tombstones=%zu dead_shells~%zu\n",
              stats.tombstone_count, stats.dead_shell_estimate);
  CHECK(stats.tombstone_count > 0);  // merges left kAbsorbed markers linked

  // No snapshots alive -> watermark is ~0 -> everything is eligible. One
  // purge() call normally completes the whole state machine (its internal
  // quiesce() advances the epoch past the drain barrier); allow a few.
  std::size_t retired = 0;
  for (int i = 0; i < 10 && retired == 0; ++i) retired = map.purge();
  CHECK(retired > 0);

  stats = map.debug_stats();
  std::printf("after purge: tombstones=%zu purged_total=%llu\n",
              stats.tombstone_count,
              static_cast<unsigned long long>(stats.purged_total));
  CHECK_EQ(stats.tombstone_count, 0u);  // single-threaded: all were eligible
  CHECK_EQ(stats.purged_total, static_cast<std::uint64_t>(retired));

  // The map still answers correctly through the rebuilt links.
  for (std::uint64_t k = 0; k < kN; ++k) {
    const std::uint64_t want = k % 8 == 0 ? k : 3000 + k;
    CHECK_EQ(map.get(k).value(), want);
  }
  CHECK_EQ(map.debug_stats().entry_count, kN);
  std::printf("manual purge progression ok\n");
}

void snapshot_blocks_reclamation() {
  Map map(manual_cfg());
  constexpr std::uint64_t kN = 1024;
  for (std::uint64_t k = 0; k < kN; ++k) map.put(k, k);

  // Clean slate: reclaim the shells from the initial inserts' splits.
  for (int i = 0; i < 4; ++i) map.purge();
  const std::uint64_t purged_before = map.debug_stats().purged_total;

  {
    const auto snap = map.snapshot();  // pins version V via its ticket

    // All merge deaths from this churn stamp dv > V: ineligible while the
    // snapshot lives, no matter how often purge runs.
    for (std::uint64_t round = 1; round <= 2; ++round)
      churn_wave(map, kN, round);
    const std::size_t tombs_live = map.debug_stats().tombstone_count;
    CHECK(tombs_live > 0);
    for (int i = 0; i < 4; ++i) map.purge();

    const auto stats = map.debug_stats();
    CHECK_EQ(stats.purged_total, purged_before);      // nothing retired
    CHECK_EQ(stats.tombstone_count, tombs_live);      // nothing unlinked

    // And the snapshot still reads the pre-churn world exactly.
    for (std::uint64_t k = 0; k < kN; ++k)
      CHECK_EQ(snap.get(k).value(), k);
  }

  // Snapshot gone -> watermark lifts -> the same shells reclaim.
  std::size_t retired = 0;
  for (int i = 0; i < 10 && retired == 0; ++i) retired = map.purge();
  CHECK(retired > 0);
  const auto stats = map.debug_stats();
  CHECK_EQ(stats.tombstone_count, 0u);
  CHECK(stats.purged_total > purged_before);
  for (std::uint64_t k = 0; k < kN; ++k) {
    const std::uint64_t want = k % 8 == 0 ? k : 2000 + k;
    CHECK_EQ(map.get(k).value(), want);
  }
  std::printf("snapshot gating ok\n");
}

void auto_purge_bounds_growth() {
  jiffy::JiffyConfig cfg;
  cfg.autoscaler.enabled = false;
  cfg.autoscaler.fixed_size = 8;
  cfg.reclaim.auto_purge = true;
  Map map(cfg);

  constexpr std::uint64_t kN = 512;
  for (std::uint64_t k = 0; k < kN; ++k) map.put(k, k);
  // ~50k ops of merge-heavy churn; the merge path must keep triggering
  // purge so linked garbage stays near the trigger (64 shells at this
  // map's ~100 nodes) instead of growing with total churn.
  for (std::uint64_t round = 1; round <= 50; ++round) churn_wave(map, kN, round);

  auto stats = map.debug_stats();
  std::printf("auto-purge: tombstones=%zu purged_total=%llu\n",
              stats.tombstone_count,
              static_cast<unsigned long long>(stats.purged_total));
  CHECK(stats.purged_total > 0);  // the trigger actually fired
  CHECK(stats.tombstone_count < 2 * Map::purge_trigger(stats.node_count) + 64);

  for (int i = 0; i < 6; ++i) map.purge();
  stats = map.debug_stats();
  CHECK_EQ(stats.tombstone_count, 0u);
  CHECK_EQ(map.debug_stats().entry_count, kN);
  std::printf("auto-purge bound ok\n");
}

// Cursor seeks among hundreds of linked tombstones (auto-purge off, so
// every merge victim stays linked), at four snapshot versions: forward and
// reverse seeks, and a few steps from each landing, must match a std::map
// copy of each snapshot's state. The resplits between the versions link
// parts in front of older tombstones with larger anchors, so the level-0
// walks cannot stop at the first larger anchor (DESIGN.md §1).
void seeks_past_linked_tombstones() {
  Map map(manual_cfg());
  constexpr std::uint64_t kN = 4000;
  std::map<std::uint64_t, std::uint64_t> oracle;
  std::vector<std::unique_ptr<Map::SnapshotT>> snaps;
  std::vector<std::map<std::uint64_t, std::uint64_t>> states;
  auto pin = [&] {
    snaps.push_back(std::make_unique<Map::SnapshotT>(&map));
    states.push_back(oracle);
  };
  auto put = [&](std::uint64_t k, std::uint64_t v) {
    map.put(k, v);
    oracle[k] = v;
  };
  auto erase = [&](std::uint64_t k) {
    map.erase(k);
    oracle.erase(k);
  };
  for (std::uint64_t k = 0; k < kN; k += 2) put(k, k);
  pin();
  for (std::uint64_t k = 0; k < kN; k += 2)
    if (k % 16 != 0) erase(k);  // shrink nodes: merges leave tombstones
  pin();
  for (std::uint64_t k = 0; k < kN; k += 2)
    if (k % 16 != 0) put(k, k + 1);
  pin();
  for (std::uint64_t k = 0; k < kN; k += 2)
    if (k % 6 != 0) erase(k);
  pin();

  const std::size_t tombstones = map.debug_stats().tombstone_count;
  std::printf("linked tombstones: %zu\n", tombstones);
  CHECK(tombstones >= 200);

  for (std::size_t s = 0; s < snaps.size(); ++s) {
    const Map::SnapshotT& snap = *snaps[s];
    const auto& want = states[s];
    for (std::uint64_t k = 0; k <= kN; ++k) {
      // Land, then step a few entries each way from the landing.
      auto f = snap.seek(k);
      auto fit = want.lower_bound(k);
      for (int step = 0; step < 4 && fit != want.end(); ++step, ++fit) {
        CHECK(f.valid());
        CHECK_EQ(f.key(), fit->first);
        CHECK_EQ(f.value(), fit->second);
        f.next();
      }
      if (fit == want.end()) CHECK(!f.valid());

      auto r = snap.seek_for_prev(k);
      auto rit = std::make_reverse_iterator(want.upper_bound(k));
      for (int step = 0; step < 4 && rit != want.rend(); ++step, ++rit) {
        CHECK(r.valid());
        CHECK_EQ(r.key(), rit->first);
        CHECK_EQ(r.value(), rit->second);
        r.prev();
      }
      if (rit == want.rend()) CHECK(!r.valid());
    }
  }
  std::printf("seeks past linked tombstones ok\n");
}

}  // namespace

int main() {
  version_ticket_unit();
  manual_purge_progression();
  snapshot_blocks_reclamation();
  auto_purge_bounds_growth();
  seeks_past_linked_tombstones();
  std::printf("test_reclaim OK\n");
  return 0;
}
