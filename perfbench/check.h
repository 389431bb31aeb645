// Exact output check for the perfbench program.
//
// The check must hold under every interleaving, so it relies only on facts
// no schedule can change:
//
//   * Ownership. Writer t is the only thread that writes key indices
//     i == t (mod kWriters). A writer moves each drawn index to the nearest
//     one it owns (owned_near), so neighbouring keys, and so the same fat-node
//     revisions, are still written by every writer.
//   * Self-describing values. A value carries its key index in the high bits
//     and a wrapped per-writer sequence number in the low bits
//     (TaggedValue), so any value read anywhere must decode to the key it was
//     read under.
//   * Private shadows. Each writer keeps the exact state of its own keys
//     (Shadow). Because nobody else writes them, its own reads and the
//     return values of its own put/erase must match the shadow exactly, and
//     after the join the map must equal the union of the shadows, key set
//     and value bytes alike (compare_final).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "workload/keyvalue.h"

namespace perfbench {

inline constexpr unsigned kWriters = 3;

// Nearest index to i, inside [0, space), that writer t owns.
inline std::uint64_t owned_near(std::uint64_t i, unsigned t,
                                std::uint64_t space) {
  const std::uint64_t d = (t + kWriters - i % kWriters) % kWriters;
  if (d == 0) return i;
  const std::uint64_t up = i + d;  // the owned index above i
  const bool down_ok = i + d >= kWriters;
  const std::uint64_t down = up - kWriters;  // the owned index below i
  if (up >= space) return down;  // space >= kWriters, so down_ok holds
  if (d == 2 && down_ok) return down;  // down is 1 away, up is 2 away
  return up;
}

// Value = (key index << kSeqBits) | (writer sequence mod 2^kSeqBits).
// 4-byte values hold a 17-bit index (a 131,072-key space) and a 15-bit
// sequence; 8-byte values split 32/32.
template <class V>
struct TaggedValue {
  static constexpr unsigned kIndexBits = sizeof(V) == 4 ? 17 : 32;
  static constexpr unsigned kSeqBits = 8 * sizeof(V) - kIndexBits;
  static constexpr std::uint64_t kMaxSpace = std::uint64_t{1} << kIndexBits;

  static V make(std::uint64_t index, std::uint64_t seq) {
    const std::uint64_t mask = (std::uint64_t{1} << kSeqBits) - 1;
    return static_cast<V>((index << kSeqBits) | (seq & mask));
  }
  static std::uint64_t index_of(V v) {
    return static_cast<std::uint64_t>(v) >> kSeqBits;
  }
};

// Inverse of jiffy::KeyCodec<K>::encode for one key space: the codec spreads
// indices on a fixed stride, so a key decodes when it sits on the stride.
template <class K>
class KeyIndex {
 public:
  explicit KeyIndex(std::uint64_t space)
      : space_(space), stride_(jiffy::KeyCodec<K>::encode(1, space)) {}

  K key(std::uint64_t i) const { return jiffy::KeyCodec<K>::encode(i, space_); }

  // The index of k, or space() when k is not a key of this space.
  std::uint64_t index(K k) const {
    const auto u = static_cast<std::uint64_t>(k);
    if (u % stride_ != 0 || u / stride_ >= space_) return space_;
    return u / stride_;
  }

  std::uint64_t space() const { return space_; }

 private:
  std::uint64_t space_;
  std::uint64_t stride_;
};

// The exact current state of one writer's keys. Written only by its writer
// while workers run; read by the coordinator after the join.
template <class V>
class Shadow {
 public:
  explicit Shadow(std::uint64_t space)
      : value_(space / kWriters + 1), present_(value_.size()) {}

  bool has(std::uint64_t i) const { return present_[i / kWriters] != 0; }
  const V& value(std::uint64_t i) const { return value_[i / kWriters]; }
  std::uint64_t size() const { return size_; }

  void set(std::uint64_t i, V v) {
    const std::uint64_t s = i / kWriters;
    size_ += present_[s] ? 0 : 1;
    present_[s] = 1;
    value_[s] = v;
  }
  void clear(std::uint64_t i) {
    const std::uint64_t s = i / kWriters;
    size_ -= present_[s] ? 1 : 0;
    present_[s] = 0;
  }

  // Flips one bit of the first present value; a second call undoes it.
  // Used only by the checker's self-test.
  void toggle_first_value() {
    for (std::size_t s = 0; s < present_.size(); ++s) {
      if (present_[s]) {
        value_[s] = static_cast<V>(value_[s] ^ V{1});
        return;
      }
    }
  }

  // Does this worker's read of key index i (result `got`, or nullptr for a
  // miss) agree with the shadow? Only meaningful for owned indices.
  bool agrees(std::uint64_t i, const V* got) const {
    if (!has(i)) return got == nullptr;
    return got != nullptr && std::memcmp(got, &value(i), sizeof(V)) == 0;
  }

 private:
  std::vector<V> value_;
  std::vector<unsigned char> present_;
  std::uint64_t size_ = 0;
};

// Compares the map's post-join contents (`scan`, in the order a full forward
// scan returned them) with the union of the writers' shadows. Returns the
// number of mismatches: out-of-order or duplicate entries, keys off the key
// space, entries the owning shadow lacks or holds with other bytes, and
// shadow entries the scan is missing.
template <class K, class V>
std::uint64_t compare_final(const std::vector<std::pair<K, V>>& scan,
                            const std::vector<Shadow<V>>& shadows,
                            const KeyIndex<K>& keys) {
  std::uint64_t bad = 0;
  std::uint64_t matched = 0;
  for (std::size_t n = 0; n < scan.size(); ++n) {
    const auto& [k, v] = scan[n];
    if (n > 0 && !(scan[n - 1].first < k)) {
      ++bad;
      continue;
    }
    const std::uint64_t i = keys.index(k);
    if (i >= keys.space()) {
      ++bad;
      continue;
    }
    const Shadow<V>& s = shadows[i % kWriters];
    if (s.has(i) && std::memcmp(&s.value(i), &v, sizeof(V)) == 0)
      ++matched;
    else
      ++bad;
  }
  std::uint64_t expected = 0;
  for (const Shadow<V>& s : shadows) expected += s.size();
  return bad + (expected - matched);
}

}  // namespace perfbench
