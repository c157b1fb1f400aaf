// Exact references the benchmark checks the sketches against, sized to fit
// in one run at W = 2^20.
//
//   * sharded_window(): the packets inside the union of the per-shard
//     windows. sharded_memento / sharded_h_memento give every shard its own
//     clock and a window of W/N of ITS OWN packets, so the exact answer a
//     sharded deployment is held to is the count over that union, not over
//     the global last W packets (docs/ACCURACY.md section 2).
//   * prefix_counts_2d: exact counts of all 25 (src, dst) generalizations of
//     a packet multiset, one sorted run-length table per pattern. Sorting a
//     million 64-bit keys per pattern replaces exact_hhh's 25 hash-map
//     windows (about 19 s and 0.9 GB at W = 2^20) with about two seconds and
//     a few hundred MB, and the HHH set still comes from the library's own
//     solve_hhh with compensation 0 - the oracle_test binary proves the two
//     agree at small W.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hierarchy/hhh_solver.hpp"
#include "hierarchy/prefix2d.hpp"
#include "trace/packet.hpp"

namespace perfbench {

/// Indices (ascending) of the packets inside the union of the per-shard
/// windows: walking backwards from the end of the stream, shard s keeps its
/// newest `per_shard_window` packets among those `reached(i)` says entered
/// its sketch. shard_of(i) names the owning shard of packet i.
template <typename ShardOf, typename Reached>
[[nodiscard]] std::vector<std::size_t> sharded_window(std::size_t n, std::size_t shards,
                                                      std::uint64_t per_shard_window,
                                                      ShardOf&& shard_of, Reached&& reached) {
  std::vector<std::uint64_t> taken(shards, 0);
  std::size_t full = 0;
  std::vector<std::size_t> out;
  for (std::size_t i = n; i-- > 0 && full < shards;) {
    if (!reached(i)) continue;
    const std::size_t s = shard_of(i);
    if (taken[s] == per_shard_window) continue;
    out.push_back(i);
    if (++taken[s] == per_shard_window) ++full;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

class prefix_counts_2d {
 public:
  using H = memento::two_dim_hierarchy;
  using key_type = memento::prefix2d;

  explicit prefix_counts_2d(std::span<const memento::packet> pkts) {
    std::vector<std::uint64_t> keys(pkts.size());
    for (std::size_t pattern = 0; pattern < H::hierarchy_size; ++pattern) {
      for (std::size_t i = 0; i < pkts.size(); ++i) keys[i] = pack(H::key_at(pkts[i], pattern));
      std::sort(keys.begin(), keys.end());
      table& t = tables_[pattern];
      for (std::size_t i = 0; i < keys.size();) {
        std::size_t j = i + 1;
        while (j < keys.size() && keys[j] == keys[i]) ++j;
        t.keys.push_back(keys[i]);
        t.counts.push_back(static_cast<std::uint32_t>(j - i));
        i = j;
      }
    }
  }

  /// Exact count of an arbitrary prefix in the multiset.
  [[nodiscard]] std::uint64_t count(const key_type& k) const {
    const table& t = tables_[H::pattern_index(k)];
    const std::uint64_t packed = pack(k);
    const auto it = std::lower_bound(t.keys.begin(), t.keys.end(), packed);
    if (it == t.keys.end() || *it != packed) return 0;
    return t.counts[static_cast<std::size_t>(it - t.keys.begin())];
  }

  /// The exact HHH set at threshold theta * window, through the library's
  /// solve_hhh with exact bounds and no compensation. Only prefixes whose
  /// own count reaches the threshold are offered as candidates: with exact
  /// counts every admitted prefix has f >= threshold (the lowest admitted
  /// prefix has no selected descendant, so its conditioned frequency is its
  /// count, and counts only grow up the lattice), so a lighter prefix has no
  /// admitted descendant and its conditioned frequency is its count - it
  /// could never be admitted. The bound oracle still answers every prefix,
  /// including the light glbs the 2-D inclusion-exclusion asks about.
  [[nodiscard]] std::vector<memento::hhh_entry<key_type>> hhh(double theta,
                                                              std::uint64_t window) const {
    const double threshold = theta * static_cast<double>(window);
    std::vector<key_type> candidates;
    for (std::size_t pattern = 0; pattern < H::hierarchy_size; ++pattern) {
      const table& t = tables_[pattern];
      for (std::size_t i = 0; i < t.keys.size(); ++i) {
        if (static_cast<double>(t.counts[i]) >= threshold) {
          candidates.push_back(unpack(t.keys[i], pattern));
        }
      }
    }
    return memento::solve_hhh<H>(
        std::move(candidates),
        [this](const key_type& k) {
          const auto f = static_cast<double>(count(k));
          return memento::freq_bounds{f, f};
        },
        threshold, /*compensation=*/0.0);
  }

 private:
  struct table {
    std::vector<std::uint64_t> keys;  ///< sorted, distinct
    std::vector<std::uint32_t> counts;
  };

  // Within one pattern the depths are fixed, so (src, dst) identifies the
  // prefix (prefix2::make has already masked the host bits).
  [[nodiscard]] static std::uint64_t pack(const key_type& k) noexcept {
    return (static_cast<std::uint64_t>(k.src) << 32) | k.dst;
  }
  [[nodiscard]] static key_type unpack(std::uint64_t v, std::size_t pattern) noexcept {
    return memento::prefix2::make(static_cast<std::uint32_t>(v >> 32), pattern / 5,
                                  static_cast<std::uint32_t>(v), pattern % 5);
  }

  table tables_[H::hierarchy_size];
};

}  // namespace perfbench
