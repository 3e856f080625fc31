// Set-associative sector cache modeling the GPU L2.
//
// The L2 is shared by all SMs and is the unit at which DRAM traffic is
// decided: a sector access that hits stays on-chip; a miss costs one DRAM
// sector transfer. Capacity is the architectural differentiator between the
// two evaluated devices (L40: 96 MB, V100: 6 MB) and is what lets small
// dense-block matrices become compute-bound on L40 (paper §5.4).
#pragma once

#include <cstdint>
#include <vector>

namespace spaden::sim {

class SectorCache {
 public:
  /// `capacity_bytes` is rounded down to a power-of-two set count.
  SectorCache(std::uint64_t capacity_bytes, int ways, std::uint32_t sector_bytes = 32);

  /// Probe one sector-aligned address; inserts on miss. Returns true on hit.
  bool access(std::uint64_t sector_addr) { return access_line(sector_addr / sector_bytes_); }

  /// Probe by sector number (byte address / sector size). The memory
  /// controller classifies whole warp instructions in sector-id space, so
  /// this skips the byte-address round trip. Inline and split hit/victim
  /// scans: the (majority) hit path only compares tags and never reads the
  /// LRU stamps. The victim choice — first way with the minimum stamp — is
  /// identical to scanning stamps alongside the tags.
  bool access_line(std::uint64_t line) {
    const std::uint64_t base = (line & set_mask_) * static_cast<std::uint64_t>(ways_);
    ++clock_;
    const std::uint64_t* tags = tags_.data() + base;
    const int ways = ways_;
    for (int w = 0; w < ways; ++w) {
      if (tags[w] == line) {
        stamps_[base + static_cast<std::uint64_t>(w)] = clock_;
        ++hits_;
        return true;
      }
    }
    std::uint64_t* stamps = stamps_.data() + base;
    // Branchless min-scan: the comparison outcome is data-dependent and
    // mispredicts roughly every other way when scanned with a branch, which
    // dominates the miss path's cost. Ternaries compile to cmov.
    int victim = 0;
    std::uint64_t best = stamps[0];
    for (int w = 1; w < ways; ++w) {
      const bool lt = stamps[w] < best;
      victim = lt ? w : victim;
      best = lt ? stamps[w] : best;
    }
    tags_[base + static_cast<std::uint64_t>(victim)] = line;
    stamps[victim] = clock_;
    ++misses_;
    return false;
  }

  /// Whether `line` is resident. Touches neither LRU state nor counters, so
  /// concurrent readers are safe while nobody probes.
  [[nodiscard]] bool contains_line(std::uint64_t line) const {
    const std::uint64_t* tags =
        tags_.data() + (line & set_mask_) * static_cast<std::uint64_t>(ways_);
    for (int w = 0; w < ways_; ++w) {
      if (tags[w] == line) {
        return true;
      }
    }
    return false;
  }

  /// Hint the host CPU to pull the set holding `line` into its cache. The
  /// classification loop in MemoryController::access knows every sector it
  /// will probe before the first probe, and on big-L2 devices the tag and
  /// stamp arrays (tens of MB) miss the host cache on nearly every scattered
  /// probe — prefetching a few sectors ahead overlaps those misses. Pure
  /// hint: reads nothing, writes nothing, so hit/miss classification and
  /// LRU state are bit-identical with or without it. A 16-way set spans two
  /// 64-byte lines of each array; stamps are prefetched with write intent
  /// because both the hit and the miss path store a stamp.
  void prefetch_line(std::uint64_t line) const {
    const std::uint64_t base = (line & set_mask_) * static_cast<std::uint64_t>(ways_);
    const std::uint64_t* tags = tags_.data() + base;
    const std::uint64_t* stamps = stamps_.data() + base;
    __builtin_prefetch(tags, 0);
    __builtin_prefetch(stamps, 1);
    if (ways_ > 8) {
      __builtin_prefetch(tags + 8, 0);
      __builtin_prefetch(stamps + 8, 1);
    }
  }

  /// Drop all cached state (used between unrelated experiments).
  void flush();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint32_t sector_bytes() const { return sector_bytes_; }
  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(num_sets_) * static_cast<std::uint64_t>(ways_) *
           sector_bytes_;
  }

 private:
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

  std::uint32_t sector_bytes_;
  int ways_;
  std::uint64_t num_sets_;
  std::uint64_t set_mask_;
  std::vector<std::uint64_t> tags_;    ///< num_sets * ways
  std::vector<std::uint64_t> stamps_;  ///< LRU timestamps, same shape
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace spaden::sim
