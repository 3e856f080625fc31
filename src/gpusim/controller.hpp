// Memory controller: coalesces the per-lane addresses of one warp memory
// instruction into unique 32-byte sectors, probes the L2 model, and charges
// the kernel's counters.
//
// This is where the paper's §5.3 story lives: a warp whose 32 lanes read 32
// consecutive floats touches 4 sectors (fully coalesced); a warp whose lanes
// each walk a private row (CSR Warp16) touches up to 32 sectors for the same
// 128 bytes of useful data, which is exactly why that variant is 23x slower.
#pragma once

#include <array>
#include <cstdint>

#include "gpusim/cache.hpp"
#include "gpusim/stats.hpp"

namespace spaden::sim {

class SharedL2;

/// Sector-id window classifying halo traffic for one shard of a device
/// group (gpusim/multidevice): sectors inside [lo, hi) belong to the x
/// vector; the sub-range [own_lo, own_hi) is the slice this device owns.
/// Accesses to x sectors outside the owned slice are remote — they count
/// into KernelStats::remote_sectors and gate the warp on the modeled halo
/// transfer (gpusim/sched).
struct RemoteWindow {
  std::uint64_t lo = 0;      ///< first x sector (inclusive)
  std::uint64_t hi = 0;      ///< one past the last x sector
  std::uint64_t own_lo = 0;  ///< first locally-owned x sector
  std::uint64_t own_hi = 0;  ///< one past the last locally-owned x sector

  [[nodiscard]] bool is_remote(std::uint64_t sector) const {
    return sector >= lo && sector < hi && (sector < own_lo || sector >= own_hi);
  }
};

class MemoryController {
 public:
  static constexpr int kWarpSize = 32;

  /// Both caches must share one sector size (it defines the sector-id
  /// space all classification below happens in).
  MemoryController(SectorCache* l1, SectorCache* l2, KernelStats* stats);

  void set_stats(KernelStats* stats) { stats_ = stats; }

  /// Route L2 probes to a shared set-sharded L2 instead of this
  /// controller's private L2 (null = private; the private cache still
  /// defines the sector geometry). Opt-in via Device::set_shared_l2.
  /// `participant` >= 0 probes through that participant's epochs of a
  /// concurrent launch (SharedL2::probe); -1 owns the cache outright.
  void set_shared_l2(SharedL2* shared, int participant = -1) {
    shared_l2_ = shared;
    participant_ = participant;
  }

  /// Classify accesses against a halo window (null = everything local, the
  /// single-device fast path — no extra work in the probe loops).
  void set_remote_window(const RemoteWindow* remote) { remote_ = remote; }

  /// One warp-level memory instruction. `addrs[i]` / `sizes[i]` describe lane
  /// i's access; lanes with a clear bit in `mask` are inactive.
  void access(const std::array<std::uint64_t, kWarpSize>& addrs,
              const std::array<std::uint32_t, kWarpSize>& sizes, std::uint32_t mask,
              bool is_store);

  /// A contiguous range accessed by the warp as a unit (e.g. a broadcast
  /// scalar load, or a wmma load of a full fragment row block).
  void access_range(std::uint64_t addr, std::uint64_t bytes, bool is_store);

  /// Atomic read-modify-write: lanes targeting the same sector serialize, so
  /// duplicate sectors are NOT merged; each active lane is charged one
  /// sector access plus the atomic lane-op.
  void access_atomic(const std::array<std::uint64_t, kWarpSize>& addrs,
                     const std::array<std::uint32_t, kWarpSize>& sizes, std::uint32_t mask);

 private:
  void touch_sector(std::uint64_t sector_addr, bool is_store);
  /// Probe the L2 this controller routes to; true on hit.
  bool probe_l2(std::uint64_t sector);

  SectorCache* l1_;
  SectorCache* l2_;
  SharedL2* shared_l2_ = nullptr;
  int participant_ = -1;
  const RemoteWindow* remote_ = nullptr;
  KernelStats* stats_;
  std::uint32_t sector_bytes_;
  std::uint32_t sector_shift_;
};

}  // namespace spaden::sim
