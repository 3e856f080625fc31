// spaden-sancheck: an opt-in compute-sanitizer analog for the simulator.
//
// Three detectors, modeled on NVIDIA's compute-sanitizer tools:
//
//  * memcheck  — every warp access must fall inside one live allocation of
//                the DeviceMemory bump allocator. The 256 B alignment gaps
//                between buffers act as redzones, freed buffers diagnose as
//                use-after-free, and shadow valid bits flag reads of device
//                memory that was never written (alloc_undef allocations).
//  * racecheck — a happens-before race detector (FastTrack-style per-warp
//                epochs over a canonical warp-major schedule). Two accesses
//                to the same byte from different warps race when at least
//                one is a non-atomic write — or one is an atomic and the
//                other a plain access — and no happens-before path orders
//                them. HB edges come from program order within a warp, from
//                launch boundaries (analysis is per launch), and from
//                same-address atomic release/acquire chains. Every finding
//                carries a witness pair: both instructions (per-warp op
//                ordinals), warps, lanes, and the labeled buffer + offset.
//                A same-warp write-after-write overlap between divergent
//                lanes of a single store instruction is flagged separately.
//  * sync-lint — shuffles whose source lane is inactive under the executing
//                mask (undefined in CUDA), and sync_warp barriers that lanes
//                active in the preceding instruction do not arrive at.
//
// Recording is warp-side and lock-free: each simulation thread appends to
// its own SanShard, and analysis runs on the host thread after the launch
// joins, so the verdicts are deterministic regardless of thread schedule.
// When the sanitizer is disabled no event is recorded, no shard exists, and
// the only cost is a null-pointer test per warp memory instruction —
// modeled time (KernelStats-derived) is identical either way.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/memory.hpp"

namespace spaden::sim {

enum class SanKind : std::uint8_t {
  OobAccess = 0,     ///< memcheck: access outside any live allocation
  UninitRead,        ///< memcheck: read of never-written device memory
  InterWarpRace,     ///< racecheck: conflicting access from two warps
  DivergentWaw,      ///< racecheck: same-instruction lane overlap on a store
  DivergentShuffle,  ///< sync-lint: shuffle source lane inactive in mask
  BarrierMismatch,   ///< sync-lint: active lane missing from sync_warp mask
};
inline constexpr std::size_t kSanKindCount = 6;

[[nodiscard]] const char* san_kind_name(SanKind k);

/// Absent-warp sentinel for SanDiag witness fields.
inline constexpr std::uint64_t kSanNoWarp = ~std::uint64_t{0};

/// One formatted finding. `warp` is the primary (first observed) warp and
/// `addr` the device address, when the detector has one. Race findings
/// additionally carry the full witness pair: `warp`/`op`/`lane` identify the
/// canonically-earlier access and `warp2`/`op2`/`lane2` the conflicting one,
/// where `op` is the per-warp ordinal of the recorded memory/sync operation
/// (independent of SPADEN_SIM_THREADS and the resident window).
struct SanDiag {
  SanKind kind = SanKind::OobAccess;
  std::uint64_t warp = 0;
  std::uint64_t addr = 0;
  std::uint64_t warp2 = kSanNoWarp;  ///< second witness warp (races only)
  std::uint32_t op = 0;              ///< per-warp op ordinal of the first access
  std::uint32_t op2 = 0;             ///< per-warp op ordinal of the second access
  std::uint8_t lane = 0;
  std::uint8_t lane2 = 0;
  std::string message;
};

/// Result of sanitizing one kernel launch (or, for Device::sanitizer_log(),
/// every launch since the log was cleared).
struct SanitizerReport {
  bool enabled = false;
  bool truncated = false;  ///< event cap hit; analysis covered a prefix
  std::string kernel_name;
  std::array<std::uint64_t, kSanKindCount> counts{};
  /// Detailed findings, capped per detector; counts[] always holds totals.
  std::vector<SanDiag> diagnostics;

  [[nodiscard]] std::uint64_t count(SanKind k) const {
    return counts[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] bool clean() const { return total() == 0; }
  void merge(const SanitizerReport& other);

  /// Per-detector table (common/table) plus the finding lines.
  [[nodiscard]] std::string summary() const;
};

/// Access class of one recorded event. `Barrier` is a zero-byte marker
/// event recorded by sync_warp: it advances the warp's epoch counter in the
/// race detector and is skipped by every other detector.
enum class SanAccess : std::uint8_t { Load = 0, Store, Atomic, Barrier };

/// One lane's byte range of one warp memory instruction.
struct SanEvent {
  std::uint64_t addr = 0;
  std::uint64_t warp = 0;
  std::uint32_t seq = 0;  ///< per-shard instruction sequence number
  std::uint16_t size = 0;
  std::uint8_t lane = 0;
  SanAccess kind = SanAccess::Load;
};

/// Per-simulation-thread event recorder; owned by Device::launch while a
/// sanitized launch is in flight. All mutation happens on one worker thread.
class SanShard {
 public:
  explicit SanShard(std::size_t max_events) : max_events_(max_events) {}

  /// Capacity-preserving clear (shard pooling): equivalent to constructing a
  /// fresh shard, but the event buffers keep their allocations, so repeat
  /// launches stop paying the per-launch shard malloc traffic.
  void reset(std::size_t max_events) {
    max_events_ = max_events;
    warp_ = 0;
    seq_ = 0;
    last_mask_ = 0xFFFF'FFFFu;
    kind_ = SanAccess::Load;
    dropped_ = 0;
    events_.clear();
    lints_.clear();
  }

  void begin_warp(std::uint64_t warp) {
    warp_ = warp;
    last_mask_ = 0xFFFF'FFFFu;
  }

  void begin_instr(SanAccess kind, std::uint32_t mask) {
    kind_ = kind;
    last_mask_ = mask;
    ++seq_;
  }

  void lane_access(int lane, std::uint64_t addr, std::uint32_t size) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(SanEvent{addr, warp_, seq_, static_cast<std::uint16_t>(size),
                               static_cast<std::uint8_t>(lane), kind_});
  }

  /// Non-memory warp op executed under `mask` (shuffle, ballot, reduction):
  /// tracked so a following sync_warp can check arrival.
  void note_op_mask(std::uint32_t mask) { last_mask_ = mask; }

  /// Per-warp recorder state the fiber scheduler (gpusim/sched) carries
  /// across warp suspensions, so events stay attributed to the right warp
  /// and sync-lint never compares masks across different warps. The
  /// instruction sequence counter stays shard-global: warps never yield
  /// mid-instruction, so each (warp, seq) event group remains contiguous —
  /// the invariant the divergent-WAW grouping relies on.
  struct WarpState {
    std::uint64_t warp = 0;
    std::uint32_t last_mask = 0xFFFF'FFFFu;
  };
  [[nodiscard]] WarpState save_warp() const { return WarpState{warp_, last_mask_}; }
  void restore_warp(const WarpState& state) {
    warp_ = state.warp;
    last_mask_ = state.last_mask;
  }

  void divergent_shuffle(std::uint32_t mask, int lane, std::uint32_t src_lane);
  /// Barrier: checks lane arrival (sync-lint) and records a Barrier marker
  /// event so the race detector can advance the warp's epoch.
  void sync_warp(std::uint32_t mask);

 private:
  friend SanitizerReport sanitize_analyze(std::string kernel_name,
                                          std::vector<SanShard>& shards,
                                          AllocRegistry& registry);

  struct LintEvent {
    SanKind kind = SanKind::DivergentShuffle;
    std::uint64_t warp = 0;
    std::uint32_t seq = 0;  ///< shard-local position, for canonical reordering
    std::uint32_t mask = 0;
    std::uint32_t detail = 0;  ///< shuffle: (lane << 8) | src_lane; barrier: prior mask
  };

  std::size_t max_events_;
  std::uint64_t warp_ = 0;
  std::uint32_t seq_ = 0;
  std::uint32_t last_mask_ = 0xFFFF'FFFFu;
  SanAccess kind_ = SanAccess::Load;
  std::uint64_t dropped_ = 0;
  std::vector<SanEvent> events_;
  std::vector<LintEvent> lints_;
};

/// Total event budget of one sanitized launch, split evenly across shards.
/// Beyond it recording stops and the report is marked truncated.
inline constexpr std::size_t kSanMaxEvents = std::size_t{1} << 21;  // ~50 MB of events

/// Analyze the recorded shards of one launch against the allocation table.
/// Events are first regrouped into a canonical warp-major schedule (every
/// warp's stream lives in exactly one shard, so the regrouping — and with it
/// every verdict and every diagnostic byte — is independent of the shard
/// count, the warp partition, and the resident window). Commits every
/// observed store to the registry's shadow valid bits.
[[nodiscard]] SanitizerReport sanitize_analyze(std::string kernel_name,
                                               std::vector<SanShard>& shards,
                                               AllocRegistry& registry);

}  // namespace spaden::sim
