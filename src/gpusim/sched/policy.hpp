// Scheduling configuration for the warp scheduler (src/gpusim/sched/).
//
// Every Device runs `rr`: an occupancy-limited window of resident warps per
// virtual SM, interleaved round-robin at memory operations, which is what the
// cache models need to see realistic (less optimistic) temporal locality. A
// window of one resident warp degenerates to run-to-completion in grid order.
#pragma once

#include <cstdint>

#include "gpusim/device_spec.hpp"

namespace spaden::sim {

/// Which resident warp advances at each yield point. The value 1 is kept
/// from the retired two-policy enum, so a SchedConfig's bytes (and the
/// parameterized test names that print them) stay stable.
enum class SchedPolicy : std::uint8_t {
  RoundRobin = 1,  ///< switch to the next resident warp at every memory op
};

[[nodiscard]] const char* sched_policy_name(SchedPolicy p);

struct SchedConfig {
  SchedPolicy policy = SchedPolicy::RoundRobin;
  /// Resident warps per virtual SM. 0 = derive from the device spec:
  /// max_warps_per_sm scaled by the launch's occupancy estimate.
  int window = 0;
  bool operator==(const SchedConfig&) const = default;
};

/// The scheduling every new Device starts with: rr with the derived window.
[[nodiscard]] constexpr SchedConfig default_sched() { return {}; }

/// Occupancy-limited resident-warp window for one virtual SM: the device's
/// maximum residency scaled by the launch's occupancy estimate, never below
/// 1 and never above max_warps_per_sm. A cfg.window > 0 overrides the
/// derivation (still clamped to the device maximum).
[[nodiscard]] int resident_window(const DeviceSpec& spec, const SchedConfig& cfg,
                                  std::uint64_t num_warps);

}  // namespace spaden::sim
