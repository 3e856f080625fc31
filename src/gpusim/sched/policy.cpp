#include "gpusim/sched/policy.hpp"

#include <algorithm>
#include <cmath>

namespace spaden::sim {

const char* sched_policy_name(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::RoundRobin:
      return "rr";
  }
  return "?";
}

int resident_window(const DeviceSpec& spec, const SchedConfig& cfg,
                    std::uint64_t num_warps) {
  const int max_resident = std::max(1, spec.max_warps_per_sm);
  if (cfg.window > 0) {
    return std::min(cfg.window, max_resident);
  }
  const double occ = launch_occupancy(spec, num_warps);
  const int window = static_cast<int>(std::lround(occ * max_resident));
  return std::clamp(window, 1, max_resident);
}

}  // namespace spaden::sim
