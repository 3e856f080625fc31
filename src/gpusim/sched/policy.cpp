#include "gpusim/sched/policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace spaden::sim {

const char* sched_policy_name(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::Serial:
      return "serial";
    case SchedPolicy::RoundRobin:
      return "rr";
  }
  return "?";
}

SchedPolicy sched_policy_by_name(const std::string& name) {
  if (name == "serial") {
    return SchedPolicy::Serial;
  }
  if (name == "rr") {
    return SchedPolicy::RoundRobin;
  }
  SPADEN_REQUIRE(false, "unknown scheduling policy '%s' (expected serial|rr)",
                 name.c_str());
  return SchedPolicy::Serial;  // unreachable
}

SchedConfig default_sched() {
  SchedConfig cfg;
  const char* env = std::getenv("SPADEN_SIM_SCHED");
  if (env == nullptr || env[0] == '\0') {
    return cfg;
  }
  std::string spec(env);
  if (const auto colon = spec.find(':'); colon != std::string::npos) {
    const std::optional<long> window = parse_long(spec.c_str() + colon + 1);
    SPADEN_REQUIRE(window && *window >= 1 && *window <= 1024,
                   "SPADEN_SIM_SCHED window in '%s' is not an integer in [1, 1024]", env);
    cfg.window = static_cast<int>(*window);
    spec.resize(colon);
  }
  cfg.policy = sched_policy_by_name(spec);
  return cfg;
}

SchedConfig default_engine_sched() {
  const char* env = std::getenv("SPADEN_SIM_SCHED");
  if (env != nullptr && env[0] != '\0') {
    return default_sched();
  }
  SchedConfig cfg;
  cfg.policy = SchedPolicy::RoundRobin;
  return cfg;
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
