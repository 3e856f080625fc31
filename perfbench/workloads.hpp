// The benchmark's three workloads. Each run_pass() executes one pass: the
// whole operation set of the workload, from input synthesis through set-up,
// steady-state launches and output checks. A run repeats passes for its
// measuring time and reports per-metric medians over them.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  /// Wall seconds of one pass on the reference host (4-core x86-64 VM at
  /// 2.0 GHz). A run makes --seconds / this many passes, a count that does
  /// not depend on how fast the host happens to be during the run.
  double nominal_pass_seconds;
  /// Execute one pass. Writes the pass's metric values into ctx.out and the
  /// resolved configuration (read through the library's public getters)
  /// into `config`.
  void (*run_pass)(PassContext& ctx, std::map<std::string, std::string>& config);
};

[[nodiscard]] const std::vector<Workload>& workloads();

/// Method name as a metric-name fragment ("cuSPARSE CSR" -> "cusparse-csr").
[[nodiscard]] std::string method_slug(spaden::kern::Method m);

}  // namespace perfbench
