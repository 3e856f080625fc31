// Shared plumbing of the repository benchmark: seed derivation, the span
// tracer, output checking and per-pass metric samples.
//
// The benchmark times the library only from outside, around calls into the
// public functions of matrix/, core/, serve/ and the multi-device engine.
// Every call goes through Tracer::time(), which always reads the clocks (the
// end-to-end metrics need the durations) and, in a traced pass, also keeps a
// span record. Spans stay in memory and are written once, as a chrome trace,
// when the run ends.
//
// Durations are process CPU seconds (all threads), not wall seconds: on a
// shared virtual machine, hypervisor steal moves the wall time of one pass by
// +-15% within a run while its CPU time stays within about 2%. Spans keep
// wall-clock start/end for the timeline.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kernels/kernel.hpp"

namespace perfbench {

/// SplitMix64 finalizer: derives an independent sub-seed for every input
/// stream (matrix, x vector, request stream) from the one --seed argument.
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Seeded x with entries in [-1, 1), the range kern::spmv_tolerance assumes.
[[nodiscard]] std::vector<float> random_x(std::size_t n, std::uint64_t seed);

struct Span {
  const char* name;
  std::int64_t start_ns;  ///< wall clock (steady_clock)
  std::int64_t end_ns;
  std::int64_t cpu_ns;    ///< process CPU time spent inside the span
  int parent;             ///< index into Tracer::spans(), -1 for a root
  std::uint64_t op;       ///< operation id shared by the spans of one operation
};

class Tracer {
 public:
  /// Spans are kept only while recording is on (the traced passes).
  void set_recording(bool on) { recording_ = on; }

  /// Run `f`, returning the process CPU seconds it took; records a span
  /// named `name` (a string literal) under the innermost open span when
  /// recording. last_wall_seconds() then holds its wall-clock seconds.
  template <typename F>
  double time(const char* name, std::uint64_t op, F&& f) {
    const int index = open(name, op);
    const std::int64_t start = wall_ns();
    const std::int64_t cpu_start = cpu_ns();
    try {
      std::forward<F>(f)();
    } catch (...) {
      close(index, start, wall_ns(), cpu_ns() - cpu_start);
      throw;
    }
    const std::int64_t cpu = cpu_ns() - cpu_start;
    const std::int64_t end = wall_ns();
    close(index, start, end, cpu);
    last_wall_s_ = static_cast<double>(end - start) * 1e-9;
    return static_cast<double>(cpu) * 1e-9;
  }

  [[nodiscard]] double last_wall_seconds() const { return last_wall_s_; }

  /// Mark the spans recorded from now on; self_seconds(first) then covers
  /// only them (one pass).
  [[nodiscard]] std::size_t mark() const { return spans_.size(); }

  /// Self CPU time per span name over spans [first, end): each span's CPU
  /// time minus that of its direct children.
  [[nodiscard]] std::map<std::string, double> self_seconds(std::size_t first) const;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// A fresh operation id (unique within the run).
  [[nodiscard]] std::uint64_t new_op() { return ++ops_; }

 private:
  [[nodiscard]] static std::int64_t wall_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  [[nodiscard]] static std::int64_t cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
  int open(const char* name, std::uint64_t op);
  void close(int index, std::int64_t start, std::int64_t end, std::int64_t cpu);

  bool recording_ = false;
  double last_wall_s_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t ops_ = 0;
};

/// Output checks against the fp64 reference, counted per workload run.
struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few messages, for stderr

  /// Compare y to the fp64 reference `ref` (mat::spmv_reference) within
  /// `tolerance` (kern::spmv_tolerance of the matrix and the method's value
  /// precision).
  void check_spmv(const std::vector<double>& ref, const std::vector<float>& y,
                  double tolerance, const std::string& what);
  /// Count an operation that threw instead of producing an output.
  void fail(const std::string& what);
};

/// Whether `m` stores matrix values in binary16 (the tolerance class of
/// kern::verify_kernel).
[[nodiscard]] bool half_valued(spaden::kern::Method m);

/// One pass's metric values, by metric name. A run reports the median of
/// each metric over its passes.
using Sample = std::map<std::string, double>;

struct PassContext {
  std::uint64_t seed;
  Tracer& tracer;
  Checker& checker;
  Sample& out;
};

}  // namespace perfbench
