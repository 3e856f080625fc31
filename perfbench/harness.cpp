#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/rng.hpp"

namespace perfbench {

std::vector<float> random_x(std::size_t n, std::uint64_t seed) {
  spaden::Rng rng(seed);
  std::vector<float> x(n);
  for (float& v : x) {
    v = rng.next_float(-1.0f, 1.0f);
  }
  return x;
}

int Tracer::open(const char* name, std::uint64_t op) {
  if (!recording_) {
    return -1;
  }
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, 0, 0, 0, parent, op});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index, std::int64_t start, std::int64_t end, std::int64_t cpu) {
  if (index < 0) {
    return;
  }
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.start_ns = start;
  s.end_ns = end;
  s.cpu_ns = cpu;
  stack_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds(std::size_t first) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.cpu_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += static_cast<double>(s.cpu_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

void Checker::check_spmv(const std::vector<double>& ref, const std::vector<float>& y,
                         double tolerance, const std::string& what) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double max_err = y.size() == ref.size() ? 0.0 : kInf;
  for (std::size_t r = 0; r < ref.size() && r < y.size(); ++r) {
    // NaN compares false against everything; count it as an infinite error.
    const double err = std::abs(static_cast<double>(y[r]) - ref[r]);
    max_err = std::isnan(err) ? kInf : std::max(max_err, err);
  }
  if (max_err > tolerance) {
    char msg[160];
    std::snprintf(msg, sizeof(msg), ": max err %g > tolerance %g", max_err, tolerance);
    fail(what + msg);
    return;
  }
  ++attempted;
}

void Checker::fail(const std::string& what) {
  ++attempted;
  ++failed;
  if (failures.size() < 8) {
    failures.push_back(what);
  }
}

bool half_valued(spaden::kern::Method m) {
  using spaden::kern::Method;
  return m == Method::Spaden || m == Method::SpadenNoTc || m == Method::SpadenConventional ||
         m == Method::SpadenUnpaired || m == Method::SpadenWide || m == Method::Dasp;
}

}  // namespace perfbench
