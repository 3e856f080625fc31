// spaden-telemetry's metric substrate: a registry of named counters, gauges
// and log-bucketed latency histograms with deterministic exports.
//
// Design rules, in service of the repo-wide determinism contract:
//
//  * Iteration order is sorted — families by metric name, series within a
//    family by label set — so exports never depend on registration order.
//  * Histograms never store raw observations. An observation only bumps the
//    count of the fixed log-spaced bucket it falls into, and every derived
//    statistic (p50/p90/p99, min, max, sum) is computed from bucket counts
//    and the *fixed boundary table*. Two runs whose observations land in the
//    same buckets therefore export byte-identical documents even when the
//    raw values drift slightly — this is what makes modeled-time metrics
//    comparable across SPADEN_SIM_THREADS, whose modeled seconds agree to
//    ~1% (the L2 model follows the thread count, docs/performance_model.md)
//    while the bucket boundaries are a factor of 10^(1/4) ≈ 1.78 apart.
//  * Host-wall-clock metrics are segregated by name: anything containing
//    "host" (the PR-6 `host_warps_per_sec` precedent, and span metrics like
//    `spaden_convert_host_seconds`) is excluded from the deterministic
//    export sections that CI byte-compares.
//
// Exports: JSON (schema spaden-metrics-v1) through common/json's JsonWriter,
// and a Prometheus-style text exposition (HELP/TYPE comments, cumulative
// `_bucket{le=...}` series, quantized `_sum`, exact `_count`).
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spaden {
class JsonWriter;
}

namespace spaden::met {

/// Metrics-export schema identifier, bumped on breaking layout changes.
inline constexpr const char* kMetricsSchema = "spaden-metrics-v1";

/// Fixed histogram boundaries: four log-spaced buckets per decade from 1 ns
/// to 1000 s (values are bucket *upper* bounds, in seconds). Spelled as
/// literals rather than computed with pow() so exports are byte-identical
/// across libm implementations.
inline constexpr int kTimeBucketCount = 49;
extern const std::array<double, kTimeBucketCount> kTimeBoundaries;

/// A sorted set of label key/value pairs ({"method","Spaden"}, ...). The
/// sort makes label order canonical, so two series that mean the same thing
/// compare equal and exports are deterministic.
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(std::initializer_list<std::pair<std::string, std::string>> kv);

  void set(std::string key, std::string value);
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& items() const {
    return kv_;
  }
  [[nodiscard]] bool empty() const { return kv_.empty(); }

  /// `{key="value",...}` with Prometheus escaping; "" when empty.
  [[nodiscard]] std::string prometheus() const;

  [[nodiscard]] bool operator<(const LabelSet& o) const { return kv_ < o.kv_; }
  [[nodiscard]] bool operator==(const LabelSet& o) const = default;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;  // sorted by key
};

enum class MetricType : std::uint8_t { Counter, Gauge, Histogram };

/// Monotonic event count (exact).
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written scalar (exact).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Log-bucketed latency histogram over kTimeBoundaries. Observations are
/// quantized into buckets at observe() time; every accessor below is a pure
/// function of the bucket counts, so percentiles are deterministic and two
/// histograms with equal bucket counts export identical bytes.
class Histogram {
 public:
  void observe(double seconds);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Per-bucket (non-cumulative) count; index kTimeBucketCount is the
  /// overflow bucket (> 1000 s).
  [[nodiscard]] std::uint64_t bucket_count(int bucket) const {
    return buckets_[static_cast<std::size_t>(bucket)];
  }
  /// Upper boundary of the bucket holding the q-quantile rank (ceil(q*n));
  /// 0 when empty. Overflow observations clamp to the last boundary.
  [[nodiscard]] double quantile(double q) const;
  /// Boundary of the lowest / highest non-empty bucket (0 when empty).
  [[nodiscard]] double quantized_min() const;
  [[nodiscard]] double quantized_max() const;
  /// Σ count_i × boundary_i — the deterministic stand-in for the exact sum
  /// (an exact sum would leak sub-bucket drift into the export).
  [[nodiscard]] double quantized_sum() const;

 private:
  std::array<std::uint64_t, kTimeBucketCount + 1> buckets_{};
  std::uint64_t count_ = 0;
};

/// Process/engine-wide registry. Get-or-create accessors hand out stable
/// references (series never move once created); a name+labels pair is one
/// series and its metric type is fixed at first registration.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name, LabelSet labels = {}, std::string_view help = "");
  Gauge& gauge(std::string_view name, LabelSet labels = {}, std::string_view help = "");
  Histogram& histogram(std::string_view name, LabelSet labels = {},
                       std::string_view help = "");

  /// Host-wall-clock metrics are segregated by name: any metric whose name
  /// contains "host" reports nondeterministic host timing and is excluded
  /// from the deterministic export sections.
  [[nodiscard]] static bool is_host_metric(std::string_view name) {
    return name.find("host") != std::string_view::npos;
  }

  /// Add another registry's series into this one: counters and histogram
  /// buckets add, gauges take the other side's value. Used to aggregate
  /// per-engine registries (`spaden bench`, future serving fleets).
  void merge(const MetricsRegistry& other);

  /// Emit `"metrics": [...]` (deterministic series only) and — when
  /// `include_host` — `"host_metrics": [...]` into the currently open JSON
  /// object. Callers add their own envelope fields around these.
  void write_json_sections(JsonWriter& w, bool include_host = true) const;
  /// Full document: {"schema": "spaden-metrics-v1", "metrics": [...],
  /// ["host_metrics": [...]]}. `json(false)` is the byte-comparable form.
  [[nodiscard]] std::string json(bool include_host = true, bool pretty = true) const;
  /// Prometheus text exposition of every series (HELP/TYPE + samples).
  [[nodiscard]] std::string prometheus(bool include_host = true) const;

  [[nodiscard]] std::size_t family_count() const { return families_.size(); }

 private:
  struct Series {
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };
  struct Family {
    MetricType type = MetricType::Counter;
    std::string help;
    std::map<LabelSet, Series> series;
  };

  Series& get_or_create(std::string_view name, LabelSet&& labels, std::string_view help,
                        MetricType type);

  std::map<std::string, Family, std::less<>> families_;
};

}  // namespace spaden::met
